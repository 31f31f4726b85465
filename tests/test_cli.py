import json

import pytest

from multisym import cli
from multisym.trees import bileveled_of_perm, parse_perm, render


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def beta_key(word):
    return render(bileveled_of_perm(parse_perm(word)))


def test_enumerate_counts_and_determinism(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "M", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 21
    code2, out2, _ = run(capsys, "enumerate", "--family", "M", "--n", "4")
    assert out2 == out


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "Y", "--n", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"family": "Y", "key": "(..)"}


def test_map_pipeline_from_the_worked_example(capsys):
    code, out, _ = run(capsys, "map", "--op", "beta", "--input", "56187243")
    assert code == 0
    key = out.strip()
    code, out, _ = run(capsys, "map", "--op", "Mm", "--input", key)
    assert code == 0
    assert out.strip() == "56487231"
    code, out, _ = run(capsys, "map", "--op", "mm", "--input", key)
    assert out.strip() == "56187243"


def test_map_ops(capsys):
    assert run(capsys, "map", "--op", "tau", "--input", "1423")[1].strip() == "((..)((..).))"
    assert run(capsys, "map", "--op", "phi", "--input", "{{..}.}")[1].strip() == "((..).)"
    assert run(capsys, "map", "--op", "min", "--input", "((..)((..).))")[1].strip() == "1423"
    assert run(capsys, "map", "--op", "max", "--input", "((..)((..).))")[1].strip() == "3412"
    assert run(capsys, "map", "--op", "gammaL", "--input", "((..)(..))")[1].strip() == "(((..).).)"
    assert run(capsys, "map", "--op", "gammaR", "--input", "((..)(..))")[1].strip() == "(.(.(..)))"
    assert run(capsys, "map", "--op", "qsym", "--input", beta_key("43521"))[1].strip() == "(2,3)"


def test_fiber_output(capsys):
    code, out, _ = run(capsys, "fiber", "--map", "tau", "--input", "((..)((..).))")
    assert code == 0
    assert out.splitlines() == ["1423", "2413", "3412", "min=1423 max=3412"]
    code, out, _ = run(capsys, "fiber", "--map", "beta", "--input", "{{.(..)}(..)}")
    assert out.splitlines() == ["3142", "3241", "min=3142 max=3241"]


def test_product_output(capsys):
    code, out, _ = run(capsys, "product", "--family", "Y",
                       "--left", "(..)", "--right", "(..)")
    assert code == 0
    assert out.splitlines() == ["1\t((..).)", "1\t(.(..))"]
    code, out, _ = run(capsys, "product", "--family", "M",
                       "--left", "{.(..)}", "--right", "{.(..)}")
    assert len(out.splitlines()) == 6


def test_coproduct_output(capsys):
    code, out, _ = run(capsys, "coproduct", "--family", "S", "--input", "1")
    assert code == 0
    assert out.splitlines() == ["1\t\t1", "1\t1\t"]


def test_act_dispatches_on_left_key(capsys):
    code, out, _ = run(capsys, "act", "--left", "21", "--right", "{.(..)}")
    assert code == 0
    assert len(out.splitlines()) == 6
    code, out, _ = run(capsys, "act", "--left", "{.(..)}", "--right", "(.(..))")
    assert len(out.splitlines()) == 3


def test_coact_bases(capsys):
    key = beta_key("3241")
    code, out, _ = run(capsys, "coact", "--input", key)
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out, _ = run(capsys, "coact", "--input", key, "--basis", "M")
    assert len(out.splitlines()) == 2
    code, out, _ = run(capsys, "coact", "--input", key, "--basis", "M", "--json")
    assert json.loads(out)["terms"][0]["coef"] == 1


def test_convert_round_trip(capsys):
    code, out, _ = run(capsys, "convert", "--family", "M", "--from", "M",
                       "--to", "F", "--key", "{{..}.}", "--json")
    assert code == 0
    assert json.loads(out)["terms"] == {"{{..}.}": 1, "{.(..)}": -1}


def test_mobius(capsys):
    code, out, _ = run(capsys, "mobius", "--family", "S", "--n", "3",
                       "--x", "123", "--y", "321")
    assert code == 0 and out.strip() == "1"
    code, _, err = run(capsys, "mobius", "--family", "S", "--n", "3",
                       "--x", "132", "--y", "213")
    assert code == 2 and "error" in err


def test_hasse_dot(capsys):
    code, out, _ = run(capsys, "hasse", "--family", "M", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph hasse {" and lines[-1] == "}"
    assert sum(1 for l in lines if l.endswith('";') and "->" not in l) == 21
    assert sum(1 for l in lines if "->" in l) == 32


def test_coinvariants(capsys):
    code, out, _ = run(capsys, "coinvariants", "--n", "3")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_hilbert(capsys):
    code, out, _ = run(capsys, "hilbert", "--family", "M", "--order", "5")
    assert code == 0
    assert out.strip() == "0 + 1 q + 2 q^2 + 6 q^3 + 21 q^4 + 80 q^5"
    code, out, _ = run(capsys, "hilbert", "--quotient", "--order", "5", "--json")
    assert json.loads(out) == [0, 1, 1, 3, 11, 44]
    code, _, err = run(capsys, "hilbert", "--order", "3")
    assert code == 2


def test_verify_suites_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "dimensions", "--n-max", "4")
    assert code == 0
    assert out.strip() == "suite=dimensions n_max=4 status=pass"
    code, out, _ = run(capsys, "verify", "thm3", "--n-max", "3")
    assert code == 0 and "status=pass" in out
    code, out, _ = run(capsys, "verify", "hopf-module", "--n-max", "2", "--s-max", "1")
    assert code == 0


def test_bad_inputs_exit_two(capsys):
    code, _, err = run(capsys, "map", "--op", "tau", "--input", "14")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "enumerate", "--family", "M", "--n", "0")
    assert code == 2
    code, _, err = run(capsys, "map", "--op", "phi", "--input", "((..).)")
    assert code == 2
    code, _, err = run(capsys, "product", "--family", "Y",
                       "--left", "(..", "--right", "(..)")
    assert code == 2
    # a circled key where a plain tree is expected: one-line diagnostic
    for argv in (["convert", "--family", "Y", "--from", "F", "--to", "M",
                  "--key", "{..}"],
                 ["product", "--family", "Y", "--left", "(..)", "--right", "{..}"],
                 ["product", "--family", "Y", "--left", "{..}", "--right", "(..)"],
                 ["coproduct", "--family", "Y", "--input", "{{..}.}"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "has circled nodes; expected a plain tree" in err


def test_unknown_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["map", "--op", "nosuch", "--input", "1"])
    assert exc.value.code == 2
