import inspect
import json
import math
import os
import subprocess
import sys

import pytest

from multisym import algebra, cli, posets, series, trees, verify
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


@pytest.mark.parametrize("argv, family", [
    (["enumerate", "--family", "M", "--n", "4"], "M"),
    (["coinvariants", "--n", "4"], "M"),
    (["map", "--op", "beta", "--input", "2413"], "M"),
    (["map", "--op", "qsym", "--input", "{{..}(..)}"], "Q"),
], ids=" ".join)
def test_json_key_lines_are_the_plain_lines_as_json(capsys, argv, family):
    code, plain, _ = run(capsys, *argv)
    code2, out, _ = run(capsys, *argv, "--json")
    assert code == code2 == 0
    lines = out.splitlines()
    assert [json.loads(line) for line in lines] == [
        {"family": family, "key": key} for key in plain.splitlines()]
    assert lines == [json.dumps(json.loads(line), sort_keys=True) for line in lines]


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


def test_hilbert_refuses_both_a_family_and_the_quotient(capsys):
    # one of the two would be ignored
    code, out, err = run(capsys, "hilbert", "--family", "S", "--quotient", "--order", "4")
    assert (code, out) == (2, "")
    assert err == "error: hilbert takes --family or --quotient, not both\n"


@pytest.fixture
def default_digit_limit():
    """CPython's default limit of 4,300 digits for an int turned into text,
    set for the test and then put back as it was; None where there is none."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("as_json", [False, True])
def test_hilbert_prints_exact_coefficients_of_any_length(capsys, default_digit_limit, as_json):
    # 1700! has 4,755 digits; the limit is lifted only while hilbert writes
    code, out, err = run(capsys, "hilbert", "--family", "S", "--order", "1700",
                         *["--json"] * as_json)
    assert (code, err) == (0, "")
    if default_digit_limit is not None:
        assert sys.get_int_max_str_digits() == default_digit_limit
        sys.set_int_max_str_digits(0)  # to read the printed coefficients back
    printed = (json.loads(out) if as_json else
               [int(term.split()[0]) for term in out.strip().split(" + ")])
    assert printed == [math.factorial(k) for k in range(1701)]


def test_hilbert_runs_without_an_int_digit_limit(capsys, monkeypatch):
    # interpreters before CPython 3.10.7 have no limit to lift
    for name in ("get_int_max_str_digits", "set_int_max_str_digits"):
        monkeypatch.delattr(sys, name, raising=False)
    code, out, err = run(capsys, "hilbert", "--family", "S", "--order", "4", "--json")
    assert (code, out, err) == (0, "[1, 1, 2, 6, 24]\n", "")


@pytest.mark.parametrize("argv", [
    ["--family", "S", "--order", "100000"],
    ["--family", "M", "--order", "2001"],
    ["--quotient", "--order", "3000"],
], ids=" ".join)
def test_hilbert_past_its_order_limit_exits_two(capsys, monkeypatch, argv):
    def fail(*args):
        raise AssertionError("made a series past the order limit")
    monkeypatch.setattr(series, "counts", fail)
    code, out, err = run(capsys, "hilbert", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: a series is limited to order 2000, got {argv[-1]}\n"


def test_verify_suites_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "dimensions", "--n-max", "4")
    assert code == 0
    assert out.strip() == "suite=dimensions n_max=4 status=pass"
    code, out, _ = run(capsys, "verify", "thm3", "--n-max", "3")
    assert code == 0 and "status=pass" in out
    code, out, _ = run(capsys, "verify", "hopf-module", "--n-max", "2", "--s-max", "1")
    assert code == 0


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_hands_each_suite_its_bounds(capsys, monkeypatch, suite):
    # --n-max is every suite's first parameter; --s-max is hopf-module's s_max
    real, calls = verify.SUITES[suite], []

    def record(*args, **kwargs):
        calls.append(dict(inspect.signature(real).bind(*args, **kwargs).arguments))
        return verify.SuiteResult(suite, 1, True)
    monkeypatch.setitem(verify.SUITES, suite, record)
    acting = ["--s-max", "2"] if suite == "hopf-module" else []
    assert run(capsys, "verify", suite)[0] == 0
    assert run(capsys, "verify", suite, "--n-max", "3", *acting)[0] == 0
    first = next(iter(inspect.signature(real).parameters))
    assert calls == [{}, {first: 3, **({"s_max": 2} if acting else {})}]


@pytest.mark.parametrize("suite", sorted(set(verify.SUITES) - {"hopf-module"}))
def test_s_max_is_refused_outside_hopf_module(capsys, suite):
    # only hopf-module has an acting-tree bound; elsewhere it would be dropped
    code, out, err = run(capsys, "verify", suite, "--n-max", "2", "--s-max", "7")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--s-max" in err and suite in err


def test_module_entry_point_runs_the_cli():
    # ``python -m multisym`` in a fresh interpreter, with this checkout's
    # package first on the path
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "multisym", *argv],
                              env=env, capture_output=True, text=True)

    done = module("verify", "dimensions", "--n-max", "3")
    assert (done.returncode, done.stdout) == (0, "suite=dimensions n_max=3 status=pass\n")
    done = module("map", "--op", "tau", "--input", "14")
    assert done.returncode == 2 and done.stderr.startswith("error:")


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
    # no conversion to run: the key is still checked; verify bounds that
    # would check nothing are refused
    for argv in (["convert", "--family", "Y", "--from", "F", "--to", "F",
                  "--key", "{..}"],
                 ["convert", "--family", "S", "--from", "M", "--to", "M",
                  "--key", "zz"],
                 ["convert", "--family", "S", "--from", "F", "--to", "M",
                  "--key", "1,2"],
                 ["convert", "--family", "S", "--from", "F", "--to", "F",
                  "--key", "1,2"],
                 ["verify", "fibers", "--n-max", "-3"],
                 ["verify", "galois", "--n-max", "0"],
                 ["verify", "hopf-module", "--s-max", "-1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("left, right", [
    ("1", "xyz"), ("xyz", "1"), ("1", "(..)"), ("(..)", "1"), ("1", "{..")])
def test_circled_unit_checks_the_other_factor(capsys, left, right):
    code, out, err = run(capsys, "product", "--family", "M", "--left", left, "--right", right)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_circled_unit_keeps_its_products(capsys):
    assert run(capsys, "product", "--family", "M", "--left", "1", "--right", "1")[:2] == (
        0, "1\t1\n")
    for argv in (["--left", "1", "--right", "{.(..)}"], ["--left", "{.(..)}", "--right", "1"]):
        assert run(capsys, "product", "--family", "M", *argv)[:2] == (0, "1\t{.(..)}\n")


CIRCLED_LEFT_COMB_1500 = "{" * 1500 + ".." + "}" + ".}" * 1499


@pytest.mark.parametrize("op, expected", [
    ("Mm", ",".join(map(str, range(1, 1501)))),
    ("mm", ",".join(map(str, range(1, 1501)))),
    ("qsym", "(" + ",".join(["1"] * 1500) + ")"),
], ids=["Mm", "mm", "qsym"])
def test_fiber_words_of_a_circled_key_deeper_than_the_recursion_limit(capsys, op, expected):
    # the fully circled left comb is its own base, with nothing hanging: its
    # fiber words are the increasing word
    code, out, err = run(capsys, "map", "--op", op, "--input", CIRCLED_LEFT_COMB_1500)
    assert (code, out, err) == (0, expected + "\n", "")


@pytest.mark.parametrize("tree, word", [
    ("(." * 1500 + "." + ")" * 1500, range(1500, 0, -1)),
    ("(" * 1500 + ".." + ")" + ".)" * 1499, range(1, 1501)),
], ids=["right comb", "left comb"])
def test_fiber_of_a_comb_deeper_than_the_recursion_limit(capsys, tree, word):
    # a comb's node order is a chain, so its fiber is the one word that is
    # both its minimal and its maximal word
    code, out, err = run(capsys, "fiber", "--map", "tau", "--input", tree)
    w = ",".join(map(str, word))
    assert (code, out, err) == (0, f"{w}\nmin={w} max={w}\n", "")


def complete_tree(depth):
    return "." if depth == 0 else "(" + complete_tree(depth - 1) * 2 + ")"


def test_fiber_past_ten_factorial_words_exits_two(capsys, monkeypatch):
    # the complete tree on 15 nodes has 15! / (15 * 7^2 * 3^4) words, which
    # would take several GB: the count is read off the key and refused first
    def fail(*args):
        raise AssertionError("enumerated a fiber past its size guard")
    monkeypatch.setattr(trees, "_key_fiber", fail)
    code, out, err = run(capsys, "fiber", "--map", "tau", "--input", complete_tree(4))
    assert (code, out) == (2, "")
    assert err == "error: a tree fiber is limited to 3628800 words, got 21964800\n"


RIGHT_COMB_13 = "(." * 13 + "." + ")" * 13
CIRCLED_COMB_13 = "{" * 13 + "." + ".}" * 13
WORD_13 = ",".join(map(str, range(13, 0, -1)))


@pytest.mark.parametrize("argv", [
    ["product", "--family", "Y", "--left", RIGHT_COMB_13, "--right", RIGHT_COMB_13],
    ["product", "--family", "M", "--left", CIRCLED_COMB_13, "--right", CIRCLED_COMB_13],
    ["product", "--family", "S", "--left", WORD_13, "--right", WORD_13],
    ["act", "--left", CIRCLED_COMB_13, "--right", RIGHT_COMB_13],
    ["act", "--left", WORD_13, "--right", CIRCLED_COMB_13],
], ids=["product Y", "product M", "product S", "act tree", "act word"])
def test_shuffle_past_ten_factorial_terms_exits_two(capsys, monkeypatch, argv):
    # two factors on 13 letters interleave in C(26, 13) ways: the count is
    # refused before the first interleaving or graft
    def fail(*args):
        raise AssertionError("interleaved past the shuffle guard")
    monkeypatch.setattr(algebra, "_grafts", fail)
    monkeypatch.setattr(algebra, "_interleave", fail)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: a shuffle is limited to 3628800 terms, got 10400600\n"


def run_on_a_short_stack(capsys, *argv):
    """``run`` with the recursion limit 100 frames above the current depth, so
    that a routine recursing once per level of a 300-deep key overflows."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        return run(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)


LEFT_COMB_300 = "(" * 300 + ".." + ")" + ".)" * 299
CIRCLED_LEFT_COMB_300 = "{" * 300 + ".." + "}" + ".}" * 299


@pytest.mark.parametrize("argv, terms", [
    (["product", "--family", "Y", "--left", LEFT_COMB_300, "--right", "(..)"], 301),
    (["product", "--family", "Y", "--left", "(..)", "--right", LEFT_COMB_300], 301),
    (["coproduct", "--family", "Y", "--input", LEFT_COMB_300], 301),
    (["product", "--family", "M", "--left", CIRCLED_LEFT_COMB_300, "--right", "{..}"], 301),
    (["act", "--left", CIRCLED_LEFT_COMB_300, "--right", "(..)"], 300),
    (["coact", "--input", CIRCLED_LEFT_COMB_300], 300),
], ids=["product Y comb.(..)", "product Y (..).comb", "coproduct Y", "product M",
        "act", "coact"])
def test_structure_maps_of_keys_deeper_than_the_stack(capsys, argv, terms):
    # the coefficients sum to the number of shuffles or cuts
    code, out, err = run_on_a_short_stack(capsys, *argv)
    assert (code, err) == (0, "")
    assert sum(int(line.split("\t")[0]) for line in out.splitlines()) == terms


def test_tau_of_a_word_deeper_than_the_recursion_limit(capsys):
    # an increasing word puts each letter above the ones before it
    n = 1199
    code, out, err = run(capsys, "map", "--op", "tau",
                         "--input", ",".join(map(str, range(1, n + 1))))
    assert (code, err) == (0, "")
    assert out == "(" * n + "." + ".)" * n + "\n"


@pytest.mark.parametrize("op, tree, word", [
    ("min", "(" * 1500 + ".." + ")" + ".)" * 1499, range(1, 1501)),
    ("max", "(." * 1500 + "." + ")" * 1500, range(1500, 0, -1)),
], ids=["min of the left comb", "max of the right comb"])
def test_min_and_max_words_of_combs_deeper_than_the_recursion_limit(capsys, op, tree, word):
    # the left comb's minimal word and the right comb's maximal word are
    # the increasing and the decreasing word
    code, out, err = run(capsys, "map", "--op", op, "--input", tree)
    assert (code, err) == (0, "")
    assert out == ",".join(map(str, word)) + "\n"


@pytest.mark.parametrize("argv", [
    ["verify", suite, "--n-max", "9"] for suite in ("galois", "interval-retract", "eq8")
] + [
    ["mobius", "--family", "S", "--n", "9", "--x", "123456789", "--y", "987654321"],
    ["hasse", "--family", "S", "--n", "9"],
], ids=" ".join)
@pytest.mark.usefixtures("refuse_enumeration")
def test_weak_order_past_its_size_limit_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: weak order is limited to n <= 8, got n = 9\n"


@pytest.mark.parametrize("argv", [
    ["verify", suite, "--n-max", "11"] for suite in ("fibers", "tamari-oracle", "pinned")
] + [
    ["fiber", "--map", "beta", "--input", "{" * 11 + "." + ".}" * 11],
], ids=" ".join)
@pytest.mark.usefixtures("refuse_enumeration")
def test_words_past_their_enumeration_limit_exit_two(capsys, monkeypatch, argv):
    # these compare words by their inversions, with no weak-order table, so
    # only the S_11 enumeration bounds them; pinned walks every word itself,
    # and every key of a word comes from the prefix walk
    def fail(*args):
        raise AssertionError("walked a word past the size guard")
    monkeypatch.setattr(trees, "_prefix_keys", fail)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: enumeration of S is limited to n <= 10, got n = 11\n"


@pytest.mark.parametrize("argv", [
    ["verify", "fibers", "--n-max", "7"],
    ["verify", "tamari-oracle", "--n-max", "7"],
], ids=" ".join)
def test_word_suites_build_no_weak_order(capsys, monkeypatch, argv):
    def fail(*args):
        raise AssertionError("built the weak order")
    monkeypatch.setattr(posets, "weak_order", fail)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, f"suite={argv[1]} n_max=7 status=pass\n", "")


def test_tamari_oracle_maps_no_upset_into_key_positions(capsys, monkeypatch):
    # the suite compares rows in the rotation order's own index order; the
    # fault tests in test_verify.py check that it still names the first
    # failing pair in key order
    def fail(*args):
        raise AssertionError("mapped up-sets into key positions")
    monkeypatch.setattr(posets.FinitePoset, "upset_masks", fail)
    code, out, err = run(capsys, "verify", "tamari-oracle", "--n-max", "7")
    assert (code, out, err) == (0, "suite=tamari-oracle n_max=7 status=pass\n", "")


def test_word_suites_parse_and_render_no_word(capsys, monkeypatch):
    # fibers reads its words off the fiber table, which holds them as words,
    # and tamari-oracle reads its words off the keys
    def fail(*args):
        raise AssertionError("rendered or parsed a word")
    for module, name in ((posets, "render_perm"), (trees, "render_perm"),
                         (trees, "_perm_of_key")):
        monkeypatch.setattr(module, name, fail)
    for suite in ("fibers", "tamari-oracle"):
        code, out, err = run(capsys, "verify", suite, "--n-max", "7")
        assert (code, out, err) == (0, f"suite={suite} n_max=7 status=pass\n", "")


def test_beta_fiber_builds_no_weak_order(capsys, monkeypatch):
    # a fiber of six words in S_7: its least word is the closed form, and
    # lexicographic order extends the weak order, so its greatest is the last
    def fail(*args):
        raise AssertionError("built the weak order")
    monkeypatch.setattr(posets, "weak_order", fail)
    key = beta_key("3142765")
    code, out, err = run(capsys, "fiber", "--map", "beta", "--input", key)
    words = [trees.render_perm(w) for w in trees.beta_fibers(7)[key]]
    assert (code, err, len(words)) == (0, "", 6)
    lo = trees.render_perm(trees._key_word(key))
    assert out == "".join(w + "\n" for w in words) + f"min={lo} max={words[-1]}\n"


def test_beta_fiber_of_ten_letters_keeps_its_bytes(capsys, monkeypatch):
    # golden/fiber_beta_10.txt was captured while the fiber table held each
    # word as its comma-joined string; a fiber sorted as words keeps that
    # order, since all its words put 10 in one place.  The fiber is read off
    # the key's brackets, so no word of S_10 is projected
    key = "{{{{..}.}.}{{((..).)(.(..))}.}}"
    with open(os.path.join(os.path.dirname(__file__), "golden", "fiber_beta_10.txt")) as f:
        expected = f.read()

    def fail(*args):
        raise AssertionError("projected the words of S_n")
    monkeypatch.setattr(trees, "_projected", fail)
    code, out, err = run(capsys, "fiber", "--map", "beta", "--input", key)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("key", ["{..}", "{{.(..)}(..)}", "{{{{..}.}.}{{((..).)(.(..))}.}}"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_beta_fiber_is_read_once_per_command(capsys, monkeypatch, key, json_flag):
    # the words printed are the words certified: one read of the fiber serves
    # both, whichever module's binding would make it
    calls = []
    for module in (posets, trees):
        def counted(k, read=module._key_fiber):
            calls.append(k)
            return read(k)
        monkeypatch.setattr(module, "_key_fiber", counted)
    code, out, err = run(capsys, "fiber", "--map", "beta", "--input", key, *json_flag)
    assert (code, err, calls) == (0, "", [key])
    lo, hi = posets.fiber_interval(len(key) // 3, key)
    words = [trees.render_perm(w) for w in trees._key_fiber(key)]
    assert out == (json.dumps({"fiber": words, "min": lo, "max": hi}, sort_keys=True) + "\n"
                   if json_flag else "".join(w + "\n" for w in words) + f"min={lo} max={hi}\n")


CIRCLED_COMB_10 = "{" * 10 + "." + ".}" * 10


@pytest.mark.parametrize("argv", [
    ["hasse", "--family", "M", "--n", "10"],
    ["mobius", "--family", "M", "--n", "10", "--x", CIRCLED_COMB_10, "--y", CIRCLED_COMB_10],
    ["convert", "--family", "M", "--from", "F", "--to", "M", "--key", CIRCLED_COMB_10],
    ["verify", "thm3", "--n-max", "10"],
], ids=lambda argv: " ".join(argv[:5]))
@pytest.mark.usefixtures("refuse_enumeration")
def test_bileveled_order_past_its_size_limit_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: bi-leveled order is limited to n <= 9, got n = 10\n"


ENUMERATION_REFUSALS = [
    (["enumerate", "--family", "S", "--n", "11"], "S is limited to n <= 10, got n = 11"),
    (["enumerate", "--family", "Y", "--n", "15"], "Y is limited to n <= 14, got n = 15"),
    (["enumerate", "--family", "M", "--n", "13"], "M is limited to n <= 12, got n = 13"),
    (["coinvariants", "--n", "13"], "M is limited to n <= 12, got n = 13"),
    (["verify", "dimensions", "--n-max", "13"], "M is limited to n <= 12, got n = 13"),
    (["verify", "dimensions", "--n-max", "15"], "Y is limited to n <= 14, got n = 15"),
    (["verify", "hopf-module", "--n-max", "13"], "M is limited to n <= 12, got n = 13"),
    (["verify", "hopf-module", "--s-max", "15"], "Y is limited to n <= 14, got n = 15"),
]


@pytest.mark.parametrize("argv, refusal", ENUMERATION_REFUSALS,
                         ids=[" ".join(argv) for argv, _ in ENUMERATION_REFUSALS])
@pytest.mark.usefixtures("refuse_tables")
def test_enumeration_past_its_size_limit_exits_two(capsys, argv, refusal):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: enumeration of {refusal}\n"


TREE_11 = "(" * 11 + "." + ".)" * 11
TREE_13 = "(" * 13 + "." + ".)" * 13


@pytest.mark.parametrize("argv, n", [
    (["mobius", "--family", "Y", "--n", "13", "--x", TREE_13, "--y", TREE_13], 13),
    (["mobius", "--family", "Y", "--n", "11", "--x", TREE_11, "--y", TREE_11], 11),
    (["hasse", "--family", "Y", "--n", "13"], 13),
    (["hasse", "--family", "Y", "--n", "11"], 11),
    (["convert", "--family", "Y", "--from", "F", "--to", "M", "--key", TREE_13], 13),
], ids=["mobius n=13", "mobius n=11", "hasse n=13", "hasse n=11", "convert n=13"])
@pytest.mark.usefixtures("refuse_enumeration")
def test_rotation_order_past_its_size_limit_exits_two(capsys, argv, n):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: rotation order is limited to n <= 10, got n = {n}\n"


def test_unknown_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["map", "--op", "nosuch", "--input", "1"])
    assert exc.value.code == 2


def test_fiber_whose_closed_form_minimum_disagrees_exits_one(capsys, monkeypatch):
    key = beta_key("2413")
    fiber_min_word = posets.fiber_min_word
    monkeypatch.setattr(posets, "fiber_min_word", lambda b: fiber_min_word(b)[::-1])
    code, out, err = run(capsys, "fiber", "--map", "beta", "--input", key)
    assert (code, out) == (1, "")
    assert err == f"certification error: closed-form minimum disagrees on {key!r}\n"


def test_fiber_that_is_not_an_interval_exits_one(capsys, monkeypatch):
    # lexicographic order extends the weak order, so the sorted fiber keeps
    # its least and greatest word when a word between them is dropped
    fibers = trees.beta_fibers(5)
    key = next(k for k, words in fibers.items() if len(words) >= 3)
    key_fiber = posets._key_fiber
    monkeypatch.setattr(posets, "_key_fiber", lambda k: (
        key_fiber(k)[:1] + key_fiber(k)[2:] if k == key else key_fiber(k)))
    code, out, err = run(capsys, "fiber", "--map", "beta", "--input", key)
    assert (code, out) == (1, "")
    assert err == f"certification error: fiber of {key!r} is not an interval\n"
