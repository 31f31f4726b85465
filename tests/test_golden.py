"""Byte-for-byte CLI output of every README example and of every verify
suite at its default bound.

The expected stdout and exit codes in ``golden/cli.json`` were captured from
the command line before the key, map and poset code was consolidated, and
each later group before the change it guards: the two size-six certificate
runs before the certificates moved to bitmasks, the three ``hasse`` cases
before ``FinitePoset`` reduced the relation it is given, the next five
before the algebra's structure maps were memoised, the five after them
before circled trees were enumerated without rejection, the nine after them
before the fiber words, right cuts and basis conversions were each written
once, the six after them before cutting, grafting and the structure maps
moved to fiber words, the seven after them before words were projected
straight to tree and circled keys, with no tree objects built, the eight
after them before the poset indices moved to a linear extension and the
Möbius rows to the crosscut theorem, the one after them before an
enumeration's lines were written in one piece, and the last five, the tree
fiber and the maps no other case runs, before the right cuts were read off
keys.  A refactor must reproduce them exactly.  To regenerate after an
intended output change, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os

import pytest

from multisym import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json")

COMMANDS = [
    # README "Command line", in order; the nested map call is spelled out
    ["enumerate", "--family", "M", "--n", "4"],
    ["map", "--op", "beta", "--input", "56187243"],
    ["map", "--op", "Mm", "--input", "{{{..}(..)}{.((..)(..))}}"],
    ["fiber", "--map", "beta", "--input", "{{.(..)}(..)}"],
    ["product", "--family", "Y", "--left", "(..)", "--right", "(..)"],
    ["coproduct", "--family", "S", "--input", "3142"],
    ["act", "--left", "21", "--right", "{.(..)}"],
    ["coact", "--input", "{{.(..)}(..)}", "--basis", "M"],
    ["convert", "--family", "M", "--from", "M", "--to", "F", "--key", "{{..}.}"],
    ["mobius", "--family", "S", "--n", "3", "--x", "123", "--y", "321"],
    ["hasse", "--family", "M", "--n", "4"],
    ["coinvariants", "--n", "5"],
    ["hilbert", "--family", "M", "--order", "6"],
    ["hilbert", "--quotient", "--order", "5"],
    ["verify", "fibers", "--n-max", "6"],
    # every suite at its default bound
    ["verify", "dimensions"],
    ["verify", "fibers"],
    ["verify", "pinned"],
    ["verify", "tamari-oracle"],
    ["verify", "galois"],
    ["verify", "interval-retract"],
    ["verify", "thm3"],
    ["verify", "eq8"],
    ["verify", "hopf-module"],
    # the poset certificates at the sizes the benchmark's certify workload runs
    ["verify", "galois", "--n-max", "6"],
    ["verify", "interval-retract", "--n-max", "6"],
    # the cover diagram of each order beyond the README's
    ["hasse", "--family", "S", "--n", "4"],
    ["hasse", "--family", "Y", "--n", "5"],
    ["hasse", "--family", "M", "--n", "5"],
    # the coalgebra workload's suites and single structure-map calls, which
    # the algebra's memo must leave unchanged
    ["verify", "thm3", "--n-max", "6"],
    ["verify", "hopf-module", "--n-max", "4", "--s-max", "3"],
    ["coact", "--input", "{{.(..)}{.(.(..))}}", "--basis", "F"],
    ["coact", "--input", "{{.(..)}{.(.(..))}}", "--basis", "M"],
    ["act", "--left", "{{..}{.(..)}}", "--right", "((..)(..))"],
    # the sweep workload's suites, and the key order of M_7 they rely on
    ["enumerate", "--family", "M", "--n", "7"],
    ["coinvariants", "--n", "7"],
    ["verify", "fibers", "--n-max", "7"],
    ["verify", "tamari-oracle", "--n-max", "7"],
    ["verify", "dimensions", "--n-max", "8"],
    # the fiber words, right cuts and basis conversions on larger keys
    ["map", "--op", "mm", "--input", "{{{{..}(..)}{{(..)(..)}{(..).}}}{..}}"],
    ["map", "--op", "Mm", "--input", "{{{{..}(..)}{{(..)(..)}{(..).}}}{..}}"],
    ["map", "--op", "min", "--input", "((((..)(..))(((..)(..))((..).)))(..))"],
    ["map", "--op", "max", "--input", "((((..)(..))(((..)(..))((..).)))(..))"],
    ["coact", "--input", "{{..}{(..)(.(.(..)))}}", "--basis", "M"],
    ["convert", "--family", "S", "--from", "F", "--to", "M", "--key", "1324"],
    ["convert", "--family", "S", "--from", "M", "--to", "F", "--key", "1324"],
    ["convert", "--family", "M", "--from", "F", "--to", "M", "--key", "{{{..}{..}}(..)}"],
    ["convert", "--family", "M", "--from", "M", "--to", "F", "--key", "{{{..}{..}}(..)}"],
    # the products, coproducts, action, coaction and composition map, which
    # work on fiber words
    ["product", "--family", "S", "--left", "2413", "--right", "3142"],
    ["product", "--family", "M", "--left", "{{.(..)}(..)}", "--right", "{{..}{.(..)}}"],
    ["coproduct", "--family", "Y", "--input", "(((.(..))(.((..).)))((..).))"],
    ["map", "--op", "qsym", "--input", "{{{{..}(.(..))}(..)}{(..).}}"],
    ["act", "--left", "231", "--right", "{{.(..)}(..)}"],
    ["coact", "--input", "{{.((..)(..))}{(..)((..).)}}", "--basis", "F"],
    # every word projected straight to a tree or circled key
    ["product", "--family", "Y", "--left", "(((..)(..))((..).))", "--right", "((..)((..).))"],
    ["product", "--family", "M", "--left", "{{..}{{.(..)}{..}}}", "--right", "{{..}{(..).}}"],
    ["act", "--left", "42513", "--right", "{{.(..)}{..}}"],
    ["coact", "--input", "{{{..}{(..).}}{{(..)(..)}{..}}}", "--basis", "F"],
    ["fiber", "--map", "beta", "--input", "{{.(..)}{(..)(..)}}"],
    ["map", "--op", "tau", "--input", "7,12,3,9,1,11,5,2,10,4,8,6"],
    ["map", "--op", "beta", "--input", "7,12,3,9,1,11,5,2,10,4,8,6"],
    # Möbius values and rows of the rotation and bi-leveled orders, whose
    # internal indices follow a linear extension rather than the key order
    ["mobius", "--family", "Y", "--n", "5", "--x", "(((((..).).).).)", "--y", "(.(.(.(.(..)))))"],
    ["mobius", "--family", "Y", "--n", "5", "--x", "(((((..).).).).)", "--y", "((.(.(.(..)))).)"],
    ["mobius", "--family", "M", "--n", "5", "--x", "{{{{{..}.}.}.}.}", "--y", "{.(.(.(.(..))))}"],
    ["mobius", "--family", "M", "--n", "5", "--x", "{{..}{{{..}.}.}}", "--y", "{{..}(.(.(..)))}"],
    ["convert", "--family", "Y", "--from", "M", "--to", "F", "--key", "((((.(..)).).).)"],
    ["convert", "--family", "Y", "--from", "M", "--to", "F", "--key", "((((((..).).).).).)"],
    ["convert", "--family", "M", "--from", "M", "--to", "F", "--key", "{{{{..}.}.}{..}}"],
    ["convert", "--family", "M", "--from", "M", "--to", "F", "--key", "{{{{{{..}.}.}.}.}.}"],
    # the machine form of an enumeration, which is written in one piece
    ["enumerate", "--family", "Y", "--n", "4", "--json"],
    # the tree fiber and the maps no case above runs
    ["fiber", "--map", "tau", "--input", "((..)((..).))"],
    ["fiber", "--map", "tau", "--input", "((..)((..).))", "--json"],
    ["map", "--op", "phi", "--input", "{{.(..)}(..)}"],
    ["map", "--op", "gammaL", "--input", "((..)((..).))"],
    ["map", "--op", "gammaR", "--input", "((..)((..).))"],
]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_is_unchanged(argv):
    with open(GOLDEN) as f:
        case = next(c for c in json.load(f) if c["argv"] == argv)
    code, stdout = run(argv)
    assert (code, stdout) == (case["exit"], case["stdout"])


if __name__ == "__main__":
    cases = []
    for argv in COMMANDS:
        code, stdout = run(argv)
        cases.append({"argv": argv, "exit": code, "stdout": stdout})
    with open(GOLDEN, "w") as f:
        json.dump(cases, f, indent=1)
        f.write("\n")
