"""Byte-for-byte CLI output of every README example and of every verify
suite at its default bound.

The expected stdout and exit codes in ``golden/cli.json`` were captured from
the command line before the key, map and poset code was consolidated; a
refactor must reproduce them exactly.  To regenerate after an intended
output change, run ``PYTHONPATH=src python tests/test_golden.py``.
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
