"""The command line's exit-code contract under generated arguments: every
subcommand, fed empty, zero, negative, oversized or malformed values (or
missing ones), exits 0, 1 or 2 and raises nothing past ``main``."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from multisym import cli, trees, verify

# a value argparse's int() refuses: empty, signs alone, floats, hex, words
NOT_INTS = st.sampled_from(["", " ", "-", "+", "1.5", "1e3", "0x10", "x", "--", "٣٣٣x",
                            "9" * 5000])
# every size past each guard is refused before any work; sizes from 4 up to
# the guards are valid but slow, so they are not drawn
SMALL = st.integers(-3, 3).map(str)
OVERSIZED = st.integers(10**4, 10**40).map(str)
# (text, whether it is oversized)
INTS = st.sampled_from([SMALL, SMALL, OVERSIZED, NOT_INTS]).flatmap(
    lambda values: values.map(lambda text: (text, values is OVERSIZED)))

# keys: valid ones of up to three nodes or letters, combs far past every size
# guard, and text over the keys' alphabet (at most six letters, so a word
# that parses is small)
SMALL_KEYS = st.sampled_from([
    ".", "(..)", "((..).)", "(.(..))", "{..}", "{{..}.}", "{{..}(..)}", "{(..).}",
    "1", "12", "21", "231", "1,2", "", "()"])
COMBS = st.integers(40, 60).flatmap(lambda n: st.sampled_from([
    "(." * n + "." + ")" * n, "(" * n + "." + ".)" * n, "{" * n + "." + ".}" * n,
    ",".join(str(i) for i in range(n, 0, -1))]))
TEXT = st.text(alphabet="(){}.,0123456789 x-", max_size=6)
KEYS = st.sampled_from([SMALL_KEYS, SMALL_KEYS, COMBS, TEXT]).flatmap(lambda values: values)

# a choice is valid more often than not, so most commands get past argparse
FAMILIES = st.sampled_from(["S", "Y", "M"] * 3 + ["Q", ""])
BASES = st.sampled_from(["F", "M"] * 3 + ["G", ""])
SUITES = st.sampled_from([*verify.SUITES, "nope"])

# subcommand -> its options, each (flag, values); None is a switch
COMMANDS = {
    "enumerate": [("--family", FAMILIES), ("--n", INTS), ("--json", None)],
    "map": [("--op", st.sampled_from([*sorted(trees.MAPS), "nope"])),
            ("--input", KEYS), ("--json", None)],
    "fiber": [("--map", st.sampled_from(["tau", "beta"] * 3 + ["rho"])), ("--input", KEYS),
              ("--json", None)],
    "product": [("--family", FAMILIES), ("--left", KEYS), ("--right", KEYS), ("--json", None)],
    "coproduct": [("--family", FAMILIES), ("--input", KEYS), ("--json", None)],
    "act": [("--left", KEYS), ("--right", KEYS), ("--json", None)],
    "coact": [("--input", KEYS), ("--basis", BASES), ("--json", None)],
    "convert": [("--family", FAMILIES), ("--from", BASES), ("--to", BASES), ("--key", KEYS),
                ("--json", None)],
    "mobius": [("--family", FAMILIES), ("--n", INTS), ("--x", KEYS), ("--y", KEYS)],
    "hasse": [("--family", FAMILIES), ("--n", INTS)],
    "coinvariants": [("--n", INTS), ("--json", None)],
    "hilbert": [("--family", FAMILIES), ("--quotient", None), ("--order", INTS),
                ("--json", None)],
    "verify": [(None, SUITES), ("--n-max", INTS), ("--s-max", INTS)],
}
# an option is left out one time in ten, so required ones go missing too
PRESENT = st.sampled_from([True] * 9 + [False])


@st.composite
def argvs(draw):
    """A command line, and whether one of its numbers is oversized."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv, oversized = [command], False
    for flag, values in COMMANDS[command]:
        if not draw(PRESENT):
            continue
        if values is None:
            argv.append(flag)
            continue
        value = draw(values)
        if values is INTS:
            value, big = value
            oversized |= big
        argv += [value] if flag is None else [flag, value]
    return argv, oversized


# each call answers or refuses in milliseconds; the deadline leaves room for
# a slow host
@settings(max_examples=400, deadline=5000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_subcommand_exits_zero_one_or_two(drawn):
    argv, oversized = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing its arguments
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue() and not out.getvalue(), argv
    # a number past every size guard is refused before any work
    assert code == 2 or not oversized, argv
