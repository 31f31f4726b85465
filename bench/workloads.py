"""The benchmark's workloads, the seeded point-query batch and the checks
that judge every answer.

Three workloads run fixed ``multisym verify`` suites through the command
line's ``main``; ``point-queries`` calls the library API on a batch of keys
drawn from a seed.  Inputs are built here without the package, and every
point answer is checked by an identity whose expected side the benchmark
computes itself (see ``check_query``).
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time

# workload -> suite invocations, each (verify argv, expected stdout line)
SUITES = {
    # poset queries on orders that are already built: is_lattice, Möbius,
    # the order-preserving and adjunction loops
    "certify": [
        (["galois", "--n-max", "6"], "suite=galois n_max=6 status=pass"),
        (["interval-retract", "--n-max", "6"], "suite=interval-retract n_max=6 status=pass"),
    ],
    # string-keyed algebra: splittings, grafting, parse/render, coaction, products
    "coalgebra": [
        (["thm3", "--n-max", "6"], "suite=thm3 n_max=6 status=pass"),
        (["hopf-module", "--n-max", "4", "--s-max", "3"], "suite=hopf-module n_max=4 status=pass"),
    ],
    # enumeration, the projections and poset construction
    "sweep": [
        (["fibers", "--n-max", "7"], "suite=fibers n_max=7 status=pass"),
        (["tamari-oracle", "--n-max", "7"], "suite=tamari-oracle n_max=7 status=pass"),
        (["dimensions", "--n-max", "8"], "suite=dimensions n_max=8 status=pass"),
    ],
}
WORKLOADS = (*SUITES, "point-queries")

# point-query batch: kind -> probes per size class.  Every size class gets
# the same number of probes whatever the seed, so batches cost about the same
# for every seed; only the keys are random.
QUERY_MIX = {
    "section": 170,  # word sizes 8-14
    "coaction": 115,  # key sizes 8-14
    "coaction_monomial": 115,  # key sizes 8-14
    "product_fund": 16,  # left sizes 3-6 x right sizes 1-4
    "product_msym": 16,  # left sizes 3-6 x right sizes 1-4
    "basis": 40,  # families S, Y, M x sizes 2-6
}
LARGE = range(8, 15)
PRODUCT_SIZES = [(n, p) for n in range(3, 7) for p in range(1, 5)]
BASIS_CLASSES = [(family, n) for family in "SYM" for n in range(2, 7)]


# ---------------------------------------------------------------------------
# exhaustive workloads


def run_suites(main, suites) -> list[tuple[int | None, str, str | None]]:
    """Call ``main(["verify", ...])`` for each suite; return (exit code, stdout,
    error) per suite.  An exception is recorded, not raised."""
    outputs = []
    for argv, _ in suites:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = main(["verify", *argv])
        except Exception as exc:
            outputs.append((None, out.getvalue(), repr(exc)))
        else:
            outputs.append((code, out.getvalue(), None))
    return outputs


def check_suites(suites, outputs) -> list[str]:
    """One message per suite whose exit code or stdout line is not the expected pass."""
    bad = []
    for (argv, expected), (code, text, error) in zip(suites, outputs):
        if error is not None or code != 0 or text != expected + "\n":
            bad.append(f"{' '.join(argv)}: code={code} stdout={text!r} error={error}")
    return bad


# ---------------------------------------------------------------------------
# point queries: inputs


def _word(rng: random.Random, n: int) -> tuple[int, ...]:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word)


def _tree_key(word: tuple[int, ...], circle_from: int | None = None) -> str:
    """Canonical key of the decreasing tree of ``word`` (largest letter at the
    root); nodes whose letter is >= ``circle_from`` are circled."""
    if not word:
        return "."
    i = word.index(max(word))
    inner = _tree_key(word[:i], circle_from) + _tree_key(word[i + 1:], circle_from)
    circled = circle_from is not None and word[i] >= circle_from
    return "{%s}" % inner if circled else "(%s)" % inner


def _circled_key(rng: random.Random, n: int) -> str:
    word = _word(rng, n)
    return _tree_key(word, word[0])


def make_queries(seed: int) -> list[tuple]:
    """The point-query batch for ``seed``: a shuffled list of (kind, *inputs)."""
    rng = random.Random(seed)
    probes = []
    for n in LARGE:
        for _ in range(QUERY_MIX["section"]):
            probes.append(("section", _word(rng, n)))
        for kind in ("coaction", "coaction_monomial"):
            for _ in range(QUERY_MIX[kind]):
                probes.append((kind, _circled_key(rng, n)))
    for n, p in PRODUCT_SIZES:
        for _ in range(QUERY_MIX["product_fund"]):
            probes.append(("product_fund", _tree_key(_word(rng, n)), _tree_key(_word(rng, p))))
        for _ in range(QUERY_MIX["product_msym"]):
            probes.append(("product_msym", _circled_key(rng, n), _circled_key(rng, p)))
    for family, n in BASIS_CLASSES:
        for _ in range(QUERY_MIX["basis"]):
            word = _word(rng, n)
            key = ("".join(map(str, word)) if family == "S" else
                   _tree_key(word) if family == "Y" else _tree_key(word, word[0]))
            probes.append(("basis", family, key))
    rng.shuffle(probes)
    return probes


# ---------------------------------------------------------------------------
# point queries: calls and checks


def _calls(api, probe):
    """The API calls of one probe, in order; each takes the previous answer."""
    kind = probe[0]
    if kind == "section":
        return [lambda _: api.bileveled_of_perm(probe[1]), api.section_word]
    if kind == "coaction":
        return [lambda _: api.coaction(probe[1])]
    if kind == "coaction_monomial":
        return [lambda _: api.coaction_monomial(probe[1])]
    if kind == "product_fund":
        return [lambda _: api.product_fund("Y", probe[1], probe[2])]
    if kind == "product_msym":
        return [lambda _: api.product_msym(probe[1], probe[2])]
    if kind == "basis":
        return [lambda _: api.to_monomial(api.LinearCombo(probe[1], "F", {probe[2]: 1})),
                api.from_monomial]
    raise ValueError(f"unknown query kind {kind!r}")


def run_queries(api, probes):
    """Run every probe; return (the answers of each probe's calls, latency of
    every call in seconds).  A probe whose call raises gets the exception in
    place of its answers."""
    answers, latencies = [], []
    clock = time.perf_counter
    for probe in probes:
        got, answer = [], None
        try:
            for call in _calls(api, probe):
                start = clock()
                answer = call(answer)
                latencies.append(clock() - start)
                got.append(answer)
        except Exception as exc:
            got = exc
        answers.append(got)
    return answers, latencies


def _node(key: str, i: int):
    """Parse the subtree of ``key`` starting at ``i`` into (circled, left,
    right), or None for a leaf; return it with the index after it."""
    if key[i] == ".":
        return None, i + 1
    left, j = _node(key, i + 1)
    right, j = _node(key, j)
    return (key[i] == "{", left, right), j + 1


def _has_circle(t) -> bool:
    return t is not None and (t[0] or _has_circle(t[1]) or _has_circle(t[2]))


def _right_cut_count(key: str) -> int:
    """1 + the number of proper right-spine subtrees of ``key`` without a
    circled node: the number of right cuts."""
    count, t = 1, _node(key, 0)[0][2]
    while t is not None:
        count += not _has_circle(t)
        t = t[2]
    return count


def _size(key: str) -> int:
    return key.count("(") + key.count("{")


def _regraft(left: str, right: str) -> str:
    """Put ``right`` in place of the rightmost leaf of ``left``."""
    i = left.rindex(".")
    return left[:i] + right + left[i + 1:]


def check_query(api, probe, answers) -> bool:
    """True iff the answers of ``probe`` satisfy its identity."""
    if isinstance(answers, Exception):
        return False
    kind, answer = probe[0], answers[-1]
    if kind == "section":
        word, b = probe[1], answers[0]
        return (api.render(b) == _tree_key(word, word[0])
                and sorted(answer) == list(range(1, len(word) + 1))
                and api.bileveled_of_perm(answer) == b)
    terms = answer.terms
    if kind == "coaction":
        return sum(terms.values()) == _size(probe[1])
    if kind == "coaction_monomial":
        key = probe[1]
        return (all(_regraft(left, right) == key for left, right in terms)
                and set(terms.values()) == {1}
                and len(terms) == _right_cut_count(key))
    if kind in ("product_fund", "product_msym"):
        n, p = _size(probe[1]), _size(probe[2])
        return sum(terms.values()) == math.comb(n + p, p)
    if kind == "basis":
        return answer.basis == "F" and terms == {probe[2]: 1}
    raise ValueError(f"unknown query kind {kind!r}")
