"""Named verification suites behind the command line's ``verify``.

Each suite sweeps an exhaustively checkable range and reports a single
machine-readable summary line.  Suites never mutate shared state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import algebra, posets, series, trees


@dataclass(frozen=True)
class SuiteResult:
    name: str
    n_max: int
    passed: bool
    counterexample: str | None = None

    def summary_line(self) -> str:
        line = f"suite={self.name} n_max={self.n_max} status=" + (
            "pass" if self.passed else "fail")
        if self.counterexample is not None:
            line += f" counterexample={self.counterexample}"
        return line


def suite_dimensions(n_max: int = 6) -> SuiteResult:
    report = series.check_dimension_identities(n_max)
    bad = report.failures[0] if report.failures else None
    return SuiteResult("dimensions", n_max, report.passed, bad)


def suite_fibers(n_max: int = 6) -> SuiteResult:
    """Fibers of the bi-leveled projection partition the words, each one an
    interval whose section word is its unique pinned-pattern avoider."""
    for n in range(1, n_max + 1):
        fibers = trees.beta_fibers(n)
        total = sum(len(words) for words in fibers.values())
        if total != len(trees.enumerate_family("S", n)) or set(fibers) != set(
                trees.enumerate_family("M", n)):
            return SuiteResult("fibers", n_max, False, f"n={n}")
        for key, words in fibers.items():
            obj = trees.parse_tree(key)
            try:
                posets.fiber_interval(n, key)
            except posets.CertificationError:
                return SuiteResult("fibers", n_max, False, key)
            section = trees.render_perm(trees.section_word(obj))
            if section not in words:
                return SuiteResult("fibers", n_max, False, key)
            avoiders = [w for w in words
                        if trees.avoids_pinned(trees.parse_perm(w))]
            if avoiders != [section]:
                return SuiteResult("fibers", n_max, False, key)
    return SuiteResult("fibers", n_max, True)


def suite_pinned(n_max: int = 6) -> SuiteResult:
    """A word avoids the pinned patterns iff it is the section word of its image."""
    for n in range(1, n_max + 1):
        for word in itertools.permutations(range(1, n + 1)):
            is_section = word == trees.section_word(trees.bileveled_of_perm(word))
            if trees.avoids_pinned(word) != is_section:
                return SuiteResult("pinned", n_max, False, trees.render_perm(word))
    return SuiteResult("pinned", n_max, True)


def suite_tamari_oracle(n_max: int = 5) -> SuiteResult:
    """The rotation order agrees with the order transported through minimal
    words; minimal and maximal words preserve order; tree fibers are intervals."""
    for n in range(1, n_max + 1):
        tam, weak = posets.tamari(n), posets.weak_order(n)
        keys = tam.elements
        objs = {k: trees.parse_tree(k) for k in keys}
        min_of = {k: trees.render_perm(trees.min_word(objs[k])) for k in keys}
        max_of = {k: trees.render_perm(trees.max_word(objs[k])) for k in keys}
        for a in keys:
            for b in keys:
                if tam.leq(a, b) != weak.leq(min_of[a], min_of[b]):
                    return SuiteResult("tamari-oracle", n_max, False, f"{a}<={b}")
                if tam.leq(a, b) and not weak.leq(max_of[a], max_of[b]):
                    return SuiteResult("tamari-oracle", n_max, False, f"{a}<={b}")
        for key in keys:
            fiber = [trees.render_perm(w) for w in trees.fiber_of_tree(objs[key])]
            if weak.interval_ends(fiber) != (min_of[key], max_of[key]):
                return SuiteResult("tamari-oracle", n_max, False, key)
    return SuiteResult("tamari-oracle", n_max, True)


def suite_galois(n_max: int = 4) -> SuiteResult:
    """The tree pair is a Galois connection with the Möbius transfer identity,
    while the bi-leveled section pair admits none: its adjunction must break
    somewhere in the checked range (the first failure is at size four)."""
    for n in range(1, n_max + 1):
        report = posets.check_galois(posets.tree_section_pair(n))
        if not report.passed:
            return SuiteResult("galois", n_max, False, f"tree-pair n={n}")
    top = max(n_max, 4)
    if all(posets.check_galois(posets.bileveled_section_pair(n)).adjunction_holds
           for n in range(2, top + 1)):
        return SuiteResult("galois", n_max, False, f"bileveled-pair n<={top}")
    return SuiteResult("galois", n_max, True)


def suite_interval_retract(n_max: int = 5) -> SuiteResult:
    for n in range(1, n_max + 1):
        report = posets.check_interval_retract(posets.bileveled_section_pair(n))
        if not report.passed:
            detail = (report.mobius_failure or report.fiber_failure
                      or report.section_failure or report.forward_order_preserving
                      or report.backward_order_preserving or "lattice")
            return SuiteResult("interval-retract", n_max, False, f"n={n}:{detail}")
    return SuiteResult("interval-retract", n_max, True)


def suite_thm3(n_max: int = 5) -> SuiteResult:
    """Closed-form monomial coaction versus the transported one, everywhere."""
    for n in range(1, n_max + 1):
        for key in trees.enumerate_family("M", n):
            closed = algebra.coaction_monomial(key)
            long_way = algebra.coaction_monomial_transported(key)
            if closed.terms != long_way.terms:
                return SuiteResult("thm3", n_max, False, key)
    return SuiteResult("thm3", n_max, True)


def suite_eq8(n_max: int = 4) -> SuiteResult:
    """Fiber sums of monomial words project onto single monomial elements."""
    for n in range(1, n_max + 1):
        for key in trees.enumerate_family("M", n):
            if not algebra.check_fiber_monomial_sum(key).passed:
                return SuiteResult("eq8", n_max, False, key)
    return SuiteResult("eq8", n_max, True)


def suite_hopf_module(b_max: int = 3, s_max: int = 2) -> SuiteResult:
    for nb in range(1, b_max + 1):
        for b in trees.enumerate_family("M", nb):
            for ns in range(0, s_max + 1):
                for s in trees.enumerate_family("Y", ns):
                    if not algebra.check_hopf_module(b, s).passed:
                        return SuiteResult("hopf-module", b_max, False, f"{b}|{s}")
    return SuiteResult("hopf-module", b_max, True)


SUITES = {
    "dimensions": suite_dimensions,
    "fibers": suite_fibers,
    "pinned": suite_pinned,
    "tamari-oracle": suite_tamari_oracle,
    "galois": suite_galois,
    "interval-retract": suite_interval_retract,
    "thm3": suite_thm3,
    "eq8": suite_eq8,
    "hopf-module": suite_hopf_module,
}
