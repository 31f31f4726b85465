"""Named verification suites behind the command line's ``verify``.

Each suite sweeps an exhaustively checkable range and reports a single
machine-readable summary line.  Suites never mutate shared state.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import algebra, posets, series, trees


class SuiteResult(trees._Record, namedtuple(
        "SuiteResult", "name n_max passed counterexample", defaults=(None,))):
    __slots__ = ()

    def summary_line(self) -> str:
        line = f"suite={self.name} n_max={self.n_max} status=" + (
            "pass" if self.passed else "fail")
        if self.counterexample is not None:
            line += f" counterexample={self.counterexample}"
        return line


def suite_dimensions(n_max: int = 6) -> SuiteResult:
    for family in ("Y", "M"):
        trees.check_enumeration_size(family, n_max)
    report = series.check_dimension_identities(n_max)
    bad = report.failures[0] if report.failures else None
    return SuiteResult("dimensions", n_max, report.passed, bad)


def suite_fibers(n_max: int = 6) -> SuiteResult:
    """Fibers of the bi-leveled projection partition the words, each one an
    interval whose section word is its unique pinned-pattern avoider."""
    trees.check_enumeration_size("S", n_max)
    for n in range(1, n_max + 1):
        fibers = trees.beta_fibers(n)
        keys = trees.enumerate_family("M", n)
        total = sum(len(words) for words in fibers.values())
        if total != math.factorial(n) or set(fibers) != set(keys):
            return SuiteResult("fibers", n_max, False, f"n={n}")
        for key, words in fibers.items():
            try:
                posets._fiber_interval(key, trees._key_word(key), words)
            except posets.CertificationError:
                return SuiteResult("fibers", n_max, False, key)
            # the one avoider is the section word, which is thus in the fiber
            avoiders = [w for w in words if trees.avoids_pinned(w)]
            if avoiders != [trees._key_word(key, True)]:
                return SuiteResult("fibers", n_max, False, key)
        del fibers  # so that the next size's table is built with none held
    return SuiteResult("fibers", n_max, True)


def suite_pinned(n_max: int = 6) -> SuiteResult:
    """A word avoids the pinned patterns iff it is the section word of its
    image; a failing size is named by its least misjudged word."""
    trees.check_enumeration_size("S", n_max)
    for n in range(1, n_max + 1):
        bad = min((word for word, key in trees._projected(n, True)
                   if trees.avoids_pinned(word) != (word == trees._key_word(key, True))),
                  default=None)
        if bad is not None:
            return SuiteResult("pinned", n_max, False, trees.render_perm(bad))
    return SuiteResult("pinned", n_max, True)


def suite_tamari_oracle(n_max: int = 5) -> SuiteResult:
    """The rotation order agrees with the order transported through minimal
    words; minimal and maximal words preserve order; tree fibers are intervals."""
    trees.check_enumeration_size("S", n_max)
    for n in range(1, n_max + 1):
        tam = posets.tamari(n)
        names = tam._names  # the order's own index order, which its masks use
        mins = [trees._key_word(k) for k in names]
        maxes = [trees._key_word(k, True) for k in names]
        # bit j of row i: names[i] <= names[j] in the rotation order, between
        # their minimal words, between their maximal words; a pair fails when
        # the first two differ or the first holds without the third, and the
        # first failing pair is named in key order
        up_min, up_max = posets.weak_upset_masks(mins), posets.weak_upset_masks(maxes)
        for a in tam.elements:
            i = tam.index[a]
            up = tam._up[i]
            bad = (up ^ up_min[i]) | (up & ~up_max[i])
            if bad:
                b = names[tam._first(posets._bits(bad))]
                return SuiteResult("tamari-oracle", n_max, False, f"{a}<={b}")
        for key in tam.elements:
            i = tam.index[key]
            if posets.weak_interval_ends(trees._key_fiber(key)) != (mins[i], maxes[i]):
                return SuiteResult("tamari-oracle", n_max, False, key)
    return SuiteResult("tamari-oracle", n_max, True)


def suite_galois(n_max: int = 4) -> SuiteResult:
    """The tree pair is a Galois connection with the Möbius transfer identity,
    while the bi-leveled section pair admits none: its adjunction must break
    somewhere in the checked range (the first failure is at size four)."""
    posets.check_order_size("S", n_max)
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
    posets.check_order_size("S", n_max)
    for n in range(1, n_max + 1):
        report = posets.check_interval_retract(posets.bileveled_section_pair(n))
        if not report.passed:
            detail = (report.mobius_failure or report.fiber_failure
                      or report.section_failure or report.forward_order_preserving
                      or report.backward_order_preserving or "lattice")
            return SuiteResult("interval-retract", n_max, False, f"n={n}:{detail}")
    return SuiteResult("interval-retract", n_max, True)


def suite_thm3(n_max: int = 5) -> SuiteResult:
    """Closed-form monomial coaction versus the transported one, everywhere, in
    the fundamental basis (zeta (x) zeta is invertible): at most n terms to expand."""
    posets.check_order_size("M", n_max)  # the transport builds the order of M_n
    for n in range(1, n_max + 1):
        for key in trees.enumerate_family("M", n):
            closed = algebra.tensor_basis(algebra.coaction_monomial(key), "F")
            long_way = algebra._coaction_of(
                algebra.from_monomial(algebra.LinearCombo("M", "M", {key: 1})))
            if closed.terms != long_way.terms:
                return SuiteResult("thm3", n_max, False, key)
    return SuiteResult("thm3", n_max, True)


def suite_eq8(n_max: int = 4) -> SuiteResult:
    """Fiber sums of monomial words project onto single monomial elements."""
    posets.check_order_size("S", n_max)
    for n in range(1, n_max + 1):
        for key in trees.enumerate_family("M", n):
            if not algebra.check_fiber_monomial_sum(key).passed:
                return SuiteResult("eq8", n_max, False, key)
    return SuiteResult("eq8", n_max, True)


def suite_hopf_module(b_max: int = 3, s_max: int = 2) -> SuiteResult:
    trees.check_enumeration_size("M", b_max)
    trees.check_enumeration_size("Y", s_max)
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
