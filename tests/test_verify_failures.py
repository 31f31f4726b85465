"""Every ``verify`` suite's failure path, through the command line: one fault
is injected on a module attribute the suite reads, and the run must exit 1
with the summary line naming the counterexample that fault plants."""

import pytest

from multisym import algebra, cli, posets, series, trees
from multisym.algebra import TensorCombo
from multisym.series import TruncatedSeries


def assert_fails_with(capsys, argv, suite, n_max, counterexample):
    assert cli.main(["verify", *argv]) == 1
    assert capsys.readouterr().out == (
        f"suite={suite} n_max={n_max} status=fail counterexample={counterexample}\n")


def test_dimensions_reports_the_first_series_mismatch(monkeypatch, capsys):
    counts = series.counts

    def catalan_off_at_three(family, order):
        coeffs = counts(family, order).coeffs
        if family == "Y":
            coeffs = coeffs[:3] + (coeffs[3] + 1,) + coeffs[4:]
        return TruncatedSeries(coeffs)

    monkeypatch.setattr(series, "counts", catalan_off_at_three)
    assert_fails_with(capsys, ["dimensions", "--n-max", "4"], "dimensions", 4,
                      "Y size 3: enumerated 5, series 6")


def test_fibers_reports_a_size_whose_fibers_miss_a_key(monkeypatch, capsys):
    beta_fibers = trees.beta_fibers
    dropped = trees.enumerate_family("M", 3)[2]
    monkeypatch.setattr(trees, "beta_fibers", lambda n: {
        k: v for k, v in beta_fibers(n).items() if k != dropped})
    assert_fails_with(capsys, ["fibers", "--n-max", "4"], "fibers", 4, "n=3")


def test_fibers_reports_a_fiber_that_fails_certification(monkeypatch, capsys):
    # the fiber of this key is the single word 132; a reversed "minimum" is
    # not in it, so the closed-form check inside fiber_interval must fail
    target = "{{..}{..}}"
    key_word = trees._key_word

    def reversed_minimum(key, section=False):
        word = key_word(key, section)
        return word[::-1] if key == target and not section else word

    monkeypatch.setattr(trees, "_key_word", reversed_minimum)
    assert_fails_with(capsys, ["fibers", "--n-max", "4"], "fibers", 4, target)


def test_fibers_reports_a_section_word_outside_its_fiber(monkeypatch, capsys):
    target, other = "{{.(..)}.}", "{.(.(..))}"
    key_word = trees._key_word
    monkeypatch.setattr(trees, "_key_word", lambda key, section=False: key_word(
        other if section and key == target else key, section))
    assert_fails_with(capsys, ["fibers", "--n-max", "4"], "fibers", 4, target)


def test_fibers_reports_a_fiber_without_its_avoider(monkeypatch, capsys):
    key = trees.enumerate_family("M", 4)[5]
    section = trees.section_word(trees.parse_tree(key))
    avoids_pinned = trees.avoids_pinned
    monkeypatch.setattr(trees, "avoids_pinned", lambda w: w != section and avoids_pinned(w))
    assert_fails_with(capsys, ["fibers", "--n-max", "4"], "fibers", 4, key)


def test_fibers_certifies_the_table_it_partitions(monkeypatch, capsys):
    # two non-avoiding words swapped between two fibers of S_5 keep the
    # partition and each fiber's one avoider, but break both intervals
    first, second = "{{{{..}.}.}{..}}", "{{{..}.}{{..}.}}"
    low, high = trees.parse_perm("12453"), trees.parse_perm("13524")
    swap = {low: high, high: low}
    beta_fibers = trees.beta_fibers
    assert low in beta_fibers(5)[first] and high in beta_fibers(5)[second]
    monkeypatch.setattr(trees, "beta_fibers", lambda n: {
        k: tuple(swap.get(w, w) for w in v) for k, v in beta_fibers(n).items()})
    assert_fails_with(capsys, ["fibers", "--n-max", "5"], "fibers", 5, first)


def test_pinned_reports_the_word_it_misjudges(monkeypatch, capsys):
    target = (3, 1, 4, 2)
    avoids_pinned = trees.avoids_pinned
    monkeypatch.setattr(trees, "avoids_pinned", lambda w: (
        not avoids_pinned(w) if w == target else avoids_pinned(w)))
    assert_fails_with(capsys, ["pinned", "--n-max", "5"], "pinned", 5, "3142")


def test_pinned_reports_the_least_word_it_misjudges(monkeypatch, capsys):
    # 4123 is walked first, as 4 put before 123, but 1423 is the least
    targets = {(4, 1, 2, 3), (1, 4, 2, 3)}
    avoids_pinned = trees.avoids_pinned
    monkeypatch.setattr(trees, "avoids_pinned", lambda w: (
        not avoids_pinned(w) if w in targets else avoids_pinned(w)))
    assert_fails_with(capsys, ["pinned", "--n-max", "5"], "pinned", 5, "1423")


def test_galois_reports_a_tree_pair_that_is_not_adjoint(monkeypatch, capsys):
    # the bi-leveled pair is first not adjoint at size four
    tree_section_pair = posets.tree_section_pair
    monkeypatch.setattr(posets, "tree_section_pair", lambda n: (
        posets.bileveled_section_pair(n) if n == 4 else tree_section_pair(n)))
    assert_fails_with(capsys, ["galois", "--n-max", "4"], "galois", 4, "tree-pair n=4")


def test_galois_reports_a_bileveled_pair_that_stays_adjoint(monkeypatch, capsys):
    monkeypatch.setattr(posets, "bileveled_section_pair", posets.tree_section_pair)
    assert_fails_with(capsys, ["galois", "--n-max", "3"], "galois", 3, "bileveled-pair n<=4")


RETRACT_FAULTS = [
    ({"mobius_failure": "m"}, "m"),
    ({"fiber_failure": "f"}, "f"),
    ({"section_failure": "s"}, "s"),
    ({"forward_order_preserving": "fo"}, "fo"),
    ({"backward_order_preserving": "bo"}, "bo"),
    ({"source_is_lattice": False}, "lattice"),
    # the suite names the Möbius failure first, then the fiber, the section,
    # the two order clauses, and the lattice test last
    ({"source_is_lattice": False, "backward_order_preserving": "bo",
      "forward_order_preserving": "fo", "section_failure": "s",
      "fiber_failure": "f", "mobius_failure": "m"}, "m"),
    ({"source_is_lattice": False, "backward_order_preserving": "bo",
      "forward_order_preserving": "fo", "section_failure": "s"}, "s"),
]


@pytest.mark.parametrize("fault, detail", RETRACT_FAULTS)
def test_interval_retract_reports_the_first_failing_clause(monkeypatch, capsys, fault, detail):
    check = posets.check_interval_retract

    def faulty(pair):
        report = check(pair)
        assert report.passed
        if pair.target is posets.bileveled_order(3):
            return report._replace(**fault)
        return report

    monkeypatch.setattr(posets, "check_interval_retract", faulty)
    assert_fails_with(capsys, ["interval-retract", "--n-max", "4"], "interval-retract", 4,
                      f"n=3:{detail}")


def test_thm3_reports_the_key_whose_closed_form_is_off(monkeypatch, capsys):
    target = "{{..}(..)}"
    coaction_monomial = algebra.coaction_monomial

    def off_by_one_term(b):
        closed = coaction_monomial(b)
        if b != target:
            return closed
        terms = dict(closed.terms)
        terms[b, "."] += 1
        return TensorCombo("M", "Y", "M", "M", terms)

    monkeypatch.setattr(algebra, "coaction_monomial", off_by_one_term)
    assert_fails_with(capsys, ["thm3", "--n-max", "3"], "thm3", 3, target)


def test_thm3_reports_the_key_whose_transported_coaction_is_off(monkeypatch, capsys):
    # the fundamental coaction of the target loses its last cut; no key
    # before it lies below it, so its own monomial element is the first to
    # expand into it
    target = "{{..}(..)}"
    deconcatenate = algebra._deconcatenate

    def last_cut_dropped(left, right, x):
        items = deconcatenate(left, right, x)
        return items[:-1] if (left, right, x) == ("M", "Y", target) else items

    monkeypatch.setattr(algebra, "_deconcatenate", last_cut_dropped)
    assert_fails_with(capsys, ["thm3", "--n-max", "3"], "thm3", 3, target)


def test_eq8_reports_the_key_whose_fiber_lost_a_word(monkeypatch, capsys):
    fibers = trees.beta_fibers(4)
    target = [key for key in trees.enumerate_family("M", 4) if len(fibers[key]) > 1][-1]
    key_fiber = algebra._key_fiber
    monkeypatch.setattr(algebra, "_key_fiber", lambda k: (
        key_fiber(k)[1:] if k == target else key_fiber(k)))
    assert_fails_with(capsys, ["eq8", "--n-max", "4"], "eq8", 4, target)


def test_hopf_module_reports_the_pair_whose_action_is_off(monkeypatch, capsys):
    # an extra term x in b.s reaches the right-hand side only as x (x) ".",
    # through the cuts (b, ".") and (s, "."), but the left-hand side as the
    # whole coaction of x, which has a second term; every earlier pair reads
    # the action only on pairs other than (b, s)
    b, s, extra = "{{..}.}", "(..)", "{{..}.}"
    action_ysym = algebra.action_ysym

    def off_on_one_pair(m, t):
        acted = action_ysym(m, t)
        if (m, t) != (b, s):
            return acted
        return algebra.LinearCombo("M", "F", {**acted.terms, extra: 1})

    monkeypatch.setattr(algebra, "action_ysym", off_on_one_pair)
    assert_fails_with(capsys, ["hopf-module", "--n-max", "2", "--s-max", "2"],
                      "hopf-module", 2, f"{b}|{s}")
