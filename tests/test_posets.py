import itertools

import pytest
from hypothesis import given, strategies as st

from multisym import posets, trees
from multisym.posets import (
    FinitePoset,
    IncomparableError,
    PosetMapPair,
    bileveled_order,
    bileveled_section_pair,
    check_galois,
    check_interval_retract,
    fiber_interval,
    tamari,
    tree_section_pair,
    weak_order,
)
from multisym.trees import (
    bileveled_of_perm,
    enumerate_family,
    fiber_of_tree,
    max_word,
    min_word,
    parse_perm,
    parse_tree,
    render,
    render_perm,
    strip_circles,
)


def inversions(word):
    return sum(1 for i, j in itertools.combinations(range(len(word)), 2)
               if word[i] > word[j])


# --- the generic engine -----------------------------------------------------

def test_chain_mobius():
    chain = FinitePoset(["a", "b", "c"], {("a", "b"), ("b", "c")})
    assert chain.mobius("a", "a") == 1
    assert chain.mobius("a", "b") == -1
    assert chain.mobius("a", "c") == 0
    with pytest.raises(IncomparableError):
        chain.mobius("c", "a")


def test_poset_construction_errors():
    with pytest.raises(ValueError):
        FinitePoset(["a", "a"], set())
    with pytest.raises(ValueError):
        FinitePoset(["a", "b"], {("a", "b"), ("b", "a")})
    with pytest.raises(ValueError):
        FinitePoset(["a"], {("a", "a")})
    with pytest.raises(ValueError):
        FinitePoset(["a"], {("a", "b")})


def test_interval_endpoints():
    P = weak_order(3)
    assert P.interval("123", "123") == ["123"]
    with pytest.raises(IncomparableError):
        P.interval("132", "213")


def interval_ends_reference(P, members):
    # all-pairs least/greatest scan, then compare with the interval they span
    members = sorted(members)
    lo = [w for w in members if all(P.leq(w, v) for v in members)]
    hi = [w for w in members if all(P.leq(v, w) for v in members)]
    if len(lo) != 1 or len(hi) != 1 or P.interval(lo[0], hi[0]) != members:
        return None
    return lo[0], hi[0]


@st.composite
def member_sets(draw):
    # an interval of an order on size four, possibly with a few elements
    # toggled (non-convex sets, lost or extra extremes), or an arbitrary subset
    P = draw(st.sampled_from([weak_order(4), tamari(4), bileveled_order(4)]))
    elements = st.sampled_from(P.elements)
    if draw(st.booleans()):
        return P, draw(st.sets(elements))
    x = draw(elements)
    y = draw(st.sampled_from(P.upset(x)))
    return P, set(P.interval(x, y)) ^ draw(st.sets(elements, max_size=3))


@given(member_sets())
def test_interval_ends_matches_pairwise_scan(case):
    P, members = case
    assert P.interval_ends(members) == interval_ends_reference(P, members)


def test_interval_ends_examples():
    P = weak_order(3)
    assert P.interval_ends(P.elements) == ("123", "321")
    assert P.interval_ends(["132"]) == ("132", "132")
    assert P.interval_ends(["123", "321"]) is None  # least and greatest, not convex
    assert P.interval_ends(["132", "213"]) is None  # neither least nor greatest
    assert P.interval_ends(["123", "132", "213"]) is None  # no greatest
    assert P.interval_ends([]) is None


def test_mobius_sum_telescopes():
    # the defining recursion, re-checked bottom up on two of the built posets
    for P in (weak_order(4), bileveled_order(3)):
        for x in P.elements:
            for y in P.upset(x):
                total = sum(P.mobius(x, z) for z in P.interval(x, y))
                assert total == (1 if x == y else 0)


# --- weak order -------------------------------------------------------------

def test_weak_order_covers_example():
    P = weak_order(3)
    assert [b for a, b in P.cover_pairs() if a == "132"] == ["231"]


def test_weak_order_hexagon():
    P = weak_order(3)
    assert len(P) == 6
    chains = [["123", "132", "231", "321"], ["123", "213", "312", "321"]]
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            assert (a, b) in P.covers
    assert len(P.cover_pairs()) == 6


def test_weak_order_rank_and_extremes():
    for n in (2, 3, 4):
        P = weak_order(n)
        assert P.minimum() == render_perm(tuple(range(1, n + 1)))
        assert P.maximum() == render_perm(tuple(range(n, 0, -1)))
        for a, b in P.cover_pairs():
            assert inversions(parse_perm(b)) == inversions(parse_perm(a)) + 1


def test_weak_order_mobius_values():
    P = weak_order(3)
    assert P.mobius("123", "321") == 1
    assert P.mobius("123", "231") == 0


def test_weak_order_is_lattice():
    for n in (2, 3, 4, 5):
        assert weak_order(n).is_lattice()


def test_tree_fibers_are_weak_intervals():
    for n in range(1, 5):
        P = weak_order(n)
        for key in enumerate_family("Y", n):
            t = parse_tree(key)
            fiber = sorted(render_perm(w) for w in fiber_of_tree(t))
            lo, hi = render_perm(min_word(t)), render_perm(max_word(t))
            assert P.interval(lo, hi) == fiber
    assert weak_order(4).interval("1423", "3412") == ["1423", "2413", "3412"]


# --- rotation order ---------------------------------------------------------

def test_rotation_cover_on_two_nodes():
    assert tamari(2).cover_pairs() == [("((..).)", "(.(..))")]


def test_rotation_pentagon():
    P = tamari(3)
    assert len(P) == 5
    assert len(P.cover_pairs()) == 5


def test_rotation_extremes():
    for n in (2, 3, 4):
        P = tamari(n)
        assert P.minimum() == render(trees.left_comb(n))
        assert P.maximum() == render(trees.right_comb(n))


def test_rotation_order_matches_transport_through_min_words():
    for n in range(1, 5):
        T, W = tamari(n), weak_order(n)
        keys = T.elements
        min_of = {k: render_perm(min_word(parse_tree(k))) for k in keys}
        max_of = {k: render_perm(max_word(parse_tree(k))) for k in keys}
        for a in keys:
            for b in keys:
                assert T.leq(a, b) == W.leq(min_of[a], min_of[b])
                if T.leq(a, b):
                    assert W.leq(max_of[a], max_of[b])


# --- bi-leveled order -------------------------------------------------------

def test_bileveled_chain_on_two_nodes():
    assert bileveled_order(2).cover_pairs() == [("{{..}.}", "{.(..)}")]


def test_bileveled_extremes_on_four_nodes():
    P = bileveled_order(4)
    assert len(P) == 21
    assert P.minimum() == render(bileveled_of_perm((1, 2, 3, 4)))
    assert P.maximum() == render(bileveled_of_perm((4, 3, 2, 1)))


def test_projections_are_order_preserving():
    for n in (2, 3, 4):
        W, M, T = weak_order(n), bileveled_order(n), tamari(n)
        for a, b in W.cover_pairs():
            assert M.leq(render(bileveled_of_perm(parse_perm(a))),
                         render(bileveled_of_perm(parse_perm(b))))
        for a, b in M.cover_pairs():
            assert T.leq(render(strip_circles(parse_tree(a))),
                         render(strip_circles(parse_tree(b))))


# --- fibers as intervals ----------------------------------------------------

def test_fiber_interval_examples():
    assert fiber_interval(4, "{{.(..)}(..)}") == ("3142", "3241")
    singleton = render(bileveled_of_perm(parse_perm("2413")))
    assert fiber_interval(4, singleton) == ("2413", "2413")


def test_fiber_sizes_partition_words():
    import math
    for n in range(1, 6):
        total = sum(len(words) for words in trees.beta_fibers(n).values())
        assert total == math.factorial(n)


def test_fiber_interval_rejects_unknown_keys():
    with pytest.raises(ValueError):
        fiber_interval(3, "{{..}.}")  # a size-2 key queried at size 3


# --- map pairs and certificates ----------------------------------------------

def test_pair_requires_total_maps():
    P = weak_order(2)
    with pytest.raises(ValueError):
        PosetMapPair(P, P, {"12": "12"}, {"12": "12", "21": "21"})


def test_identity_pair_passes_both_checks():
    P = weak_order(3)
    identity = {x: x for x in P.elements}
    pair = PosetMapPair(P, P, identity, identity)
    assert check_galois(pair).passed
    assert check_interval_retract(pair).passed


def test_tree_pair_is_a_galois_connection():
    for n in (1, 2, 3, 4):
        report = check_galois(tree_section_pair(n))
        assert report.adjunction_holds
        assert report.passed


def test_bileveled_pair_adjunction_holds_through_three_fails_at_four():
    # no Galois connection exists for the family: the first failure is at
    # size four; for n <= 3, |M_n| = n!, so beta is a bijection and the
    # adjunction reduces to order isomorphism
    for n in (2, 3):
        assert check_galois(bileveled_section_pair(n)).adjunction_holds
    report = check_galois(bileveled_section_pair(4))
    assert not report.adjunction_holds
    assert "1342" in report.adjunction_failure


def test_bileveled_pair_is_an_interval_retract():
    for n in (1, 2, 3, 4):
        report = check_interval_retract(bileveled_section_pair(n))
        assert report.clauses_hold
        assert report.mobius_failure is None
        assert report.passed


def test_broken_backward_map_fails_the_retract_clause():
    pair = bileveled_section_pair(3)
    keys = pair.target.elements
    swapped = dict(pair.backward)
    swapped[keys[0]], swapped[keys[1]] = swapped[keys[1]], swapped[keys[0]]
    report = check_interval_retract(
        PosetMapPair(pair.source, pair.target, pair.forward, swapped))
    assert report.section_failure is not None
    assert not report.passed


# --- DOT export ---------------------------------------------------------------

def test_dot_export_golden():
    dot = bileveled_order(2).to_dot()
    assert dot == (
        "digraph hasse {\n"
        '  "{.(..)}";\n'
        '  "{{..}.}";\n'
        '  "{{..}.}" -> "{.(..)}";\n'
        "}\n"
    )


def test_dot_export_is_deterministic():
    assert weak_order(3).to_dot() == weak_order(3).to_dot()
    lines = tamari(3).to_dot().splitlines()
    assert lines[0] == "digraph hasse {"
    assert sum(1 for line in lines if "->" in line) == 5
