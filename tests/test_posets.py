import copy
import functools
import itertools
import pickle
import random

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
    poset_for,
    tamari,
    tree_section_pair,
    weak_order,
)
from multisym.trees import (
    ValidityError,
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


def position_inversions(word):
    return {(i, j) for i, j in itertools.combinations(range(len(word)), 2)
            if word[i] > word[j]}


def inversions(word):
    return len(position_inversions(word))


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


# --- lattice test and Möbius values against oracles of their own ------------

def closure(elements, covers):
    # reflexive-transitive closure by Warshall's algorithm, as a set of pairs
    leq = {(x, x) for x in elements} | set(covers)
    for k in elements:
        for i in elements:
            for j in elements:
                if (i, k) in leq and (k, j) in leq:
                    leq.add((i, j))
    return leq


def lattice_reference(elements, leq):
    # every pair has a greatest common lower bound and a least common upper bound
    def has_extreme(bounds, below):
        return any(all(below(c, g) for c in bounds) for g in bounds)
    for x in elements:
        for y in elements:
            lower = [c for c in elements if (c, x) in leq and (c, y) in leq]
            upper = [c for c in elements if (x, c) in leq and (y, c) in leq]
            if not has_extreme(lower, lambda c, g: (c, g) in leq):
                return False
            if not has_extreme(upper, lambda c, g: (g, c) in leq):
                return False
    return True


def zeta_inverse(elements, leq):
    # solve Z M = I by back substitution, Z upper unitriangular once the
    # elements are listed along a linear extension (by the size of down-sets)
    order = sorted(elements, key=lambda x: sum((c, x) in leq for c in elements))
    n = len(order)
    zeta = [[int((order[i], order[j]) in leq) for j in range(n)] for i in range(n)]
    inv = [[0] * n for _ in range(n)]
    for i in reversed(range(n)):
        for j in range(n):
            inv[i][j] = int(i == j) - sum(zeta[i][k] * inv[k][j]
                                          for k in range(i + 1, n))
    return {(order[i], order[j]): inv[i][j] for i in range(n) for j in range(n)}


def reduction(elements, leq):
    # the pairs x < y with no z strictly between them, sorted
    strict = {(x, y) for x, y in leq if x != y}
    return sorted((x, y) for x, y in strict
                  if not any((x, z) in strict and (z, y) in strict for z in elements))


def assert_matches_oracles(P, relation):
    leq = closure(P.elements, relation)
    assert P.cover_pairs() == reduction(P.elements, leq)
    for x in P.elements:
        assert P.upset(x) == [y for y in P.elements if (x, y) in leq]
    assert P.is_lattice() == lattice_reference(P.elements, leq)
    inverse = zeta_inverse(P.elements, leq)
    for x in P.elements:
        for y in P.elements:
            assert P.leq(x, y) == ((x, y) in leq)
            if (x, y) in leq:
                assert P.mobius(x, y) == inverse[x, y]
            else:
                assert inverse[x, y] == 0
                with pytest.raises(IncomparableError):
                    P.mobius(x, y)
                with pytest.raises(IncomparableError):
                    P.interval(x, y)
    ups = {x: {y for y in P.elements if (x, y) in leq} for x in P.elements}
    downs = {y: {x for x in P.elements if (x, y) in leq} for y in P.elements}
    everything = set(P.elements)
    assert P.minimum() == next((x for x in P.elements if ups[x] == everything), None)
    assert P.maximum() == next((y for y in P.elements if downs[y] == everything), None)
    coefs = {x: (-1) ** i * (i % 3 + 1) for i, x in enumerate(P.elements)}
    sums = {y: sum(c for x, c in coefs.items() if (x, y) in leq) for y in P.elements}
    assert P.zeta(coefs) == {y: c for y, c in sums.items() if c}
    for x in P.elements:
        assert P.zeta({x: 1}) == dict.fromkeys(ups[x], 1)

    def ends(members):
        least = [x for x in members if members <= ups[x]]
        greatest = [y for y in members if members <= downs[y]]
        if len(least) == len(greatest) == 1 and ups[least[0]] & downs[greatest[0]] == members:
            return least[0], greatest[0]
        return None
    # every interval, and every interval with one element of P toggled
    for x in P.elements:
        for y in ups[x]:
            members = ups[x] & downs[y]
            assert P.interval(x, y) == sorted(members)
            assert P.interval_ends(members) == (x, y)
            for z in P.elements:
                assert P.interval_ends(members ^ {z}) == ends(members ^ {z})


@st.composite
def dag_posets(draw):
    # a random DAG on up to seven elements (edges point up the alphabet, so
    # the relation is often not transitively reduced), with a bottom and a top
    # adjoined to every element or not; yields the poset and its relation
    n = draw(st.integers(1, 7))
    names = "abcdefg"[:n]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    elements = list(names)
    if draw(st.booleans()):
        elements.append("0")
        covers |= {("0", x) for x in names}
    if draw(st.booleans()):
        elements.append("z")
        covers |= {(x, "z") for x in names}
    return FinitePoset(elements, covers), covers


@given(dag_posets())
def test_lattice_and_mobius_match_oracles_on_random_posets(case):
    assert_matches_oracles(*case)


BOWTIE = ("0abcdz", {("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
                     ("b", "c"), ("b", "d"), ("c", "z"), ("d", "z")})
DIAMOND = ("0abcz", {("0", x) for x in "abc"} | {(x, "z") for x in "abc"})

# small orders, (elements, relation), and whether each is a lattice
EXAMPLES = [
    (("0ab", {("0", "a"), ("0", "b")}), False),  # two tops
    (("abz", {("a", "z"), ("b", "z")}), False),  # two bottoms
    (("abc", {("a", "c")}), False),  # no top
    (BOWTIE, False),
    (("0abcz", {("0", "a"), ("a", "b"), ("b", "z"), ("0", "c"), ("c", "z")}), True),  # pentagon
    (DIAMOND, True),
    (("a", set()), True),
]


def test_lattice_and_mobius_match_oracles_on_examples():
    for (elements, relation), lattice in EXAMPLES:
        P = FinitePoset(elements, relation)
        assert P.is_lattice() == lattice
        assert_matches_oracles(P, relation)
    assert FinitePoset(*DIAMOND).mobius("0", "z") == 2


@pytest.mark.parametrize("family", ["S", "Y", "M"])
def test_lattice_and_mobius_match_oracles_on_the_orders(family):
    for n in range(1, 6):
        P = poset_for(family, n)
        assert P.is_lattice()
        assert_matches_oracles(P, P.cover_pairs())


def orders_up_to_six():
    return [poset_for(family, n) for family in "SYM" for n in range(1, 7)]


def test_crosscut_rows_match_the_recurrence():
    # the joins of upper covers exist everywhere in S_n, Y_n and M_n, so no
    # row falls back to the recurrence, and every row equals it
    for P in orders_up_to_six():
        for i in range(len(P)):
            assert P._crosscut_row(i) == P._mobius_recurrence(i)


def meets_reference(P):
    # a finite poset with a top in which every pair has a meet is a lattice;
    # a meet exists exactly when the common down-set is some element's own
    n = len(P)
    down = [sum(1 << i for i in range(n) if P._up[i] >> j & 1) for j in range(n)]
    downs = set(down)
    return (P.maximum() is not None
            and all(a & b in downs for a in down for b in down))


def test_join_irreducible_lattice_test_matches_meets():
    for P in orders_up_to_six() + [FinitePoset(*order) for order, _ in EXAMPLES]:
        assert P.is_lattice() == meets_reference(P)


@given(dag_posets())
def test_join_irreducible_lattice_test_matches_meets_on_random_posets(case):
    P, _ = case
    assert P.is_lattice() == meets_reference(P)


def lattice_by_join_irreducibles(P):
    """The former global lattice test, kept as a reference: with a bottom, a
    lattice when x v j exists for every x and every j with exactly one lower
    cover (a y covering y1 != y2 is y1 v y2, so x v y = (x v y1) v y2; and a
    finite join-semilattice with a bottom is a lattice)."""
    n = len(P.elements)
    if not n:
        return True
    up = P._up
    if up[-1] != (1 << n) - 1:
        return False
    lower = [0] * n
    for covers in P._upper_covers:
        for j in covers:
            lower[j] += 1
    for j, count in enumerate(lower):
        if count != 1:
            continue
        for above_x in up:
            # the candidate for x v j is the highest index above both; an
            # empty common up-set gives index -1, whose up-set is not empty
            common = above_x & up[j]
            if up[common.bit_length() - 1] != common:
                return False
    return True


def test_local_lattice_test_matches_join_irreducibles_on_the_orders():
    orders = ([weak_order(n) for n in range(1, 7)] + [tamari(n) for n in range(1, 8)]
              + [bileveled_order(n) for n in range(1, 7)])
    for P in orders + [FinitePoset(*order) for order, _ in EXAMPLES]:
        assert P.is_lattice() == lattice_by_join_irreducibles(P)


def random_bounded_poset(rng):
    """A random relation on up to eight elements pointing up the alphabet,
    with a bottom and a top adjoined."""
    names = "abcdefgh"[:rng.randint(1, 8)]
    density = rng.random()
    relation = {(x, y) for x, y in itertools.combinations(names, 2) if rng.random() < density}
    relation |= {("0", x) for x in names} | {(x, "z") for x in names}
    return FinitePoset(["0", *names, "z"], relation)


def test_local_lattice_test_matches_join_irreducibles_on_random_bounded_posets():
    rng = random.Random(1990)
    verdicts = []
    for _ in range(1500):
        P = random_bounded_poset(rng)
        verdicts.append(P.is_lattice())
        assert verdicts[-1] == lattice_by_join_irreducibles(P)
    assert sum(verdicts) and not all(verdicts)  # both kinds occur


def test_crosscut_falls_back_where_a_join_is_missing():
    # in the bowtie, a and b have two minimal upper bounds, so the row of 0
    # comes from the recurrence; the rows of a and b still come from joins
    elements, relation = BOWTIE
    P = FinitePoset(elements, relation)
    assert P._crosscut_row(P.index["0"]) is None
    assert P._crosscut_row(P.index["a"]) is not None
    inverse = zeta_inverse(P.elements, closure(P.elements, relation))
    for x in P.elements:
        for y in P.upset(x):
            assert P.mobius(x, y) == inverse[x, y]
    assert P.mobius("0", "z") == -1


def test_crosscut_is_exact_off_lattices():
    # two tops: not a lattice, but every join of covers of 0 exists
    relation = {("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e")}
    P = FinitePoset("0abcde", relation)
    assert not P.is_lattice()
    row = P._crosscut_row(P.index["0"])
    assert row == P._mobius_recurrence(P.index["0"])
    inverse = zeta_inverse(P.elements, closure(P.elements, relation))
    assert P.mobius_row("0") == [(y, inverse["0", y]) for y in P.elements
                                 if inverse["0", y]]


def test_covers_are_the_reduction_of_a_transitive_relation():
    P = FinitePoset("abc", {("a", "b"), ("b", "c"), ("a", "c")})
    assert P.cover_pairs() == [("a", "b"), ("b", "c")]
    assert P.leq("a", "c")
    assert '"a" -> "c"' not in P.to_dot()


def test_posets_compare_by_elements_and_covers():
    P = weak_order(3)
    for twin in (copy.deepcopy(P), pickle.loads(pickle.dumps(P))):
        assert twin is not P and twin == P and hash(twin) == hash(P)
    # Möbius rows filled on one side only take no part
    twin = copy.deepcopy(P)
    assert twin.mobius("123", "321") == 1 and twin == P
    # any relation generating the order, listed in any order, gives an equal poset
    chain = FinitePoset("abc", [("b", "c"), ("a", "b")])
    assert chain == FinitePoset("cba", {("a", "b"), ("b", "c"), ("a", "c")})
    assert hash(chain) == hash(FinitePoset("abc", [("a", "b"), ("b", "c")]))
    assert chain != FinitePoset("abc", [("a", "b"), ("a", "c")])
    assert chain != FinitePoset("abd", [("a", "b"), ("b", "d")])
    assert chain != "abc" and chain != tamari(3)


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


def weak_mobius_closed_form(u, w):
    # mu(u, w) = (-1)^|J| when w = w_0(J) u on values with lengths adding,
    # else 0 (Björner & Brenti, Combinatorics of Coxeter Groups, §3.2);
    # w_0(J) reverses each run of consecutive values joined by J
    n = len(u)
    for size in range(n):
        for J in itertools.combinations(range(1, n), size):
            start, flip = 1, {}
            for v in range(1, n + 1):
                if v not in J:  # v ends a run start..v
                    for a in range(start, v + 1):
                        flip[a] = start + v - a
                    start = v + 1
            longest = tuple(flip[a] for a in range(1, n + 1))
            if (tuple(flip[a] for a in u) == w
                    and inversions(w) == inversions(u) + inversions(longest)):
                return (-1) ** size
    return 0


@pytest.mark.parametrize("n", range(1, 6))
def test_weak_order_mobius_matches_the_closed_form(n):
    P = weak_order(n)
    words = list(itertools.permutations(range(1, n + 1)))
    for u in words:
        for w in words:
            x, y = render_perm(u), render_perm(w)
            expected = weak_mobius_closed_form(u, w)
            assert (P.mobius(x, y) if P.leq(x, y) else 0) == expected


def test_weak_order_mobius_values():
    P = weak_order(3)
    assert P.mobius("123", "321") == 1
    assert P.mobius("123", "231") == 0


@pytest.mark.usefixtures("refuse_enumeration")
def test_weak_order_refuses_sizes_past_its_masks():
    for n in (9, 12):
        with pytest.raises(ValueError, match=r"^weak order is limited to n <= 8, got n = \d+$"):
            weak_order(n)


@pytest.mark.usefixtures("refuse_enumeration")
def test_bileveled_order_refuses_sizes_past_its_masks():
    message = r"^bi-leveled order is limited to n <= 9, got n = 10$"
    for build in (bileveled_order, lambda n: posets.poset_for("M", n)):
        with pytest.raises(ValueError, match=message):
            build(10)


@pytest.mark.parametrize("family, name, limit", [
    ("S", "weak order", 8), ("Y", "rotation order", 10), ("M", "bi-leveled order", 9)])
@pytest.mark.usefixtures("refuse_enumeration")
def test_each_order_refuses_one_past_its_limit(family, name, limit):
    assert posets.MAX_ORDER_N[family] == limit
    posets.check_order_size(family, limit)
    message = rf"^{name} is limited to n <= {limit}, got n = {limit + 1}$"
    for refuse in (posets.check_order_size, posets.poset_for):
        with pytest.raises(ValueError, match=message):
            refuse(family, limit + 1)


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


# --- the weak order by position inversions, against the dense order ----------

@pytest.mark.parametrize("n", range(1, 7))
def test_inversion_masks_compare_as_the_weak_order(n):
    P = weak_order(n)
    masks = {w: sum(1 << p * n + q for p, q in position_inversions(parse_perm(w)))
             for w in P.elements}
    for u, a in masks.items():
        for w, b in masks.items():
            assert (a & ~b == 0) == P.leq(u, w)


def words_of(keys):
    return [parse_perm(k) for k in keys]


def ends_of(ends):
    """The dense order's ``interval_ends``, parsed to words."""
    return None if ends is None else tuple(words_of(ends))


@pytest.mark.parametrize("n", range(1, 7))
def test_weak_upset_masks_match_the_order(n):
    P = weak_order(n)
    assert posets.weak_upset_masks(words_of(P.elements)) == P.upset_masks(P.elements)
    # repeated words keep their own bits
    points = random.Random(n).choices(P.elements, k=40)
    assert posets.weak_upset_masks(words_of(points)) == P.upset_masks(points)


def each_interval(P):
    for x in P.elements:
        for y in P.upset(x):
            yield x, y, P.interval(x, y)


@pytest.mark.parametrize("n", range(1, 6))
def test_weak_interval_ends_match_the_order_on_every_interval(n):
    P = weak_order(n)
    for x, y, members in each_interval(P):
        got = posets.weak_interval_ends(words_of(members))
        assert got == ends_of(P.interval_ends(members)) == (parse_perm(x), parse_perm(y))
        # lexicographic order extends the weak order, so the interior is
        # everything between the first and the last word
        for dropped in members[1:-1]:
            rest = [w for w in members if w != dropped]
            assert posets.weak_interval_ends(words_of(rest)) == ends_of(P.interval_ends(rest))


@st.composite
def word_sets(draw):
    # as member_sets, on S_4 and S_5, with some words given twice
    n = draw(st.sampled_from([4, 5]))
    P = weak_order(n)
    elements = st.sampled_from(P.elements)
    if draw(st.booleans()):
        words = draw(st.sets(elements))
    else:
        x = draw(elements)
        y = draw(st.sampled_from(P.upset(x)))
        words = set(P.interval(x, y)) ^ draw(st.sets(elements, max_size=3))
    return n, sorted(words) + draw(st.lists(elements, max_size=2))


@given(word_sets())
def test_weak_interval_ends_match_the_order_on_drawn_sets(case):
    n, keys = case
    assert posets.weak_interval_ends(words_of(keys)) == ends_of(
        weak_order(n).interval_ends(keys))


@pytest.mark.parametrize("n", range(1, 8))
def test_weak_interval_ends_match_the_order_on_every_fiber(n):
    P = weak_order(n)
    fibers = [*trees.beta_fibers(n).values(),
              *map(trees._key_fiber, enumerate_family("Y", n))]
    for words in fibers:
        keys = [render_perm(w) for w in words]
        assert posets.weak_interval_ends(words) == ends_of(P.interval_ends(keys))


def lift(key):
    """A word of S_4 moved onto the last four places of S_10, the first six
    letters fixed: a copy of the weak order on S_4, whose comma-joined keys
    do not sort by value, and whose inversions take bits up to 99."""
    return (1, 2, 3, 4, 5, 6) + tuple(a + 6 for a in parse_perm(key))


def test_weak_interval_ends_take_ten_letter_words_in_numeric_order():
    P = weak_order(4)
    assert render_perm(lift("4321")) < render_perm(lift("1234"))
    for x, y, members in each_interval(P):
        words = [lift(w) for w in members]
        assert posets.weak_interval_ends(words) == (lift(x), lift(y))
        for dropped in words[1:-1]:
            assert posets.weak_interval_ends([w for w in words if w != dropped]) is None


def test_weak_upset_masks_of_ten_letter_words_match_the_order():
    P = weak_order(4)
    assert posets.weak_upset_masks([lift(w) for w in P.elements]) == P.upset_masks(P.elements)
    points = random.Random(10).choices(P.elements, k=40)
    assert posets.weak_upset_masks([lift(w) for w in points]) == P.upset_masks(points)


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


@pytest.mark.parametrize("n", range(1, 7))
def test_bileveled_order_matches_its_definition(n):
    # a <= b when the shape of a lies below that of b in the rotation order,
    # read as inclusion of the position-inversion sets of their minimal words,
    # and every circled node of b is circled in a; covers by brute force
    keys = enumerate_family("M", n)
    objs = {k: parse_tree(k) for k in keys}
    inv = {k: position_inversions(min_word(b.tree)) for k, b in objs.items()}
    leq = {(a, b) for a in keys for b in keys
           if inv[a] <= inv[b] and objs[b].circled <= objs[a].circled}
    P = bileveled_order(n)
    assert P.elements == keys
    assert [(a, b) for a in keys for b in keys if P.leq(a, b)] == sorted(leq)
    assert P.cover_pairs() == reduction(keys, leq)


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


def test_fiber_interval_refuses_a_plain_tree_as_the_parser_does():
    with pytest.raises(ValidityError) as parsed:
        trees.parse_key("M", "(.(..))")
    with pytest.raises(ValidityError) as queried:
        fiber_interval(3, "(.(..))")
    assert str(queried.value) == str(parsed.value)


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
    assert report.adjunction_failure == (
        "fwd(1342) <= {{.(..)}{..}} is True but 1342 <= back({{.(..)}{..}}) is False")
    assert check_galois(bileveled_section_pair(5)).adjunction_failure == (
        "fwd(12453) <= {{.((..).)}{..}} is True but "
        "12453 <= back({{.((..).)}{..}}) is False")


def test_bileveled_pair_is_an_interval_retract():
    for n in (1, 2, 3, 4):
        report = check_interval_retract(bileveled_section_pair(n))
        assert report.clauses_hold
        assert report.mobius_failure is None
        assert report.passed


def test_swapped_extremes_break_order_preservation():
    # the identity on the hexagon with the images of its least and greatest
    # words swapped; the witness is a violated cover
    P = weak_order(3)
    swapped = {x: x for x in P.elements}
    swapped["123"], swapped["321"] = "321", "123"
    pair = PosetMapPair(P, P, swapped, swapped)
    for witness in (check_galois(pair).forward_order_preserving,
                    check_interval_retract(pair).forward_order_preserving):
        assert witness is not None
        a, _, b, but, fa, _, fb = witness.split()
        assert (a, b) in P.cover_pairs()
        assert (but, fa, fb) == ("but", swapped[a], swapped[b])
    assert not check_galois(pair).passed
    assert not check_interval_retract(pair).passed


def test_broken_backward_map_fails_the_retract_clause():
    pair = bileveled_section_pair(3)
    keys = pair.target.elements
    swapped = dict(pair.backward)
    swapped[keys[0]], swapped[keys[1]] = swapped[keys[1]], swapped[keys[0]]
    report = check_interval_retract(
        PosetMapPair(pair.source, pair.target, pair.forward, swapped))
    assert report.section_failure is not None
    assert not report.passed


@functools.lru_cache(maxsize=None)
def covers_by_definition(P):
    # the pairs a < b with nothing strictly between them, in key order
    return [(a, b) for a in P.elements for b in P.elements
            if a != b and P.leq(a, b)
            and not any(P.leq(a, c) and P.leq(c, b) for c in P.elements if c not in (a, b))]


def order_preserving_reference(P, Q, mapping):
    # the first cover of P in key order whose images are not ordered in Q
    for a, b in covers_by_definition(P):
        if not Q.leq(mapping[a], mapping[b]):
            return f"{a} <= {b} but {mapping[a]} !<= {mapping[b]}"
    return None


def section_reference(pair):
    # the first t in key order that the forward map does not send back to itself
    for t in pair.target.elements:
        if pair.forward[pair.backward[t]] != t:
            return f"fwd(back({t})) = {pair.forward[pair.backward[t]]}"
    return None


def fiber_reference(pair):
    # the first t in key order whose preimage is empty or is no [a, b]
    P = pair.source
    for t in pair.target.elements:
        fiber = {v for v in P.elements if pair.forward[v] == t}
        if not fiber:
            return f"empty fiber over {t}"
        if not any(fiber == {x for x in P.elements if P.leq(a, x) and P.leq(x, b)}
                   for a in fiber for b in fiber):
            return f"fiber over {t} is not an interval"
    return None


def galois_mobius_reference(pair):
    # the first v, then the first t, in key order where the sum of mu_P(v, w)
    # over fwd(w) = t differs from the sum of mu_Q(s, t) over back(s) = v
    P, Q, fwd, bwd = pair.source, pair.target, pair.forward, pair.backward
    for v in P.elements:
        for t in Q.elements:
            lhs = sum(P.mobius(v, w) for w in P.upset(v) if fwd[w] == t)
            rhs = sum(Q.mobius(s, t) for s in Q.elements if bwd[s] == v and Q.leq(s, t))
            if lhs != rhs:
                return f"sum mismatch at v={v}, t={t}: {lhs} != {rhs}"
    return None


def adjunction_reference(pair):
    # the first v, then the first t, in key order where the two sides differ
    P, Q = pair.source, pair.target
    for v in P.elements:
        for t in Q.elements:
            left, right = Q.leq(pair.forward[v], t), P.leq(v, pair.backward[t])
            if left != right:
                return f"fwd({v}) <= {t} is {left} but {v} <= back({t}) is {right}"
    return None


def retract_mobius_reference(pair):
    # the first s, then the first t > s, in key order where the sum of
    # mu_P(v, w) over v in the fiber of s and w in the fiber of t is not mu_Q(s, t)
    P, Q, fwd = pair.source, pair.target, pair.forward
    for s in Q.elements:
        for t in Q.upset(s):
            if t == s:
                continue
            total = sum(P.mobius(v, w) for v in P.elements if fwd[v] == s
                        for w in P.upset(v) if fwd[w] == t)
            if total != Q.mobius(s, t):
                return f"sum over fibers of {s} < {t}: {total} != {Q.mobius(s, t)}"
    return None


@st.composite
def varied_pairs(draw):
    # a ready-made pair with either map, or both, kept, made constant (which
    # preserves order) or redrawn at random
    base = draw(st.sampled_from([tree_section_pair(3), tree_section_pair(4),
                                 bileveled_section_pair(3), bileveled_section_pair(4)]))

    def vary(mapping, codomain):
        kind = draw(st.sampled_from(["keep", "constant", "any"]))
        if kind == "keep":
            return mapping
        if kind == "constant":
            c = draw(st.sampled_from(codomain))
            return {k: c for k in mapping}
        return {k: draw(st.sampled_from(codomain)) for k in mapping}

    P, Q = base.source, base.target
    return PosetMapPair(P, Q, vary(base.forward, Q.elements), vary(base.backward, P.elements))


@given(varied_pairs())
def test_certificate_reports_match_pairwise_definitions(pair):
    P, Q = pair.source, pair.target
    forward_bad = order_preserving_reference(P, Q, pair.forward)
    backward_bad = order_preserving_reference(Q, P, pair.backward)
    galois = check_galois(pair)
    assert galois.forward_order_preserving == forward_bad
    assert galois.backward_order_preserving == backward_bad
    assert galois.adjunction_failure == adjunction_reference(pair)
    checked = forward_bad is None and backward_bad is None and galois.adjunction_holds
    assert galois.checked_mobius == checked
    assert galois.mobius_failure == (galois_mobius_reference(pair) if checked else None)
    retract = check_interval_retract(pair)
    assert retract.forward_order_preserving == forward_bad
    assert retract.backward_order_preserving == backward_bad
    assert retract.section_failure == section_reference(pair)
    assert retract.fiber_failure == fiber_reference(pair)
    assert retract.mobius_failure == retract_mobius_reference(pair)


def named_map_tables(P, Q, forward, backward):
    # both maps of a pair through the named maps of ``trees.MAPS``, each key
    # parsed into its object and the image rendered back
    def table(op, keys):
        source, target, func = trees.MAPS[op]
        return {k: trees.render_key(target, func(trees.parse_key(source, k))) for k in keys}

    return table(forward, P.elements), table(backward, Q.elements)


@pytest.mark.parametrize("n", range(1, 7))
def test_section_pairs_match_the_named_maps(n):
    for pair, order, ops in ((tree_section_pair(n), tamari(n), ("tau", "max")),
                             (bileveled_section_pair(n), bileveled_order(n), ("beta", "Mm"))):
        assert pair.source is weak_order(n) and pair.target is order
        assert (pair.forward, pair.backward) == named_map_tables(pair.source, order, *ops)


def test_unit_and_counit_failures_are_reported():
    # order-preserving maps on the chain 1 < 2: a constant top backward map
    # keeps the unit and breaks the counit, a constant bottom forward map the
    # other way round
    P = FinitePoset("12", {("1", "2")})
    identity = {"1": "1", "2": "2"}
    for forward, backward, failure in (
            (identity, {"1": "2", "2": "2"}, "fwd(2) <= 1 is False but 2 <= back(1) is True"),
            ({"1": "1", "2": "1"}, identity, "fwd(2) <= 1 is True but 2 <= back(1) is False")):
        report = check_galois(PosetMapPair(P, P, forward, backward))
        assert report.forward_order_preserving is None
        assert report.backward_order_preserving is None
        assert report.adjunction_failure == failure
    assert check_galois(PosetMapPair(P, P, {"1": "1", "2": "1"},
                                     {"1": "2", "2": "2"})).passed


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
