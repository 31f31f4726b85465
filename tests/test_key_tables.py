"""The key tables built by construction against definitions written here.

``enumerate_family`` joins plain and circled tree keys from the tables of
smaller sizes and builds no tree, the three orders build each move as a key
string, and ``avoids_pinned`` compares letters directly.  Each is
checked against the parser (which validates), or against an oracle on tuples
that imports nothing from ``multisym.posets``.
"""

import itertools
import random

import pytest

from multisym import algebra, posets, series, trees, verify
from multisym.posets import tamari, weak_order
from multisym.trees import (
    BiLeveledTree,
    PlanarTree,
    _standardize,
    all_bileveled,
    all_trees,
    avoids_pinned,
    enumerate_family,
    render,
    render_perm,
)

N_MAX = 8


@pytest.mark.parametrize("family, objects, start", [
    ("Y", all_trees, 0), ("M", all_bileveled, 1)])
def test_keys_are_sorted_counted_and_name_their_objects(family, objects, start):
    counts = series.counts(family, N_MAX)
    kind = PlanarTree if family == "Y" else BiLeveledTree
    for n in range(start, N_MAX + 1):
        keys = enumerate_family(family, n)
        objs = objects(n)
        assert keys == sorted(keys)
        assert len(keys) == len(objs) == counts[n]
        # the objects are parsed from the keys on first use: each renders
        # back to its key and has the family's type and size
        for key, obj in zip(keys, objs):
            assert render(obj) == key
            assert type(obj) is kind and obj.size == n


def test_word_keys_are_the_rendered_permutations():
    for n in range(N_MAX + 1):
        words = itertools.permutations(range(1, n + 1))
        assert enumerate_family("S", n) == sorted(render_perm(w) for w in words)


def word_key(word):
    return "".join(map(str, word))


def weak_covers(n):
    """Swap the values k and k + 1 of a word where k comes first."""
    covers = set()
    for word in itertools.permutations(range(1, n + 1)):
        for k in range(1, n):
            if word.index(k) < word.index(k + 1):
                swapped = tuple(k + 1 if a == k else k if a == k + 1 else a for a in word)
                covers.add((word_key(word), word_key(swapped)))
    return covers


def shapes(n):
    """Planar trees on n nodes as nested pairs, the leaf being ()."""
    if n == 0:
        return [()]
    return [(left, right) for k in range(n)
            for left in shapes(k) for right in shapes(n - 1 - k)]


def tree_key(t):
    return "." if t == () else "(" + tree_key(t[0]) + tree_key(t[1]) + ")"


def size(t):
    return 0 if t == () else size(t[0]) + size(t[1]) + 1


def node_parents(t, offset=0, parent=None):
    """The parent of each node of t (None at the root), nodes numbered
    1..size(t) after ``offset`` in in-order."""
    if t == ():
        return {}
    root = offset + size(t[0]) + 1
    return {**node_parents(t[0], offset, root), root: parent,
            **node_parents(t[1], root, root)}


def circled_key(t, circled, offset=0):
    if t == ():
        return "."
    root = offset + size(t[0]) + 1
    opener, closer = "{}" if root in circled else "()"
    return (opener + circled_key(t[0], circled, offset)
            + circled_key(t[1], circled, root) + closer)


def brute_circled_keys(n):
    """The key of every node subset of every shape on n nodes that is a valid
    circled set: node 1 circled, no circled child of node 1, and the parent of
    every circled node but the root circled."""
    keys = []
    for t in shapes(n):
        parent = node_parents(t)
        for r in range(1, n + 1):
            for circled in map(set, itertools.combinations(range(1, n + 1), r)):
                if (1 in circled and all(parent[c] != 1 for c in circled)
                        and all(parent[c] in circled for c in circled if parent[c])):
                    keys.append(circled_key(t, circled))
    return sorted(keys)


@pytest.mark.parametrize("n", range(10))
def test_plain_keys_are_the_sorted_keys_of_nested_pairs(n):
    assert enumerate_family("Y", n) == sorted(map(tree_key, shapes(n)))


@pytest.mark.parametrize("n", range(1, 8))
def test_circled_keys_are_the_valid_subsets_of_every_shape(n):
    assert enumerate_family("M", n) == brute_circled_keys(n)


def rotations(t):
    """Every tree one right rotation ((A, B), C) -> (A, (B, C)) above t."""
    if t == ():
        return []
    left, right = t
    out = [(left[0], (left[1], right))] if left != () else []
    out += [(sub, right) for sub in rotations(left)]
    out += [(left, sub) for sub in rotations(right)]
    return out


def tamari_covers(n):
    return {(tree_key(t), tree_key(r)) for t in shapes(n) for r in rotations(t)}


@pytest.mark.parametrize("n", range(1, 8))
def test_weak_order_covers_match_adjacent_value_swaps(n):
    assert weak_order(n).covers == weak_covers(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_tamari_covers_match_rotations_of_nested_pairs(n):
    assert tamari(n).covers == tamari_covers(n)


def rotations_by_object_walk(t, key):
    """The rotated keys of ``t`` (key ``key``), by a walk over its subtrees:
    a subtree on s nodes spans 3s + 1 characters of the key."""
    out, stack = [], [(t, 0)]
    while stack:
        t, start = stack.pop()
        if t.is_leaf:
            continue
        mid, end = start + 3 * t.left.size + 2, start + 3 * t.size + 1
        if not t.left.is_leaf:
            a = start + 3 * t.left.left.size + 3
            out.append(key[:start + 1] + key[start + 2:a] + "(" + key[a:mid - 1]
                       + key[mid:end - 1] + ")" + key[end - 1:])
        stack += ((t.left, start + 1), (t.right, mid))
    return out


def test_rotations_read_off_keys_match_the_object_walk():
    for n in range(11):
        for key, t in zip(enumerate_family("Y", n), all_trees(n)):
            assert sorted(posets._moves(key)) == sorted(rotations_by_object_walk(t, key))


PINNED = {(1, 3, 4, 2), (4, 1, 3, 2), (3, 1, 4, 2)}


def standardized(values):
    order = sorted(values)
    return tuple(order.index(a) + 1 for a in values)


def avoids_pinned_oracle(word):
    return all(standardized((word[0],) + triple) not in PINNED
               for triple in itertools.combinations(word[1:], 3))


def test_avoids_pinned_matches_standardization_on_every_short_word():
    for n in range(N_MAX + 1):
        for word in itertools.permutations(range(1, n + 1)):
            assert avoids_pinned(word) == avoids_pinned_oracle(word), word


def test_avoids_pinned_and_standardize_on_random_long_words():
    rng = random.Random(1414)
    for _ in range(2000):
        word = list(range(1, rng.randint(8, 12) + 1))
        rng.shuffle(word)
        word = tuple(word)
        assert avoids_pinned(word) == avoids_pinned_oracle(word), word
        # standardizing forgets gaps between letters, and so do the patterns
        spread = tuple(3 * a + 7 for a in word)
        assert _standardize(spread) == standardized(spread) == word
        assert avoids_pinned(spread) == avoids_pinned_oracle(spread), spread


# ---------------------------------------------------------------------------
# no round trip through the parser or the renderer


ROUND_TRIPS = ("render", "parse_tree", "parse_perm", "render_perm", "_check_bileveled")
CACHED = (trees._trees, trees._upsets, trees._bileveled, trees._parsed, posets.weak_order,
          posets.tamari, posets.bileveled_order)


@pytest.fixture
def refuse(rebind):
    """Make the named helpers of ``trees`` raise, in every module that binds
    them; the key tables and orders are rebuilt from empty caches, which are
    left empty again afterwards."""
    def failing(name):
        def fail(*args):
            raise AssertionError(f"{name} called on a key built by construction")
        return fail
    return lambda *names: rebind({name: failing(name) for name in names}, CACHED)


def test_tables_and_orders_build_keys_without_round_trips(refuse, monkeypatch):
    refuse(*ROUND_TRIPS, "all_trees", "all_bileveled")
    assert len(enumerate_family("Y", 6)) == 132
    assert len(enumerate_family("M", 6)) == 322
    assert len(weak_order(5)) == 120
    assert len(tamari(6)) == 132

    def no_tamari(n):
        raise AssertionError("the bi-leveled order built the rotation order")
    # the bi-leveled order reads its covers off its own keys
    monkeypatch.setattr(posets, "tamari", no_tamari)
    assert len(posets.bileveled_order(6)) == 322


def test_key_tables_build_no_tree_object(refuse):
    refuse("parse_tree", "PlanarTree", "BiLeveledTree")
    assert [len(enumerate_family("Y", n)) for n in range(9)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert [len(enumerate_family("M", n)) for n in range(1, 9)] == [
        1, 2, 6, 21, 80, 322, 1348, 5814]


def test_tree_objects_are_made_from_keys_without_their_constructors(monkeypatch):
    # only public construction from parts runs a constructor; a key valid by
    # construction becomes its object directly
    def fail(*args):
        raise AssertionError("a tree constructor ran on a key")
    monkeypatch.setattr(trees.PlanarTree, "__init__", fail)
    monkeypatch.setattr(trees.BiLeveledTree, "__init__", fail)
    trees._parsed.cache_clear()
    try:
        assert render(trees.parse_tree("((..)(..))")) == "((..)(..))"
        assert render(trees.parse_tree("{{..}(..)}")) == "{{..}(..)}"
        assert trees.parse_tree(".") is trees.LEAF
        assert render(trees.tree_of_perm((2, 3, 1))) == "((..)(..))"
        assert render(trees.bileveled_of_perm((2, 3, 1))) == "{{..}(..)}"
        assert render(trees.left_comb(2)) == "((..).)"
        assert render(trees.right_comb(2)) == "(.(..))"
        assert [render(t) for t in all_trees(4)] == enumerate_family("Y", 4)
        assert [render(b) for b in all_bileveled(4)] == enumerate_family("M", 4)
        b = trees.parse_tree("{{..}(..)}")
        assert (render(b.tree), b.circled) == ("((..)(..))", {1, 2})
        assert (render(b.tree.left), render(b.tree.right)) == ("(..)", "(..)")
    finally:
        trees._parsed.cache_clear()


def test_sweep_suites_take_the_objects_they_enumerated(refuse):
    refuse("render", "parse_tree", "_check_bileveled", "forest_decomposition",
           "all_trees", "fiber_of_tree", "parse_perm")
    assert verify.suite_fibers(5).passed
    assert verify.suite_tamari_oracle(5).passed


def test_pinned_suite_and_coinvariants_read_keys_only(refuse):
    refuse("render", "tree_of_perm", "bileveled_of_perm", "section_word", "all_bileveled",
           "is_coinvariant_shape", "right_spine", "forest_decomposition")
    assert verify.suite_pinned(6).passed
    assert [len(algebra.coinvariant_basis(n)) for n in range(1, 6)] == [1, 1, 3, 11, 44]


def test_compositions_build_no_forest(refuse):
    refuse("forest_decomposition", "compose_decomposition", "graft", "tree_of_perm")
    for n in range(1, 7):
        found = {trees.qsym_composition(b) for b in all_bileveled(n)}
        assert len(found) == 2 ** (n - 1)
        for parts in found:
            assert trees.qsym_composition(trees.bileveled_of_composition(parts)) == parts
