"""Differential tests for cutting, grafting and the algebra's structure maps,
which all work on fiber words, against tree surgery written here.

The references cut a tree down the path from a leaf to the root, graft by
replacing the leaves of the base, place the circles of a circled graft by
offset arithmetic, split a circled tree into its base and hanging trees by
recursion, and compute each structure map as a loop over splittings (the
word product as a loop over the positions of the right factor's letters).
Every key up to four or six nodes is checked, and so are seeded random keys
of 8 to 30 nodes.
"""

import itertools
import random
from collections import Counter

import pytest

from multisym import algebra
from multisym.trees import (
    LEAF,
    BiLeveledTree,
    PlanarTree,
    all_bileveled,
    all_trees,
    bileveled_of_perm,
    enumerate_family,
    forest_decomposition,
    graft,
    graft_onto_bileveled,
    graft_onto_tree,
    parse_key,
    render,
    render_perm,
    split_at,
    splittings,
    tree_of_perm,
)


def random_word(rng, n):
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word)


def random_words(seed, count):
    rng = random.Random(seed)
    return [random_word(rng, rng.randint(8, 30)) for _ in range(count)]


def random_circled(seed, count):
    return [bileveled_of_perm(w) for w in random_words(seed, count)]


# ---------------------------------------------------------------------------
# reference tree surgery


def ref_split_once(t, leaf):
    """The parts of ``t`` left and right of the path from ``leaf`` to the root."""
    if t.is_leaf:
        return t, t
    k = t.left.size
    if leaf <= k + 1:
        a, b = ref_split_once(t.left, leaf)
        return a, PlanarTree(b, t.right)
    a, b = ref_split_once(t.right, leaf - k - 1)
    return PlanarTree(t.left, a), b


def ref_split(t, leaves):
    pieces, offset = [], 0
    for leaf in leaves:
        piece, t = ref_split_once(t, leaf - offset)
        pieces.append(piece)
        offset = leaf - 1
    return (*pieces, t)


def ref_splittings(t, p, restricted=False):
    """(leaves, pieces) of every p-splitting of ``t``."""
    out = []
    for leaves in itertools.combinations_with_replacement(range(1, t.size + 2), p):
        pieces = ref_split(t, leaves)
        if not (restricted and pieces[0].size == 0):
            out.append((leaves, pieces))
    return out


def ref_graft(pieces, base):
    """``base`` with its leaves replaced by ``pieces``, left to right."""
    slots = iter(pieces)

    def go(t):
        return next(slots) if t.is_leaf else PlanarTree(go(t.left), go(t.right))

    return go(base)


def restrict(circled, start, size):
    """The circles of the block of nodes after ``start``, renumbered from 1."""
    return frozenset(c - start for c in circled if start < c <= start + size)


def ref_graft_circled(pieces, circled, base, base_circled):
    """Graft and place the circles by offsets: with a nonempty first piece the
    pieces keep theirs and every base node is circled, else only the base's
    own circles stay."""
    starts, base_pos, acc = [], [], 0
    for i, piece in enumerate(pieces):
        starts.append(acc)
        acc += piece.size
        if i < base.size:
            base_pos.append(acc + i + 1)
    if pieces[0].size > 0:
        # piece i lands after its own start and the i base nodes before it
        marks = {start + i + c for i, (start, piece) in enumerate(zip(starts, pieces))
                 for c in restrict(circled, start, piece.size)}
        marks.update(base_pos)
    else:
        marks = {base_pos[k - 1] for k in base_circled}
    return BiLeveledTree(ref_graft(pieces, base), frozenset(marks))


def ref_decompose(b):
    """The circled base and the trees hanging above its leaves 2, 3, ..."""
    slots = []

    def induced(t, offset):
        root = offset + t.left.size + 1
        sides = []
        for sub, sub_offset in ((t.left, offset), (t.right, root)):
            if not sub.is_leaf and sub_offset + sub.left.size + 1 in b.circled:
                sides.append(induced(sub, sub_offset))
            else:
                slots.append(sub)
                sides.append(LEAF)
        return PlanarTree(*sides)

    base = induced(b.tree, 0)
    return base, tuple(slots[1:])


# ---------------------------------------------------------------------------
# reference structure maps


def ref_product_fund(family, x, y):
    u, v = parse_key(family, x), parse_key(family, y)
    if family == "Y":
        return Counter(render(ref_graft(pieces, v)) for _, pieces in ref_splittings(u, v.size))
    n = len(u) + len(v)
    terms = Counter()
    for places in itertools.combinations(range(n), len(v)):
        left, right = iter(u), iter(a + len(u) for a in v)
        terms[render_perm(tuple(next(right) if i in places else next(left)
                                for i in range(n)))] += 1
    return terms


def standard(word):
    """The key of the permutation with the letters of ``word`` in the same order."""
    return render_perm(tuple(sorted(word).index(a) + 1 for a in word))


def ref_coproduct_fund(family, x):
    obj = parse_key(family, x)
    if family == "Y":
        return Counter((render(a), render(b)) for _, (a, b) in ref_splittings(obj, 1))
    return Counter((standard(obj[:k]), standard(obj[k:])) for k in range(len(obj) + 1))


def ref_product_msym(x, y):
    if x == "1" or y == "1":
        return Counter({y if x == "1" else x: 1})
    b, s = parse_key("M", x), parse_key("M", y)
    return Counter(render(ref_graft_circled(pieces, b.circled, s.tree, s.circled))
                   for _, pieces in ref_splittings(b.tree, s.size))


def ref_action_ysym(x, y):
    b, s = parse_key("M", x), parse_key("Y", y)
    return Counter(render(ref_graft_circled(pieces, b.circled, s, frozenset()))
                   for _, pieces in ref_splittings(b.tree, s.size, restricted=True))


def ref_coaction(x):
    b = parse_key("M", x)
    return Counter((render(BiLeveledTree(a, restrict(b.circled, 0, a.size))), render(c))
                   for _, (a, c) in ref_splittings(b.tree, 1, restricted=True))


# ---------------------------------------------------------------------------
# cutting and grafting


@pytest.mark.parametrize("n", range(7))
def test_split_at_matches_cutting_down_the_leaf_paths(n):
    for t in all_trees(n):
        for p in range(4):
            for leaves in itertools.combinations_with_replacement(range(1, n + 2), p):
                assert split_at(t, leaves) == ref_split(t, leaves)


def test_split_at_matches_on_random_trees():
    rng = random.Random(9301)
    for word in random_words(9302, 100):
        t = tree_of_perm(word)
        leaves = tuple(sorted(rng.randint(1, t.size + 1) for _ in range(rng.randint(1, 4))))
        assert split_at(t, leaves) == ref_split(t, leaves)


def test_graft_matches_replacing_the_leaves():
    rng = random.Random(9303)
    for _ in range(1500):
        base = tree_of_perm(random_word(rng, rng.randint(0, 8)))
        pieces = [tree_of_perm(random_word(rng, rng.randint(0, 5)))
                  for _ in range(base.size + 1)]
        assert graft(pieces, base) == ref_graft(pieces, base)


def check_circled_grafts(b, q, tree_bases, circled_bases):
    for sp in splittings(b, q):
        assert sp.pieces == ref_split(b.tree, sp.leaves)
        for s in circled_bases:
            expected = ref_graft_circled(sp.pieces, b.circled, s.tree, s.circled)
            assert graft_onto_bileveled(sp, s) == expected
        if sp.pieces[0].size == 0:
            continue
        for t in tree_bases:
            expected = ref_graft_circled(sp.pieces, b.circled, t, frozenset())
            assert graft_onto_tree(sp, t) == expected


@pytest.mark.parametrize("n", range(1, 5))
def test_circled_grafts_match_the_offset_placement(n):
    for b in all_bileveled(n):
        for q in range(4):
            check_circled_grafts(b, q, all_trees(q), all_bileveled(q) if q else ())


def test_circled_grafts_match_on_random_sources():
    rng = random.Random(9304)
    for b in random_circled(9305, 15):
        q = rng.randint(1, 2)
        check_circled_grafts(b, q, [rng.choice(all_trees(q))], [rng.choice(all_bileveled(q))])


@pytest.mark.parametrize("n", range(1, 7))
def test_forest_decomposition_matches_the_recursive_split(n):
    for b in all_bileveled(n):
        dec = forest_decomposition(b)
        assert (dec.base, dec.hanging) == ref_decompose(b)


def test_forest_decomposition_matches_on_random_circled_trees():
    for b in random_circled(9306, 150):
        dec = forest_decomposition(b)
        assert (dec.base, dec.hanging) == ref_decompose(b)


# ---------------------------------------------------------------------------
# the structure maps


def keys(family, sizes):
    return [k for n in sizes for k in enumerate_family(family, n)]


@pytest.mark.parametrize("family", ["S", "Y"])
def test_word_and_tree_products_match_the_reference(family):
    for x in keys(family, range(5)):
        assert algebra.coproduct_fund(family, x).terms == ref_coproduct_fund(family, x)
        for y in keys(family, range(4)):
            assert algebra.product_fund(family, x, y).terms == ref_product_fund(family, x, y)


def test_circled_product_action_and_coaction_match_the_reference():
    for x in keys("M", range(1, 5)):
        assert algebra.coaction(x).terms == ref_coaction(x)
        for y in ["1", *keys("M", range(1, 4))]:
            assert algebra.product_msym(x, y).terms == ref_product_msym(x, y)
            assert algebra.product_msym(y, x).terms == ref_product_msym(y, x)
        for y in keys("Y", range(4)):
            assert algebra.action_ysym(x, y).terms == ref_action_ysym(x, y)


def test_structure_maps_match_on_random_keys():
    rng = random.Random(9307)
    for i, word in enumerate(random_words(9308, 20)):
        x, t = render(bileveled_of_perm(word)), render(tree_of_perm(word))
        assert algebra.coaction(x).terms == ref_coaction(x)
        assert algebra.coproduct_fund("Y", t).terms == ref_coproduct_fund("Y", t)
        if i % 4:
            continue
        small, tree = rng.choice(keys("M", [1, 2])), rng.choice(keys("Y", [1, 2]))
        assert algebra.product_msym(x, small).terms == ref_product_msym(x, small)
        assert algebra.action_ysym(x, tree).terms == ref_action_ysym(x, tree)
        assert algebra.product_fund("Y", t, tree).terms == ref_product_fund("Y", t, tree)
