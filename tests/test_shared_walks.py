"""Differential tests for the fiber words, the key reader under them, the
right cuts and the change of basis, against reference forms written here.

Trees are nested pairs here (``None`` for a leaf, ``(left, right)`` for a
node); the only things taken from ``trees`` are the tree types, the leaf
and the routines under test.  Every tree and circled tree up to seven nodes is
checked, and so are seeded random words of 8 to 30 letters (1 to 60 for the
key reader).
"""

import inspect
import random
import sys

import pytest

from multisym import algebra, posets, verify
from multisym.trees import (
    LEAF,
    BiLeveledTree,
    PlanarTree,
    _key_word,
    fiber_min_word,
    max_word,
    min_word,
    right_cuts,
    section_word,
)

N_MAX = 7


def size(t):
    return 0 if t is None else size(t[0]) + size(t[1]) + 1


def shapes(n):
    if n == 0:
        return [None]
    return [(left, right) for k in range(n)
            for left in shapes(k) for right in shapes(n - 1 - k)]


def planar(t):
    return LEAF if t is None else PlanarTree(planar(t[0]), planar(t[1]))


def nested(t):
    return None if t.is_leaf else (nested(t.left), nested(t.right))


def parents(t, offset=0, parent=None, out=None):
    """In-order node index -> parent index (None at the root)."""
    out = {} if out is None else out
    if t is not None:
        root = offset + size(t[0]) + 1
        out[root] = parent
        parents(t[0], offset, root, out)
        parents(t[1], root, root, out)
    return out


def crowns(t):
    """Every circled set of ``t`` that passes the three validity rules."""
    up = parents(t)
    n = len(up)
    out = []
    for mask in range(1 << n):
        circled = {i for i in range(1, n + 1) if mask >> (i - 1) & 1}
        if (1 in circled and not any(up[i] == 1 for i in circled)
                and all(up[i] is None or up[i] in circled for i in circled)):
            out.append(frozenset(circled))
    return out


def tree_of_word(word):
    """The largest letter at the root, the letters before and after it below."""
    if not word:
        return None
    i = word.index(max(word))
    return (tree_of_word(word[:i]), tree_of_word(word[i + 1:]))


def random_words():
    rng = random.Random(8801)
    for _ in range(150):
        word = list(range(1, rng.randint(8, 30) + 1))
        rng.shuffle(word)
        yield tuple(word)


def random_circled():
    """The bi-leveled image of each random word: its tree, with the letters
    at least the first one circled."""
    for word in random_words():
        yield tree_of_word(word), frozenset(
            i + 1 for i, a in enumerate(word) if a >= word[0])


# ---------------------------------------------------------------------------
# reference forms


def ref_min_word(t, labels=None):
    """Left subtrees take low letters, the root the top one."""
    labels = tuple(range(1, size(t) + 1)) if labels is None else labels
    if t is None:
        return ()
    k = size(t[0])
    return ref_min_word(t[0], labels[:k]) + (labels[-1],) + ref_min_word(t[1], labels[k:-1])


def ref_max_word(t, labels=None):
    """Left subtrees take high letters, the root the top one."""
    labels = tuple(range(1, size(t) + 1)) if labels is None else labels
    if t is None:
        return ()
    k = size(t[0])
    return (ref_max_word(t[0], labels[-1 - k:-1]) + (labels[-1],)
            + ref_max_word(t[1], labels[:-1 - k]))


def ref_decompose(t, circled):
    """The circled base and the trees hanging above its leaves 2, 3, ..."""
    slots = []

    def induced(t, offset):
        root = offset + size(t[0]) + 1
        sides = []
        for sub, sub_offset in ((t[0], offset), (t[1], root)):
            if sub is not None and sub_offset + size(sub[0]) + 1 in circled:
                sides.append(induced(sub, sub_offset))
            else:
                slots.append(sub)
                sides.append(None)
        return tuple(sides)

    base = induced(t, 0)
    return base, slots[1:]


def relabel(word, letters):
    return tuple(letters[a - 1] for a in word)


def interleave(u, vs):
    out = []
    for a, v in zip(u, vs):
        out.append(a)
        out.extend(v)
    return tuple(out)


def ref_fiber_word(t, circled, section):
    """The base's minimal word on the top letters, interleaved with the
    hanging trees' words: minimal words on blocks from the left, or for the
    section maximal words on blocks from the right."""
    base, hanging = ref_decompose(t, circled)
    n, p = size(t), size(base)
    u = relabel(ref_min_word(base), tuple(range(n - p + 1, n + 1)))
    order = range(p - 1, -1, -1) if section else range(p)
    blocks, next_letter = [None] * p, 1
    for i in order:
        blocks[i] = tuple(range(next_letter, next_letter + size(hanging[i])))
        next_letter += size(hanging[i])
    word = ref_max_word if section else ref_min_word
    return interleave(u, [relabel(word(h), block) for h, block in zip(hanging, blocks)])


def ref_right_cuts(t, circled):
    """The whole tree with an empty cut, then, from the deepest right-spine
    subtree up to the root's right child and while the subtree holds no
    circled node, the tree with that subtree replaced by a leaf."""
    cuts = [(t, None)]
    spine, node, start = [], t, 0
    while node is not None:
        spine.append((node, start))
        start += size(node[0]) + 1
        node = node[1]
    for depth in range(len(spine) - 1, 0, -1):
        sub, sub_start = spine[depth]
        if any(sub_start < c <= sub_start + size(sub) for c in circled):
            break

        def truncate(node, d):
            return None if d == depth else (node[0], truncate(node[1], d + 1))

        cuts.append((truncate(t, 0), sub))
    return cuts


# ---------------------------------------------------------------------------
# the routines against the references


@pytest.mark.parametrize("n", range(N_MAX + 1))
def test_min_and_max_words_match_the_recursive_definitions(n):
    for t in shapes(n):
        assert min_word(planar(t)) == ref_min_word(t)
        assert max_word(planar(t)) == ref_max_word(t)


def test_min_and_max_words_match_on_random_trees():
    for t, _ in random_circled():
        assert min_word(planar(t)) == ref_min_word(t)
        assert max_word(planar(t)) == ref_max_word(t)


def circled_trees(n):
    return [(t, circled) for t in shapes(n) for circled in crowns(t)]


def test_every_circled_tree_is_enumerated():
    # the counts of M_1..M_7
    assert [len(circled_trees(n)) for n in range(1, N_MAX + 1)] == [
        1, 2, 6, 21, 80, 322, 1348]


def check_fiber_words(t, circled):
    b = BiLeveledTree(planar(t), circled)
    assert fiber_min_word(b) == ref_fiber_word(t, circled, section=False)
    assert section_word(b) == ref_fiber_word(t, circled, section=True)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_fiber_words_match_the_relabel_and_interleave_form(n):
    for t, circled in circled_trees(n):
        check_fiber_words(t, circled)


def test_fiber_words_match_on_random_circled_trees():
    for t, circled in random_circled():
        check_fiber_words(t, circled)


def key_of(t, circled, offset=0):
    """The key of ``t`` with the in-order nodes ``circled`` in braces."""
    if t is None:
        return "."
    root = offset + size(t[0]) + 1
    inner = key_of(t[0], circled, offset) + key_of(t[1], circled, root)
    return "{" + inner + "}" if root in circled else "(" + inner + ")"


def check_key_word(t, circled):
    plain = key_of(t, frozenset())
    assert _key_word(plain) == ref_min_word(t)
    assert _key_word(plain, True) == ref_max_word(t)
    if circled:
        key = key_of(t, circled)
        assert _key_word(key) == ref_fiber_word(t, circled, section=False)
        assert _key_word(key, True) == ref_fiber_word(t, circled, section=True)


@pytest.mark.parametrize("n", range(N_MAX + 1))
def test_key_word_reads_the_reference_words_off_every_key(n):
    for t in shapes(n):
        for circled in [frozenset()] + crowns(t):
            check_key_word(t, circled)


def test_key_word_reads_the_reference_words_off_random_keys():
    rng = random.Random(8802)
    for _ in range(300):
        word = list(range(1, rng.randint(1, 60) + 1))
        rng.shuffle(word)
        check_key_word(tree_of_word(word), frozenset(
            i + 1 for i, a in enumerate(word) if a >= word[0]))


@pytest.mark.parametrize("key, word", [
    ("(" * 5000 + ".." + ")" + ".)" * 4999, range(1, 5001)),
    ("{" * 5000 + ".." + "}" + ".}" * 4999, range(1, 5001)),
    ("(." * 5000 + "." + ")" * 5000, range(5000, 0, -1)),
], ids=["left comb", "circled left comb", "right comb"])
def test_key_word_reads_a_deep_comb_without_recursing(key, word):
    # a comb's node order is a chain: its one word is both readings
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        readings = _key_word(key), _key_word(key, True)
    finally:
        sys.setrecursionlimit(limit)
    assert readings == (tuple(word), tuple(word))


def check_right_cuts(t, circled):
    got = [(nested(smaller.tree), smaller.circled, nested(s))
           for smaller, s in right_cuts(BiLeveledTree(planar(t), circled))]
    assert got == [(rest, circled, sub) for rest, sub in ref_right_cuts(t, circled)]


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_right_cuts_match_truncating_the_right_spine(n):
    for t, circled in circled_trees(n):
        check_right_cuts(t, circled)


def test_right_cuts_match_on_random_circled_trees():
    cut = 0
    for t, circled in random_circled():
        check_right_cuts(t, circled)
        cut += len(ref_right_cuts(t, circled)) > 1
    assert cut  # some random tree has an uncircled right-spine node


# ---------------------------------------------------------------------------
# the change of basis against the per-pair Möbius loop


UNITS = {"S": "", "Y": ".", "M": "1"}


def ref_row(family, key, basis):
    """A key's expansion: its up-set to M, its Möbius values pair by pair to F."""
    if key == UNITS[family]:
        return {key: 1}
    n = len(key) if family == "S" else key.count(".") - 1
    poset = posets.poset_for(family, n)
    if basis == "M":
        return {upper: 1 for upper in poset.upset(key)}
    return {upper: poset.mobius(key, upper) for upper in poset.upset(key)
            if poset.mobius(key, upper)}


def ref_sum(family, combo, basis):
    """A combination's expansion, summed row by row; zero sums left out."""
    expected = {}
    for key, c in combo.items():
        for y, d in ref_row(family, key, basis).items():
            expected[y] = expected.get(y, 0) + c * d
    return {y: v for y, v in expected.items() if v}


def ref_tensor(tensor, basis):
    """A tensor's expansion, summed over the products of its factor rows."""
    expected = {}
    for (left, right), c in tensor.terms.items():
        for lk, lc in ref_row(tensor.left_family, left, basis).items():
            for rk, rc in ref_row(tensor.right_family, right, basis).items():
                expected[lk, rk] = expected.get((lk, rk), 0) + c * lc * rc
    return {pair: v for pair, v in expected.items() if v}


@pytest.mark.parametrize("family", ["S", "Y", "M"])
def test_conversions_match_the_per_pair_loop(family):
    keys = [UNITS[family]] + [key for n in range(1, 6)
                              for key in posets.poset_for(family, n).elements]
    for key in keys:
        got = algebra.from_monomial(algebra.LinearCombo(family, "M", {key: 1}))
        assert got.terms == ref_row(family, key, "F"), key
        got = algebra.to_monomial(algebra.LinearCombo(family, "F", {key: 1}))
        assert got.terms == ref_row(family, key, "M"), key
    # a combination of all of them at once, with mixed signs
    combo = {key: (-1) ** i * (i + 1) for i, key in enumerate(keys)}
    got = algebra.from_monomial(algebra.LinearCombo(family, "M", combo))
    assert got.terms == ref_sum(family, combo, "F")


# mixed signs, several right keys per left key, and units on both sides
MIXED_TENSOR = {("1", "."): 2, ("1", "((..).)"): -3, ("{..}", "."): 7,
                ("{{..}.}", "(..)"): 3, ("{{..}.}", "((..).)"): -2, ("{{..}.}", "(.(..))"): 5,
                ("{{..}{..}}", "."): -4, ("{{..}{..}}", "(..)"): 1, ("{.(..)}", "((..).)"): -1}


def spread(family, sizes, rng):
    """Up to four seeded keys of each size in ``sizes`` (the unit for size
    0), with coefficients of both signs."""
    keys = []
    for n in sizes:
        elements = posets.poset_for(family, n).elements if n else [UNITS[family]]
        keys += rng.sample(elements, min(4, len(elements)))
    return {key: rng.choice([-3, -2, -1, 1, 2, 5]) for key in keys}


@pytest.mark.parametrize("basis", ["F", "M"])
def test_tensor_conversion_is_the_product_of_the_factor_rows(basis):
    # the coaction, one tensor written here, and seeded tensors of three
    # family pairs with left keys of sizes 0-4, in the other basis converted
    # into ``basis`` and back
    tensors = [algebra.coaction(key) for n in range(1, 5)
               for key in posets.poset_for("M", n).elements]
    if basis == "F":
        tensors = [algebra.tensor_basis(tensor, "M") for tensor in tensors]
    other = "M" if basis == "F" else "F"
    tensors.append(algebra.TensorCombo("M", "Y", other, other, MIXED_TENSOR))
    rng = random.Random(190)
    for left_family, right_family in (("M", "Y"), ("S", "Y"), ("Y", "M")):
        terms = {(left, right): c * d
                 for left, c in spread(left_family, range(5), rng).items()
                 for right, d in spread(right_family, rng.sample(range(5), 2), rng).items()}
        # two right factors of one left key, one above the other
        poset, left = posets.poset_for(right_family, 3), next(iter(terms))[0]
        terms[left, poset.minimum()] = 2
        terms[left, poset.maximum()] = -2
        tensors.append(algebra.TensorCombo(left_family, right_family, other, other, terms))
    for tensor in tensors:
        got = algebra.tensor_basis(tensor, basis)
        assert got.terms == ref_tensor(tensor, basis), tensor
        assert algebra.tensor_basis(got, other) == tensor


@pytest.mark.parametrize("family", ["S", "Y", "M"])
def test_conversions_round_trip_across_sizes_and_cancel(family):
    rng = random.Random(19)
    for _ in range(5):
        combo = spread(family, range(6), rng)
        for start, convert, back in (("F", algebra.to_monomial, algebra.from_monomial),
                                     ("M", algebra.from_monomial, algebra.to_monomial)):
            x = algebra.LinearCombo(family, start, combo)
            there = convert(x)
            assert there.terms == ref_sum(family, combo, there.basis)
            assert back(there) == x
    for n in range(2, 6):
        poset = posets.poset_for(family, n)
        # a row summed back cancels to its one key, and the up-set of the
        # top cancels out of that of the bottom: zero sums are not kept
        for x in rng.sample(poset.elements, min(5, len(poset))):
            assert poset.mobius_sum(ref_row(family, x, "M")) == {x: 1}
            assert poset.zeta(ref_row(family, x, "F")) == {x: 1}
        low, high = poset.minimum(), poset.maximum()
        assert poset.zeta({low: 1, high: -1}) == {y: 1 for y in poset.elements if y != high}
        assert poset.zeta({}) == poset.mobius_sum({}) == {}


def test_basis_changes_list_no_up_set_or_mobius_row(monkeypatch):
    # the answers first, through the string listings the patch then refuses
    keys = {family: [UNITS[family]] + [key for n in range(1, 5)
                                       for key in posets.poset_for(family, n).elements]
            for family in ("S", "Y", "M")}
    rows = {(family, key, basis): ref_row(family, key, basis)
            for family, family_keys in keys.items() for key in family_keys
            for basis in ("F", "M")}
    tensors = [algebra.coaction(key) for key in keys["M"][1:]]
    monomial = [ref_tensor(tensor, "M") for tensor in tensors]

    def refuse(name):
        def fail(*args):
            raise AssertionError(f"FinitePoset.{name} called by a change of basis")
        return fail
    for name in ("upset", "mobius_row", "_members"):
        monkeypatch.setattr(posets.FinitePoset, name, refuse(name))
    for (family, key, basis), row in rows.items():
        start, convert = (("F", algebra.to_monomial) if basis == "M"
                          else ("M", algebra.from_monomial))
        assert convert(algebra.LinearCombo(family, start, {key: 1})).terms == row
    for tensor, expected in zip(tensors, monomial):
        got = algebra.tensor_basis(tensor, "M")
        assert got.terms == expected
        assert algebra.tensor_basis(got, "F") == tensor
    assert verify.suite_thm3(5).passed


def test_thm3_runs_no_zeta_transform(monkeypatch):
    # both sides of the comparison are fundamental-basis tensors: only the
    # monomial ones are expanded, by Möbius sums
    def fail(self, coefs):
        raise AssertionError("FinitePoset.zeta called by verify thm3")
    monkeypatch.setattr(posets.FinitePoset, "zeta", fail)
    assert verify.suite_thm3(6).passed
