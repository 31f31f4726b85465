"""The key projections ``trees._tau_key`` and ``trees._beta_key``, the prefix
and suffix walks under them, the algebra kernels that graft their keys and
the right cuts, against a recursive argmax key builder written here (the
largest letter is the root, the letters before it the left subtree and those
after it the right one) and right cuts read off a key's brackets.  The
oracles import nothing from ``multisym.trees``."""

import inspect
import itertools
import math
import random
import sys
from collections import Counter

import pytest

from multisym import algebra, trees
from multisym.trees import (
    _PLAIN,
    _beta_key,
    _prefix_keys,
    _suffix_keys,
    _tau_key,
    bileveled_of_perm,
    enumerate_family,
    parse_key,
    render,
    right_cuts,
)


def oracle_key(word, circle_from=None):
    """Key of the decreasing tree of ``word``; letters >= ``circle_from`` circled."""
    if not word:
        return "."
    i = word.index(max(word))
    inner = oracle_key(word[:i], circle_from) + oracle_key(word[i + 1:], circle_from)
    if circle_from is not None and word[i] >= circle_from:
        return "{" + inner + "}"
    return "(" + inner + ")"


def check(word):
    assert _tau_key(word) == oracle_key(word)
    key = _beta_key(word)
    assert key == oracle_key(word, word[0])
    assert render(parse_key("M", key)) == key


def test_every_word_up_to_seven_letters():
    assert _tau_key(()) == "."
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            check(word)


def test_random_words_of_eight_to_twenty_letters():
    rng = random.Random(1010)
    for _ in range(2000):
        word = list(range(1, rng.randint(8, 20) + 1))
        rng.shuffle(word)
        check(tuple(word))


def on_a_short_stack(func, *args):
    """``func(*args)`` with the recursion limit 100 frames above the current
    depth, so that a routine recursing once per letter overflows."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        return func(*args)
    finally:
        sys.setrecursionlimit(limit)


def test_monotone_words_give_the_combs():
    # each letter of the increasing word sits above the ones before it, and
    # each of the decreasing word above the ones after it; only the first
    # letter of the decreasing word is >= its first letter
    n = 5000
    up, down = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    assert on_a_short_stack(_tau_key, up) == "(" * n + "." + ".)" * n
    assert on_a_short_stack(_beta_key, up) == "{" * n + "." + ".}" * n
    assert on_a_short_stack(_tau_key, down) == "(." * n + "." + ")" * n
    assert on_a_short_stack(_beta_key, down) == "{." + "(." * (n - 1) + "." + ")" * (n - 1) + "}"


def test_bileveled_of_perm_builds_the_tree_the_parser_validates():
    # bileveled_of_perm skips validation; the parser runs it
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            assert bileveled_of_perm(word) == parse_key("M", _beta_key(word))


# --- every prefix and every suffix --------------------------------------------


def check_slices(word, circle_from=None):
    """The prefix walk against the oracle on every prefix, and the suffix
    walk on every suffix, plain and circled from the same threshold."""
    threshold = _PLAIN if circle_from is None else circle_from
    n = len(word)
    assert _prefix_keys(word, threshold) == [oracle_key(word[:k], circle_from)
                                             for k in range(n + 1)]
    assert _prefix_keys(word, threshold, False) == [oracle_key(word, circle_from)]
    assert _suffix_keys(word) == [oracle_key(word[k:]) for k in range(n + 1)]
    assert _suffix_keys(word, threshold) == [oracle_key(word[k:], circle_from)
                                             for k in range(n + 1)]


def test_prefix_and_suffix_keys_of_every_word_up_to_seven_letters():
    for n in range(8):
        for word in itertools.permutations(range(1, n + 1)):
            check_slices(word)
            if word:
                check_slices(word, word[0])


def test_prefix_and_suffix_keys_of_random_words_of_eight_to_twenty_letters():
    rng = random.Random(1616)
    for _ in range(300):
        word = list(range(1, rng.randint(8, 20) + 1))
        rng.shuffle(word)
        check_slices(tuple(word))
        check_slices(tuple(word), word[0])
        check_slices(tuple(word), rng.randint(1, len(word)))


@pytest.mark.parametrize("circled", [False, True])
def test_projected_yields_every_word_of_up_to_eight_letters_once_with_its_key(circled):
    key_of = _beta_key if circled else _tau_key
    for n in range(1, 9):
        pairs = list(trees._projected(n, circled))
        words = {word for word, _ in pairs}
        assert len(pairs) == len(words) == math.factorial(n)
        assert words == set(itertools.permutations(range(1, n + 1)))
        assert all(key == key_of(word) for word, key in pairs)


MIRROR = str.maketrans("(){}", ")(}{")


def mirrored_suffix_keys(word, threshold):
    """The suffix keys as the prefix walk of the reversed word gives them:
    the decreasing tree of a reversed word is the mirror image of the
    word's, so each key is read backwards with its brackets swapped."""
    return [key[::-1].translate(MIRROR) for key in reversed(_prefix_keys(word[::-1], threshold))]


def check_suffix_walk(word):
    for threshold in (_PLAIN, word[0] if word else _PLAIN, 3):
        assert _suffix_keys(word, threshold) == mirrored_suffix_keys(word, threshold)


def test_suffix_walk_mirrors_the_prefix_walk_of_the_reversed_word():
    for n in range(8):
        for word in itertools.permutations(range(1, n + 1)):
            check_suffix_walk(word)
    rng = random.Random(1620)
    for _ in range(500):
        word = list(range(1, rng.randint(1, 40) + 1))
        rng.shuffle(word)
        check_suffix_walk(tuple(word))


def test_prefix_and_suffix_walks_on_monotone_words():
    # the increasing word's prefixes and suffixes are left combs, the
    # decreasing word's right combs; only the first letter of the decreasing
    # word is >= its first letter
    n = 5000
    up, down = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    prefixes = on_a_short_stack(_prefix_keys, up)
    assert all(key == "(" * k + "." + ".)" * k for k, key in enumerate(prefixes))
    prefixes = on_a_short_stack(_prefix_keys, down, n)
    assert prefixes[0] == "."
    assert all(key == "{." + "(." * (k - 1) + "." + ")" * (k - 1) + "}"
               for k, key in enumerate(prefixes) if k)
    suffixes = on_a_short_stack(_suffix_keys, up)
    assert all(key == "(" * (n - k) + "." + ".)" * (n - k) for k, key in enumerate(suffixes))
    suffixes = on_a_short_stack(_suffix_keys, down)
    assert all(key == "(." * (n - k) + "." + ")" * (n - k) for k, key in enumerate(suffixes))


# --- the kernels against projecting every term ----------------------------------


def interleave(u, cuts, v):
    """``u`` cut at ``cuts``, one letter of ``v`` raised above ``u`` in each cut."""
    word, pos = [], 0
    for cut, a in zip(cuts, v):
        word += [*u[pos:cut], a + len(u)]
        pos = cut
    return tuple(word) + u[pos:]


def word_of(family, key):
    """The word a tree key stands for, read by ``trees._key_word`` alone (its
    own tests are in test_shared_walks.py): the algebra checks each key by
    walking its word with the projections under test here."""
    return trees._key_word(key, family == "M")


def reference_shuffle(left, x, right, y):
    """Every interleaving projected with the oracle; a tree acting on a
    circled key keeps the words that start with a letter of the circled key."""
    u, v = word_of(left, x), word_of(right, y)
    keys = Counter()
    for cuts in itertools.combinations_with_replacement(range(len(u) + 1), len(v)):
        w = interleave(u, cuts, v)
        if left == "Y":
            keys[oracle_key(w)] += 1
        elif left == right or w[0] <= len(u):
            keys[oracle_key(w, w[0])] += 1
    return dict(keys)


def reference_deconcatenate(left, right, x):
    """Every cut projected with the oracle; the coaction's left piece is nonempty."""
    w = word_of(left, x)
    first = w[0] if left == "M" else None
    return dict(Counter((oracle_key(w[:k], first), oracle_key(w[k:]))
                        for k in range(0 if left == right else 1, len(w) + 1)))


def check_kernels(x_family, x, y_family, y):
    shuffle = algebra._shuffle.__wrapped__
    assert dict(shuffle(x_family, x, y_family, y)) == reference_shuffle(x_family, x, y_family, y)


KERNEL_PAIRS = [("Y", "Y"), ("M", "M"), ("M", "Y")]


@pytest.mark.parametrize("x_family, y_family", KERNEL_PAIRS)
def test_shuffle_matches_projecting_every_interleaving(x_family, y_family):
    start = 1 if y_family == "M" else 0
    for n in range(1 if x_family == "M" else 0, 6):
        for p in range(start, 4):
            for x in enumerate_family(x_family, n):
                for y in enumerate_family(y_family, p):
                    check_kernels(x_family, x, y_family, y)


def test_deconcatenate_matches_projecting_every_cut():
    deconcatenate = algebra._deconcatenate.__wrapped__
    for n in range(7):
        for x in enumerate_family("Y", n):
            assert dict(deconcatenate("Y", "Y", x)) == reference_deconcatenate("Y", "Y", x)
        for x in enumerate_family("M", n) if n else ():
            assert dict(deconcatenate("M", "Y", x)) == reference_deconcatenate("M", "Y", x)


def random_key(rng, family, n):
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return oracle_key(word, word[0] if family == "M" and word else None)


def test_kernels_on_random_keys_up_to_fourteen_nodes():
    rng = random.Random(1617)
    deconcatenate = algebra._deconcatenate.__wrapped__
    for _ in range(60):
        for x_family, y_family in KERNEL_PAIRS:
            x = random_key(rng, x_family, rng.randint(1, 14))
            y = random_key(rng, y_family, rng.randint(1, 3))
            check_kernels(x_family, x, y_family, y)
        for family, right in (("Y", "Y"), ("M", "Y")):
            x = random_key(rng, family, rng.randint(1, 14))
            assert dict(deconcatenate(family, right, x)) == reference_deconcatenate(
                family, right, x)


def subtree_end(key, i):
    """The index just after the subtree of ``key`` that starts at ``i``."""
    depth = 0
    for j in range(i, len(key)):
        depth += (key[j] in "({") - (key[j] in ")}")
        if depth == 0:
            return j + 1


def oracle_right_cuts(key):
    """The right cuts of a circled key, read off its brackets: the whole key
    with a leaf cut off, then, from the deepest right-spine subtree up to the
    root's right child and while the subtree holds no circled node, the key
    with that subtree replaced by a leaf, and the subtree."""
    spine, i = [], 0  # the start of each right-spine node
    while key[i] != ".":
        spine.append(i)
        i = subtree_end(key, i + 1)  # its right child follows its left one
    cuts = [(key, ".")]
    for start in reversed(spine[1:]):
        sub = key[start:subtree_end(key, start)]
        if "{" in sub:
            break
        cuts.append((key[:start] + "." + key[start + len(sub):], sub))
    return cuts


def reference_coaction_monomial(b):
    """One term per right cut, read off the key's brackets."""
    return dict.fromkeys(oracle_right_cuts(b), 1)


def test_monomial_coaction_matches_the_right_cuts():
    for n in range(1, 8):
        for b in enumerate_family("M", n):
            assert algebra.coaction_monomial(b).terms == reference_coaction_monomial(b)
    rng = random.Random(1618)
    for _ in range(300):
        b = random_key(rng, "M", rng.randint(8, 14))
        assert algebra.coaction_monomial(b).terms == reference_coaction_monomial(b)


# --- one walk per factor, not one per term -------------------------------------


@pytest.fixture
def walks(rebind):
    """The arguments of every call of ``trees._prefix_keys`` and
    ``trees._suffix_keys``, through every module that binds them; the
    kernels' memos are emptied before and after."""
    calls = []

    def counted(walk):
        def count(*args):
            calls.append(args)
            return walk(*args)
        return count
    rebind({name: counted(getattr(trees, name)) for name in ("_prefix_keys", "_suffix_keys")},
           (algebra._shuffle, algebra._deconcatenate))
    return calls


def test_kernels_walk_each_factor_once_not_each_term(walks):
    rng = random.Random(1619)
    n, p = 6, 4
    for x_family, y_family in KERNEL_PAIRS:
        x, y = random_key(rng, x_family, n), random_key(rng, y_family, p)
        walks.clear()
        terms = algebra._shuffle(x_family, x, y_family, y)
        total = sum(c for _, c in terms)
        # the action keeps the words that start with a letter of x
        assert total == (math.comb(n + p, p) if x_family == y_family else math.comb(n + p - 1, p))
        assert len(walks) <= n + 2
    # one letter on the right reads only the prefixes and the suffixes of x
    n = 200
    for x_family, y_family in KERNEL_PAIRS:
        x, y = random_key(rng, x_family, n), random_key(rng, y_family, 1)
        walks.clear()
        terms = algebra._shuffle(x_family, x, y_family, y)
        assert sum(c for _, c in terms) == (n + 1 if x_family == y_family else n)
        assert len(walks) <= 3
    for family in ("Y", "M"):
        x = random_key(rng, family, 10)
        walks.clear()
        algebra._deconcatenate(family, "Y", x)
        assert len(walks) <= 2
    walks.clear()
    algebra.coaction_monomial(random_key(rng, "M", 10))
    assert len(walks) <= 2


def test_monomial_coaction_walks_only_the_plain_tail(walks):
    # a circled key on 200 nodes whose section word has its last circled
    # letter 191st: a right cut takes off only a suffix of the nine plain
    # letters after it, so only they are walked from the right
    rng = random.Random(1621)
    plain = list(range(1, 190))
    rng.shuffle(plain)
    key = oracle_key([190, *plain[:180], *range(191, 201), *plain[180:]], 190)
    word = trees.section_word(parse_key("M", key))
    assert len(word) == 200 and max(i for i, a in enumerate(word, 1) if a >= word[0]) == 191
    walks.clear()
    assert algebra.coaction_monomial(key).terms == reference_coaction_monomial(key)
    assert Counter(args[0] for args in walks) == Counter([word, word[191:]])


def spine_cuts(b):
    """``right_cuts`` on tree objects: each uncircled right-spine node's
    subtree, from the deepest up, split off along the leaf after its parent."""
    cuts, spine = [(b, trees.LEAF)], trees.right_spine(b.tree)
    for depth in range(len(spine) - 1, 0, -1):
        if spine[depth] in b.circled:
            break
        rest, sub = trees.split_at(b.tree, (spine[depth - 1] + 1,))
        cuts.append((trees.BiLeveledTree(rest, b.circled), sub))
    return cuts


def test_right_cuts_walk_twice_and_build_no_tree(walks, rebind, monkeypatch):
    # a circled root over a circled cherry and a plain right comb: 199 cuts
    n = 198
    key = "{{..}" + "(." * n + "." + ")" * n + "}"
    b = parse_key("M", key)
    expected = spine_cuts(b)

    def fail(*args):
        raise AssertionError("built a tree to cut a key")
    rebind({"split_at": fail})
    monkeypatch.setattr(trees.BiLeveledTree, "__init__", fail)
    walks.clear()
    assert right_cuts(b) == expected and len(expected) == n + 1
    assert len(walks) <= 2


def test_right_cuts_give_the_spine_cuts():
    keys = [key for n in range(1, 8) for key in enumerate_family("M", n)]
    rng = random.Random(1620)
    keys += [random_key(rng, "M", rng.randint(8, 40)) for _ in range(300)]
    for key in keys:
        b = parse_key("M", key)
        cuts = right_cuts(b)
        assert cuts == spine_cuts(b)
        assert [(render(rest), render(sub)) for rest, sub in cuts] == oracle_right_cuts(key)
        assert all(type(rest) is trees.BiLeveledTree and type(sub) is trees.PlanarTree
                   for rest, sub in cuts)


def test_right_cuts_refuse_a_plain_tree():
    with pytest.raises(TypeError):
        right_cuts(trees.LEAF)
    with pytest.raises(TypeError):
        right_cuts(parse_key("Y", "(..)"))
