import itertools
import random

import pytest
from hypothesis import given, strategies as st

from multisym import trees
from multisym.trees import (
    LEAF,
    ArityError,
    BiLeveledTree,
    ForestDecomposition,
    ParseError,
    PlanarTree,
    ValidityError,
    all_bileveled,
    all_trees,
    avoids_pinned,
    beta_fibers,
    bileveled_of_composition,
    bileveled_of_perm,
    compose_decomposition,
    enumerate_family,
    fiber_min_word,
    fiber_of_tree,
    forest_decomposition,
    graft,
    graft_onto_bileveled,
    graft_onto_tree,
    is_coinvariant_shape,
    left_comb,
    max_word,
    min_word,
    parse_perm,
    parse_tree,
    qsym_composition,
    render,
    render_perm,
    right_comb,
    right_cuts,
    right_graft,
    section_word,
    split_at,
    splittings,
    strip_circles,
    to_left_comb,
    to_right_comb,
    tree_of_perm,
)


def beta_key(word: str) -> str:
    return render(bileveled_of_perm(parse_perm(word)))


def brute_fiber(t: PlanarTree) -> list[tuple[int, ...]]:
    # independent oracle: filter all words by their tree image
    n = t.size
    return sorted(w for w in itertools.permutations(range(1, n + 1))
                  if tree_of_perm(w) == t)


def contains_pattern(word, pattern) -> bool:
    k = len(pattern)
    rank = {v: i for i, v in enumerate(sorted(pattern))}
    target = tuple(rank[v] for v in pattern)
    for sub in itertools.combinations(word, k):
        sub_rank = {v: i for i, v in enumerate(sorted(sub))}
        if tuple(sub_rank[v] for v in sub) == target:
            return True
    return False


# --- strategies -------------------------------------------------------------

tree_keys = st.integers(0, 5).flatmap(
    lambda n: st.sampled_from(enumerate_family("Y", n)))
bileveled_keys = st.integers(1, 5).flatmap(
    lambda n: st.sampled_from(enumerate_family("M", n)))


# --- parsing and rendering --------------------------------------------------

def test_parse_render_examples():
    assert render(parse_tree("(..)")) == "(..)"
    assert parse_tree("(..)").size == 1
    assert parse_tree(".") is LEAF
    two = parse_tree("{{..}.}")
    assert isinstance(two, BiLeveledTree)
    assert two.circled == {1, 2}


def test_parse_rejects_uncircled_leftmost_node():
    with pytest.raises(ValidityError, match="leftmost node"):
        parse_tree("{(..).}")


def test_parse_rejects_circled_child_of_leftmost():
    with pytest.raises(ValidityError, match="no circled children"):
        parse_tree("{.{..}}")


def test_parse_rejects_uncircled_parent():
    # crown must be closed upward: circled node under a plain root
    with pytest.raises(ValidityError):
        parse_tree("({..}.)")


@pytest.mark.parametrize("bad", ["", "(", "(.)", "(...)", "(..))", "x", "(..)x"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_tree(bad)


@pytest.mark.parametrize("bad, message", [
    ("", "unexpected end of input: ''"),
    ("(.", "unexpected end of input: '(.'"),
    ("(.)", "unexpected character ')' at position 2: '(.)'"),
    ("(...)", "expected ')' at position 3: '(...)'"),
    ("{..)", "expected '}' at position 3: '{..)'"),
    ("(..))", "trailing characters at position 4: '(..))'"),
    ("(x.)", "unexpected character 'x' at position 1: '(x.)'"),
])
def test_parse_error_messages(bad, message):
    with pytest.raises(ParseError) as exc:
        parse_tree(bad)
    assert str(exc.value) == message


def matched_ends(key):
    """Per index of ``key``, one past a leaf, one past the closer that
    matches an opener, and 0 at a closer, by a stack of open brackets."""
    ends, stack = [0] * len(key), []
    for i, ch in enumerate(key):
        if ch == ".":
            ends[i] = i + 1
        elif ch in "({":
            stack.append(i)
        else:
            ends[stack.pop()] = i + 1
    return ends


@pytest.mark.parametrize("key", [
    "(" * 5000 + "." + ".)" * 5000,  # left comb
    "(." * 5000 + "." + ")" * 5000,  # right comb
    "{" * 5000 + "." + ".}" * 5000,  # left comb, every node circled
])
def test_deep_keys_round_trip(key):
    obj = parse_tree(key)
    assert obj.size == 5000
    assert render(obj) == key
    assert trees._ends(key) == matched_ends(key)


DEEP = {
    "left comb": lambda: left_comb(5000),
    "right comb": lambda: right_comb(5000),
    "circled left comb": lambda: parse_tree("{" * 5000 + "." + ".}" * 5000),
    "circled right comb": lambda: BiLeveledTree(right_comb(5000), {1}),
    "tau of an increasing word": lambda: tree_of_perm(tuple(range(1, 3001))),
    "beta of an increasing word": lambda: bileveled_of_perm(tuple(range(1, 3001))),
    "beta of a decreasing word": lambda: bileveled_of_perm(tuple(range(3000, 0, -1))),
}


@pytest.mark.parametrize("make", DEEP.values(), ids=DEEP.keys())
def test_deep_trees_compare_and_hash_without_recursion(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert b in {a} and len({a, b}) == 1
    assert a != LEAF and a != render(a)


def subtree_end(key, i):
    """The index just after the subtree of ``key`` that starts at i, by
    recursion on the grammar: a subtree is a leaf or an opener, two subtrees
    and a closer."""
    return i + 1 if key[i] == "." else subtree_end(key, subtree_end(key, i + 1)) + 1


def split_key(key):
    """The keys of the two subtrees of an internal node's key."""
    middle = subtree_end(key, 1)
    return key[1:middle], key[middle:-1]


def read_key(key, offset=0, parent=None):
    """Each node of ``key`` as (in-order index, parent, left child, right
    child, circled), and the root's index, by recursion on its subtrees."""
    if key == ".":
        return [], None
    left, right = split_key(key)
    index = offset + left.count(".")
    left_nodes, left_root = read_key(left, offset, index)
    right_nodes, right_root = read_key(right, index, index)
    return [(index, parent, left_root, right_root, key[0] == "{"),
            *left_nodes, *right_nodes], index


@pytest.mark.parametrize("family, n", [("Y", n) for n in range(8)]
                         + [("M", n) for n in range(1, 7)])
def test_tree_objects_read_their_keys_as_the_recursive_grammar_does(family, n):
    for key in enumerate_family(family, n):
        obj = parse_tree(key)
        tree = obj.tree if family == "M" else obj
        nodes, root = read_key(key)
        assert trees._ends(key) == [0 if ch in ")}" else subtree_end(key, i)
                                    for i, ch in enumerate(key)]
        assert render(tree) == key.replace("{", "(").replace("}", ")")
        assert obj.size == tree.size == len(nodes) == n
        if n:
            assert (render(tree.left), render(tree.right)) == split_key(render(tree))
            assert PlanarTree(tree.left, tree.right) == tree
        else:
            assert tree is LEAF and tree.left is None and tree.right is None
        children = {i: (left, right) for i, _, left, right, _ in nodes}
        assert trees.node_relations(tree) == (
            {i: parent for i, parent, *_ in nodes}, children)
        spine = []
        while root is not None:
            spine.append(root)
            root = children[root][1]
        assert trees.right_spine(tree) == spine
        if family == "M":
            assert obj.circled == {i for i, *_, circled in nodes if circled}
            assert BiLeveledTree(obj.tree, obj.circled) == obj


def validity_failure(tree, circled):
    """The message of the first validity rule ``circled`` breaks, or None;
    the smallest node with an uncircled parent is the one reported."""
    n = tree.size
    parent, children = trees.node_relations(tree)
    if not set(circled) <= set(range(1, n + 1)):
        return f"circled indices out of range 1..{n}"
    if 1 not in circled:
        return "leftmost node (index 1) must be circled"
    if set(children[1]) & set(circled):
        return "leftmost node must have no circled children"
    bad = [c for c in circled if parent[c] is not None and parent[c] not in circled]
    return f"circled node {min(bad)} has an uncircled parent" if bad else None


def test_validity_reports_the_first_broken_rule():
    rng = random.Random(11)
    for _ in range(2000):
        word = list(range(1, rng.randint(1, 14) + 1))
        rng.shuffle(word)
        tree = tree_of_perm(tuple(word))
        circled = frozenset(i for i in range(0, tree.size + 2) if rng.random() < 0.6)
        expected = validity_failure(tree, circled)
        if expected is None:
            assert BiLeveledTree(tree, circled).circled == circled
        else:
            with pytest.raises(ValidityError) as exc:
                BiLeveledTree(tree, circled)
            assert str(exc.value) == expected


def test_validity_reports_the_smallest_uncircled_parent():
    comb = right_comb(10)  # node i has right child i + 1
    # nodes 4 and 10 both sit below uncircled parents; the set iterates 10 first
    assert list(frozenset({1, 4, 10})) == [1, 10, 4]
    with pytest.raises(ValidityError, match="^circled node 4 has an uncircled parent$"):
        BiLeveledTree(comb, frozenset({1, 4, 10}))
    # a circled child of node 1 is reported before either of them
    with pytest.raises(ValidityError, match="^leftmost node must have no circled children$"):
        BiLeveledTree(comb, frozenset({1, 2, 4, 10}))


@given(tree_keys)
def test_tree_round_trip(key):
    assert render(parse_tree(key)) == key


@given(bileveled_keys)
def test_bileveled_round_trip(key):
    obj = parse_tree(key)
    assert isinstance(obj, BiLeveledTree)
    assert render(obj) == key


def test_perm_strings():
    assert parse_perm("1423") == (1, 4, 2, 3)
    assert render_perm((1, 4, 2, 3)) == "1423"
    assert parse_perm("") == ()
    long = tuple(range(1, 11))
    assert parse_perm(render_perm(long)) == long
    with pytest.raises(ValidityError):
        parse_perm("122")
    with pytest.raises(ParseError):
        parse_perm("1a2")
    # int() reads these, but none is the canonical string of its word
    for text in ("1,2", "1, 2", "2,+1", "1\u0662", "1_0", " 12", "1,2,3,4,5,6,7,8,9,1_0"):
        with pytest.raises(ParseError):
            parse_perm(text)


# --- enumeration ------------------------------------------------------------

def test_enumeration_counts():
    assert len(enumerate_family("Y", 4)) == 14
    assert len(enumerate_family("M", 4)) == 21
    assert len(enumerate_family("S", 4)) == 24
    assert [len(enumerate_family("M", n)) for n in range(1, 7)] == [1, 2, 6, 21, 80, 322]


def test_enumeration_sorted_and_degree_zero():
    for family, n in (("S", 3), ("Y", 3), ("M", 3)):
        keys = enumerate_family(family, n)
        assert keys == sorted(keys)
    assert enumerate_family("S", 0) == [""]
    assert enumerate_family("Y", 0) == ["."]


def brute_bileveled(n):
    """Every (tree, circled set) on n nodes that passes the three validity
    rules, found by filtering every set of in-order indices of every tree."""
    out = []
    for tree in all_trees(n):
        parent, stack = {}, [(tree, 0, None)]
        while stack:
            t, offset, par = stack.pop()
            if not t.is_leaf:
                i = offset + t.left.size + 1
                parent[i] = par
                stack += [(t.left, offset, i), (t.right, i, i)]
        for k in range(n + 1):
            for circled in itertools.combinations(range(1, n + 1), k):
                # node 1 circled, none of its children, every other circled
                # node below a circled parent
                if 1 in circled and all(parent[i] is None
                                        or (parent[i] != 1 and parent[i] in circled)
                                        for i in circled):
                    out.append((tree, frozenset(circled)))
    return out


def key_of(tree, circled, offset=0):
    if tree.is_leaf:
        return "."
    i = offset + tree.left.size + 1
    opener, closer = "{}" if i in circled else "()"
    return (opener + key_of(tree.left, circled, offset)
            + key_of(tree.right, circled, i) + closer)


@pytest.mark.parametrize("n", range(1, 8))
def test_bileveled_enumeration_matches_a_brute_force(n):
    expected = sorted(brute_bileveled(n), key=lambda pair: key_of(*pair))
    assert [(b.tree, b.circled) for b in all_bileveled(n)] == expected
    assert enumerate_family("M", n) == [key_of(*pair) for pair in expected]


def test_enumeration_rejects_empty_circled_family():
    with pytest.raises(ValueError):
        enumerate_family("M", 0)


# --- the projection to trees ------------------------------------------------

def test_tree_of_perm_examples():
    shared = tree_of_perm(parse_perm("1423"))
    assert tree_of_perm(parse_perm("2413")) == shared
    assert tree_of_perm(parse_perm("3412")) == shared
    assert render(shared) == "((..)((..).))"
    assert render(tree_of_perm((1,))) == "(..)"


def recursive_tree_of_perm(word):
    if not word:
        return LEAF
    i = word.index(max(word))
    return PlanarTree(recursive_tree_of_perm(word[:i]),
                      recursive_tree_of_perm(word[i + 1:]))


def test_tree_of_perm_matches_the_recursive_definition():
    words = [w for n in range(8) for w in itertools.permutations(range(1, n + 1))]
    rng = random.Random(23)
    for _ in range(1000):
        word = list(range(1, rng.randint(8, 14) + 1))
        rng.shuffle(word)
        words.append(tuple(word))
    for w in words:
        assert tree_of_perm(w) == recursive_tree_of_perm(w)


def test_word_is_linear_extension_of_its_tree():
    for w in itertools.permutations(range(1, 6)):
        parent, _ = trees.node_relations(tree_of_perm(w))
        assert all(w[i - 1] < w[parent[i] - 1]
                   for i in parent if parent[i] is not None)


def test_fiber_examples():
    t = parse_tree("((..)((..).))")
    assert sorted(render_perm(w) for w in fiber_of_tree(t)) == ["1423", "2413", "3412"]
    assert fiber_of_tree(parse_tree("(..)")) == [(1,)]
    assert fiber_of_tree(parse_tree("(.(.(..)))")) == [(3, 2, 1)]
    # circles do not change the node order
    assert fiber_of_tree(parse_tree("{{..}(..)}")) == fiber_of_tree(parse_tree("((..)(..))"))


def test_fiber_matches_brute_force():
    for n in range(1, 7):
        for key, t in zip(enumerate_family("Y", n), all_trees(n)):
            assert trees._key_fiber(key) == fiber_of_tree(t) == brute_fiber(t), key


@pytest.mark.parametrize("n", range(1, 9))
def test_tree_fibers_match_a_grouping_of_the_permutations(n):
    # each word grouped by its tree's key in the order the permutations come
    # in, so each fiber sorted: the fiber read off each plain key's brackets
    # has the same words in the same order
    expected = {}
    for word in itertools.permutations(range(1, n + 1)):
        expected.setdefault(render(tree_of_perm(word)), []).append(word)
    assert {key: trees._key_fiber(key) for key in enumerate_family("Y", n)} == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_fiber_size_counts_the_fiber(n):
    for key in enumerate_family("Y", n):
        assert trees._fiber_size(key) == len(trees._key_fiber(key)), key


def test_min_max_words():
    t = parse_tree("((..)((..).))")
    assert render_perm(min_word(t)) == "1423"
    assert render_perm(max_word(t)) == "3412"
    one = parse_tree("(..)")
    assert min_word(one) == max_word(one) == (1,)
    split_shape = parse_tree("((..)(..))")
    assert render_perm(min_word(split_shape)) == "132"
    assert render_perm(max_word(split_shape)) == "231"


def test_min_max_are_the_unique_pattern_avoiders():
    for n in range(1, 6):
        for t in all_trees(n):
            fiber = fiber_of_tree(t)
            avoiding_231 = [w for w in fiber if not contains_pattern(w, (2, 3, 1))]
            avoiding_132 = [w for w in fiber if not contains_pattern(w, (1, 3, 2))]
            assert avoiding_231 == [min_word(t)]
            assert avoiding_132 == [max_word(t)]


# --- the bi-leveled projection ----------------------------------------------

def test_bileveled_of_perm_examples():
    assert beta_key("2413") == "{{..}{(..).}}"
    assert beta_key("3412") == "{{..}((..).)}"
    assert beta_key("1423") == "{{..}{{..}.}}"


def test_forgetting_circles_factors_the_tree_map():
    for w in itertools.permutations(range(1, 5)):
        assert strip_circles(bileveled_of_perm(w)) == tree_of_perm(w)


def test_beta_fibers_partition():
    for n in range(1, 6):
        fibers = beta_fibers(n)
        words = [render_perm(w) for fiber in fibers.values() for w in fiber]
        assert sorted(words) == enumerate_family("S", n)
        assert sorted(fibers) == enumerate_family("M", n)
    # the empty word has no circled image, as in bileveled_of_perm
    with pytest.raises(ValidityError, match="the empty word has no bi-leveled image"):
        beta_fibers(0)


@pytest.mark.parametrize("n", range(1, 9))
def test_beta_fibers_match_a_grouping_of_the_permutations(n):
    # each word rendered and grouped in the order the permutations come in:
    # the fibers in the order of their least words, each one sorted; the
    # fiber read off each circled key's brackets has the same words in order
    expected = {}
    for word in itertools.permutations(range(1, n + 1)):
        expected.setdefault(render(bileveled_of_perm(word)), []).append(render_perm(word))
    got = {key: [render_perm(w) for w in words] for key, words in beta_fibers(n).items()}
    assert list(got.items()) == list(expected.items())
    read = {key: [render_perm(w) for w in trees._key_fiber(key)]
            for key in enumerate_family("M", n)}
    assert read == expected


def test_beta_fibers_build_a_new_table_for_each_call():
    from multisym import verify

    fibers = beta_fibers(4)
    key = next(iter(fibers))
    words = fibers.pop(key)
    fibers[key + "x"] = ()
    again = beta_fibers(4)
    assert again is not fibers and len(again) == 21
    assert again[key] == words and key + "x" not in again
    assert verify.suite_fibers(4).summary_line() == "suite=fibers n_max=4 status=pass"


# --- forest decomposition ---------------------------------------------------

def test_decomposition_worked_example():
    dec = forest_decomposition(bileveled_of_perm(parse_perm("56187243")))
    assert dec.base.size == 4
    assert tuple(t.size for t in dec.hanging) == (0, 1, 0, 3)


def test_decomposition_small_cases():
    dec = forest_decomposition(parse_tree("{{..}.}"))
    assert render(dec.base) == "((..).)"
    assert all(t is LEAF for t in dec.hanging)
    dec = forest_decomposition(bileveled_of_perm(parse_perm("43521")))
    assert render(dec.base) == "((..).)"
    assert tuple(t.size for t in dec.hanging) == (1, 2)


def test_decomposition_round_trip():
    for n in range(1, 6):
        for key in enumerate_family("M", n):
            b = parse_tree(key)
            assert compose_decomposition(forest_decomposition(b)) == b


def test_compose_rejects_invalid_reassembly():
    # a right-comb base puts a circled child under the leftmost node
    bad = ForestDecomposition(right_comb(2), (LEAF, LEAF))
    with pytest.raises(ValidityError):
        compose_decomposition(bad)
    with pytest.raises(ArityError):
        ForestDecomposition(left_comb(2), (LEAF,))


# --- splittings -------------------------------------------------------------

def test_splitting_counts():
    two = parse_tree("((..).)")
    assert len(splittings(two, 2)) == 6
    b = bileveled_of_perm(parse_perm("3241"))
    assert len(splittings(b, 1, restricted=True)) == 4
    assert len(splittings(parse_tree("(.(..))"), 0)) == 1
    import math
    for n in range(0, 4):
        for t in all_trees(n):
            for p in range(0, 4):
                assert len(splittings(t, p)) == math.comb(n + p, p)
                if p >= 1 and n >= 1:
                    expected = math.comb(n + p, p) - math.comb(n + p - 1, p - 1)
                    assert len(splittings(t, p, restricted=True)) == expected


@given(tree_keys, st.data())
def test_splittings_are_consistent(key, data):
    t = parse_tree(key)
    p = data.draw(st.integers(0, 3))
    for sp in splittings(t, p):
        assert sp.is_consistent()
        assert sum(sp.piece_sizes) == t.size


def test_piece_circles_localize():
    b = bileveled_of_perm(parse_perm("2413"))  # circled {1, 2, 4}
    sp = next(s for s in splittings(b, 1) if s.piece_sizes == (2, 2))
    assert sp.piece_circles() == (frozenset({1, 2}), frozenset({2}))


# --- grafting ---------------------------------------------------------------

def test_graft_examples():
    dot = parse_tree("(..)")
    assert render(graft((LEAF, dot), dot)) == "(.(..))"
    assert render(graft((dot, LEAF), dot)) == "((..).)"
    t = parse_tree("((..)((..).))")
    assert graft((LEAF,) * 5, t) == t
    with pytest.raises(ArityError):
        graft((LEAF, LEAF), t)


@given(tree_keys, st.data())
def test_graft_then_recut_recovers_pieces(key, data):
    # cut t, graft onto any base, then cut again at the piece boundaries:
    # the even blocks are the original pieces, the odd ones the base's nodes
    t = parse_tree(key)
    p = data.draw(st.integers(0, 3))
    base = parse_tree(data.draw(st.sampled_from(enumerate_family("Y", p))))
    sp = data.draw(st.sampled_from(splittings(t, p)))
    grafted = graft(sp, base)
    boundaries, acc = [], 0
    for i, size in enumerate(sp.piece_sizes[:-1]):
        acc += size
        boundaries.extend([acc + i + 1, acc + i + 2])
    blocks = split_at(grafted, tuple(boundaries))
    assert blocks[0::2] == sp.pieces
    assert all(piece.size == 1 for piece in blocks[1::2])


def test_graft_onto_bileveled_six_terms_valid_and_distinct():
    b = bileveled_of_perm(parse_perm("21"))
    results = [render(graft_onto_bileveled(sp, b)) for sp in splittings(b, 2)]
    assert len(results) == 6
    assert len(set(results)) == 6


def test_graft_onto_bileveled_uncircled_branch():
    # empty first piece: the grafted nodes lose their circles, the base keeps its own
    b = bileveled_of_perm(parse_perm("21"))
    sp = next(s for s in splittings(b, 2) if s.leaves == (1, 1))
    out = graft_onto_bileveled(sp, b)
    assert render(out) == beta_key("4321")
    assert out.circled == {1}


def test_graft_onto_bileveled_arity():
    b = bileveled_of_perm(parse_perm("21"))
    with pytest.raises(ArityError):
        graft_onto_bileveled(splittings(b, 0)[0], b)


def test_graft_onto_tree_requires_nonempty_first_piece():
    b = bileveled_of_perm(parse_perm("21"))
    sp = next(s for s in splittings(b, 2) if s.leaves == (1, 1))
    with pytest.raises(ValueError):
        graft_onto_tree(sp, parse_tree("((..).)"))


def test_graft_onto_tree_identity_and_sweep():
    for key in enumerate_family("M", 3):
        b = parse_tree(key)
        assert graft_onto_tree(splittings(b, 0, restricted=True)[0], LEAF) == b
    for key in enumerate_family("M", 4):
        b = parse_tree(key)
        for s_key in enumerate_family("Y", 2):
            s = parse_tree(s_key)
            for sp in splittings(b, 2, restricted=True):
                graft_onto_tree(sp, s)  # constructor re-validates every output


# --- right grafting and cuts ------------------------------------------------

def test_right_graft():
    b = parse_tree("{{..}.}")
    assert right_graft(b, LEAF) == b
    assert render(right_graft(b, parse_tree("(..)"))) == "{{..}(..)}"
    s = parse_tree("(.(..))")
    assert right_graft(b, s).size == b.size + s.size


def test_right_cuts_counts():
    assert len(right_cuts(bileveled_of_perm(parse_perm("3241")))) == 2
    assert len(right_cuts(bileveled_of_perm(parse_perm("35421")))) == 3
    fully = parse_tree("{{..}{{..}.}}")
    assert right_cuts(fully) == [(fully, LEAF)]


def test_right_cuts_invert_right_graft():
    for n in range(1, 6):
        for key in enumerate_family("M", n):
            b = parse_tree(key)
            cuts = right_cuts(b)
            assert cuts[0] == (b, LEAF)
            sizes = [s.size for _, s in cuts]
            assert sizes == sorted(sizes)
            for smaller, s in cuts:
                assert right_graft(smaller, s) == b


# --- sections ---------------------------------------------------------------

def test_section_words_on_worked_example():
    b = bileveled_of_perm(parse_perm("56187243"))
    assert render_perm(fiber_min_word(b)) == "56187243"
    assert render_perm(section_word(b)) == "56487231"


def test_section_words_small_case():
    b = parse_tree("{{.(..)}(..)}")
    assert render_perm(fiber_min_word(b)) == "3142"
    assert render_perm(section_word(b)) == "3241"
    assert sorted(beta_fibers(4)[render(b)]) == [parse_perm("3142"), parse_perm("3241")]


def test_sections_land_in_their_fiber():
    for n in range(1, 6):
        for key, fiber in beta_fibers(n).items():
            b = parse_tree(key)
            assert fiber_min_word(b) in fiber
            assert section_word(b) in fiber


def test_pinned_patterns():
    assert avoids_pinned(parse_perm("56487231"))
    assert not avoids_pinned(parse_perm("56187243"))
    assert avoids_pinned((1,))


def test_section_is_the_unique_pinned_avoider():
    for n in range(1, 6):
        for key, fiber in beta_fibers(n).items():
            section = section_word(parse_tree(key))
            assert [w for w in fiber if avoids_pinned(w)] == [section]


# --- combs and compositions -------------------------------------------------

def test_comb_maps():
    assert to_left_comb(tree_of_perm(parse_perm("231"))) == tree_of_perm(parse_perm("123"))
    assert to_right_comb(tree_of_perm(parse_perm("2314"))) == tree_of_perm(parse_perm("4321"))
    comb = right_comb(4)
    assert to_right_comb(comb) == comb


def test_composition_maps():
    assert qsym_composition(bileveled_of_perm(parse_perm("43521"))) == (2, 3)
    assert bileveled_of_composition((1, 2, 1, 4)) == bileveled_of_perm(parse_perm("56478321"))
    fully_circled = BiLeveledTree(left_comb(4), frozenset({1, 2, 3, 4}))
    assert qsym_composition(fully_circled) == (1, 1, 1, 1)


def test_composition_matches_the_hanging_sizes():
    rng = random.Random(1818)
    objs = [b for n in range(1, 8) for b in all_bileveled(n)]
    for _ in range(300):
        word = list(range(1, rng.randint(8, 14) + 1))
        rng.shuffle(word)
        objs.append(bileveled_of_perm(tuple(word)))
    for b in objs:
        hanging = forest_decomposition(b).hanging
        assert qsym_composition(b) == tuple(t.size + 1 for t in hanging), render(b)


def test_comb_of_combs_matches_the_composed_forest():
    for n in range(1, 9):
        for parts in compositions(n):
            hanging = tuple(right_comb(a - 1) for a in parts)
            forest = ForestDecomposition(left_comb(len(parts)), hanging)
            assert bileveled_of_composition(parts) == compose_decomposition(forest), parts


def test_composition_round_trip_and_fibers():
    import math
    for n in range(1, 7):
        compositions = set()
        total = 0
        for key in enumerate_family("M", n):
            parts = qsym_composition(parse_tree(key))
            assert sum(parts) == n
            compositions.add(parts)
            total += 1
        # surjective onto all 2^(n-1) compositions; fibers partition the family
        assert len(compositions) == 2 ** (n - 1)
        assert total == len(enumerate_family("M", n))
        for parts in compositions:
            assert qsym_composition(bileveled_of_composition(parts)) == parts
    for parts in ((), (0, 2)):
        with pytest.raises(ValidityError, match="composition parts must be positive"):
            bileveled_of_composition(parts)


# --- coinvariant shapes -----------------------------------------------------

def test_coinvariant_shapes():
    assert is_coinvariant_shape(parse_tree("{{..}.}"))
    assert not is_coinvariant_shape(parse_tree("{.(..)}"))
    assert is_coinvariant_shape(parse_tree("{{..}{{..}.}}"))
    counts = [sum(is_coinvariant_shape(parse_tree(k)) for k in enumerate_family("M", n))
              for n in range(1, 6)]
    assert counts == [1, 1, 3, 11, 44]


@pytest.mark.usefixtures("refuse_tables")
@pytest.mark.parametrize("objects, family, limit", [
    (all_trees, "Y", 14), (all_bileveled, "M", 12)], ids=["all_trees", "all_bileveled"])
def test_object_tables_refuse_sizes_too_large_to_hold(objects, family, limit):
    message = f"^enumeration of {family} is limited to n <= {limit}, got n = {limit + 1}$"
    with pytest.raises(ValueError, match=message):
        objects(limit + 1)


@pytest.mark.parametrize("objects, family, n, message", [
    (all_trees, "Y", -1, "size must be nonnegative"),
    (all_bileveled, "M", -1, "size must be nonnegative"),
    (all_bileveled, "M", 0, "there is no bi-leveled tree on 0 nodes")])
def test_object_tables_refuse_bad_sizes_as_the_enumeration_does(objects, family, n, message):
    for call in (objects, lambda n: enumerate_family(family, n)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(n)


def test_the_plain_table_on_zero_nodes_is_the_leaf():
    assert all_trees(0) == (LEAF,)


def test_coinvariant_shape_matches_single_cut():
    for n in range(1, 6):
        for key in enumerate_family("M", n):
            b = parse_tree(key)
            assert is_coinvariant_shape(b) == (len(right_cuts(b)) == 1)


def compositions(n):
    """The compositions of ``n``, one per subset of the n - 1 inner cut points."""
    for mask in range(2 ** (n - 1)):
        cuts = [0] + [i for i in range(1, n) if mask >> (i - 1) & 1] + [n]
        yield tuple(b - a for a, b in zip(cuts, cuts[1:]))


def test_composition_keys_round_trip():
    for n in range(1, 7):
        found = list(compositions(n))
        assert len(set(found)) == 2 ** (n - 1)
        for parts in found:
            key = trees.render_key("Q", parts)
            assert key == "(" + ",".join(map(str, parts)) + ")"
            assert trees.parse_key("Q", key) == parts
    assert trees.parse_key("Q", "(1,2)") == trees.parse_composition("(1,2)") == (1, 2)


@pytest.mark.parametrize("bad, error", [
    ("()", ParseError), ("(a)", ParseError), ("(0,1)", ValidityError),
    # int() takes spaces, signs, "_" and other digits: only the canonical text parses
    ("(1, 2)", ParseError), ("1,2", ParseError), ("(+1,2)", ParseError),
    ("(1_0)", ParseError), ("(1\u0662)", ParseError)])
def test_composition_keys_rejected(bad, error):
    with pytest.raises(error, match="composition"):
        trees.parse_key("Q", bad)


def test_parse_key_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'Z'") as exc:
        trees.parse_key("Z", "(1)")
    assert type(exc.value) is ValueError
