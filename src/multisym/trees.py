"""Planar binary trees, circled-node trees, and the maps between them.

Everything here is immutable and exact.  Canonical strings use ``.`` for a
leaf, ``(LR)`` for a plain internal node and ``{LR}`` for a circled one;
permutations render as digit strings (comma separated past nine letters).
Internal nodes are indexed 1..n in in-order (left subtree, node, right
subtree), and all circled-node bookkeeping is done on those indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache


class ParseError(ValueError):
    """A string does not match the canonical grammar."""


class ValidityError(ValueError):
    """A circled-node set violates one of the validity rules."""


class ArityError(ValueError):
    """A forest and a base tree disagree about the number of slots."""


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class PlanarTree:
    """Rooted planar binary tree; the bare leaf (no children) has size 0."""

    left: PlanarTree | None = None
    right: PlanarTree | None = None
    size: int = field(init=False, compare=False)

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise ValueError("an internal node needs both children, a leaf neither")
        n = 0 if self.left is None else self.left.size + self.right.size + 1
        object.__setattr__(self, "size", n)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self):
        return f"PlanarTree[{render(self)}]"


LEAF = PlanarTree()


def _check_bileveled(tree: PlanarTree, circled: frozenset[int]) -> None:
    n = tree.size
    if n == 0:
        raise ValidityError("a circled tree needs at least one node")
    if not circled <= frozenset(range(1, n + 1)):
        raise ValidityError(f"circled indices out of range 1..{n}")
    if 1 not in circled:
        raise ValidityError("leftmost node (index 1) must be circled")
    parent, children = node_relations(tree)
    for child in children[1]:
        if child is not None and child in circled:
            raise ValidityError("leftmost node must have no circled children")
    root = tree.left.size + 1
    for c in circled:
        if c != root and parent[c] not in circled:
            raise ValidityError(f"circled node {c} has an uncircled parent")


@dataclass(frozen=True)
class BiLeveledTree:
    """A planar tree with an upward-closed crown of circled nodes.

    ``circled`` holds in-order node indices.  Validity: node 1 is circled
    and has no circled children, and every circled non-root node has a
    circled parent (so the crown is connected and contains the root).
    """

    tree: PlanarTree
    circled: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "circled", frozenset(self.circled))
        _check_bileveled(self.tree, self.circled)

    @property
    def size(self) -> int:
        return self.tree.size

    def __repr__(self):
        return f"BiLeveledTree[{render(self)}]"


@dataclass(frozen=True)
class ForestDecomposition:
    """Circled base tree plus the uncircled trees hanging above its leaves.

    ``hanging[i]`` sits above leaf ``i + 2`` of the base; the slot above
    leaf 1 is always empty, which is forced by validity of the source.
    """

    base: PlanarTree
    hanging: tuple[PlanarTree, ...]

    def __post_init__(self):
        if len(self.hanging) != self.base.size:
            raise ArityError("need exactly one hanging tree per base node")

    @property
    def size(self) -> int:
        return self.base.size + sum(t.size for t in self.hanging)


@dataclass(frozen=True)
class Splitting:
    """One way of cutting a tree along ``leaves`` down to the root.

    ``pieces`` are the resulting subtrees, left to right; they occupy
    consecutive in-order blocks of the source, so ``circled`` (present when
    the source is bi-leveled) localises to each piece by offset arithmetic.
    """

    source: PlanarTree
    circled: frozenset[int] | None
    leaves: tuple[int, ...]
    pieces: tuple[PlanarTree, ...]

    @property
    def piece_sizes(self) -> tuple[int, ...]:
        return tuple(t.size for t in self.pieces)

    def piece_circles(self) -> tuple[frozenset[int], ...]:
        if self.circled is None:
            return tuple(frozenset() for _ in self.pieces)
        out, start = [], 0
        for t in self.pieces:
            out.append(frozenset(c - start for c in self.circled
                                 if start < c <= start + t.size))
            start += t.size
        return tuple(out)

    def is_consistent(self) -> bool:
        return (sum(self.piece_sizes) == self.source.size
                and split_at(self.source, self.leaves) == self.pieces)


# ---------------------------------------------------------------------------
# canonical strings


def render(obj) -> str:
    """Canonical string of a tree or bi-leveled tree."""
    if isinstance(obj, PlanarTree):
        return _render_tree(obj)
    if isinstance(obj, BiLeveledTree):
        return _render_circled(obj.tree, 0, obj.circled)
    raise TypeError(f"cannot render {type(obj).__name__}")


def _render_tree(t: PlanarTree) -> str:
    if t.is_leaf:
        return "."
    return f"({_render_tree(t.left)}{_render_tree(t.right)})"


def _render_circled(t: PlanarTree, offset: int, circled: frozenset[int]) -> str:
    if t.is_leaf:
        return "."
    root = offset + t.left.size + 1
    inner = _render_circled(t.left, offset, circled) + _render_circled(t.right, root, circled)
    return "{%s}" % inner if root in circled else "(%s)" % inner


def parse_tree(text: str) -> PlanarTree | BiLeveledTree:
    """Parse a canonical string; circled braces yield a validated BiLeveledTree."""
    tree, circled, end = _parse(text, 0)
    if end != len(text):
        raise ParseError(f"trailing characters at position {end}: {text!r}")
    if circled:
        return BiLeveledTree(tree, circled)
    return tree


def _parse(s: str, i: int):
    if i >= len(s):
        raise ParseError(f"unexpected end of input: {s!r}")
    ch = s[i]
    if ch == ".":
        return LEAF, frozenset(), i + 1
    if ch in "({":
        closer = ")" if ch == "(" else "}"
        left, cl, j = _parse(s, i + 1)
        right, cr, j2 = _parse(s, j)
        if j2 >= len(s) or s[j2] != closer:
            raise ParseError(f"expected {closer!r} at position {j2}: {s!r}")
        root = left.size + 1
        circled = frozenset(cl) | frozenset(c + root for c in cr)
        if ch == "{":
            circled |= {root}
        return PlanarTree(left, right), circled, j2 + 1
    raise ParseError(f"unexpected character {ch!r} at position {i}: {s!r}")


def render_perm(word: tuple[int, ...]) -> str:
    if len(word) <= 9:
        return "".join(str(a) for a in word)
    return ",".join(str(a) for a in word)


def parse_perm(text: str) -> tuple[int, ...]:
    if text == "":
        return ()
    try:
        if "," in text:
            word = tuple(int(a) for a in text.split(","))
        else:
            word = tuple(int(a) for a in text)
    except ValueError:
        raise ParseError(f"not a permutation string: {text!r}") from None
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValidityError(f"not a bijection on 1..{len(word)}: {text!r}")
    return word


def render_composition(parts: tuple[int, ...]) -> str:
    return "(%s)" % ",".join(str(a) for a in parts)


def parse_composition(text: str) -> tuple[int, ...]:
    body = text[1:-1] if text.startswith("(") and text.endswith(")") else text
    try:
        parts = tuple(int(a) for a in body.split(","))
    except ValueError:
        raise ParseError(f"not a composition string: {text!r}") from None
    if not parts or any(a < 1 for a in parts):
        raise ValidityError(f"composition parts must be positive: {text!r}")
    return parts


def parse_key(family: str, key: str):
    """The object behind a canonical key of family ``S`` (words), ``Y`` (plain
    trees), ``M`` (circled trees) or ``Q`` (compositions); a tree key of the
    wrong kind raises ``ValidityError``."""
    if family == "S":
        return parse_perm(key)
    if family == "Q":
        return parse_composition(key)
    if family not in ("Y", "M"):
        raise ValueError(f"unknown family {family!r}")
    obj = parse_tree(key)
    if family == "Y" and isinstance(obj, BiLeveledTree):
        raise ValidityError(f"{key!r} has circled nodes; expected a plain tree")
    if family == "M" and not isinstance(obj, BiLeveledTree):
        raise ValidityError(f"{key!r} has no circled nodes; expected a circled key")
    return obj


def render_key(family: str, obj) -> str:
    """Canonical key of an object of family ``S``, ``Y``, ``M`` or ``Q``."""
    if family == "S":
        return render_perm(obj)
    if family == "Q":
        return render_composition(obj)
    return render(obj)


# ---------------------------------------------------------------------------
# node indexing


@lru_cache(maxsize=None)
def node_relations(tree: PlanarTree):
    """Parent and (left, right) child indices for each in-order node index."""
    parent: dict[int, int | None] = {}
    children: dict[int, tuple[int | None, int | None]] = {}

    def walk(t, offset, par):
        if t.is_leaf:
            return None
        root = offset + t.left.size + 1
        parent[root] = par
        lc = walk(t.left, offset, root)
        rc = walk(t.right, root, root)
        children[root] = (lc, rc)
        return root

    walk(tree, 0, None)
    return parent, children


def right_spine(tree: PlanarTree) -> list[int]:
    """In-order indices of the root and its iterated right children."""
    spine, node, start = [], tree, 0
    while not node.is_leaf:
        root = start + node.left.size + 1
        spine.append(root)
        node, start = node.right, root
    return spine


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple[PlanarTree, ...]:
    if n == 0:
        return (LEAF,)
    out = []
    for k in range(n):
        for left in all_trees(k):
            for right in all_trees(n - 1 - k):
                out.append(PlanarTree(left, right))
    return tuple(sorted(out, key=render))


@lru_cache(maxsize=None)
def all_bileveled(n: int) -> tuple[BiLeveledTree, ...]:
    if n < 1:
        raise ValueError("bi-leveled trees need at least one node")
    out = []
    for tree in all_trees(n):
        parent, children = node_relations(tree)
        root = tree.left.size + 1
        forbidden = {c for c in children[1] if c is not None}
        for bits in range(1 << n):
            circled = frozenset(i + 1 for i in range(n) if bits >> i & 1)
            if 1 not in circled or circled & forbidden:
                continue
            if any(c != root and parent[c] not in circled for c in circled):
                continue
            out.append(BiLeveledTree(tree, circled))
    return tuple(sorted(out, key=render))


def enumerate_family(family: str, n: int) -> list[str]:
    """Sorted canonical keys of S_n, Y_n or M_n."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    if family == "S":
        return sorted(render_perm(w) for w in itertools.permutations(range(1, n + 1)))
    if family == "Y":
        return [render(t) for t in all_trees(n)]
    if family == "M":
        if n == 0:
            raise ValueError("there is no bi-leveled tree on 0 nodes")
        return [render(b) for b in all_bileveled(n)]
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# the three basic maps


def tree_of_perm(word: tuple[int, ...]) -> PlanarTree:
    """The unique tree whose node order the word extends (largest value at the root)."""
    if not word:
        return LEAF
    i = word.index(max(word))
    return PlanarTree(tree_of_perm(word[:i]), tree_of_perm(word[i + 1:]))


def fiber_of_tree(t: PlanarTree) -> list[tuple[int, ...]]:
    """All linear extensions of the node order of ``t``, as words by position."""
    if t.size == 0:
        raise ValueError("fibers are defined for trees with at least one node")

    def extensions(t, labels):
        if t.is_leaf:
            return [()]
        k = t.left.size
        top, rest = labels[-1], labels[:-1]
        out = []
        for left_labels in itertools.combinations(rest, k):
            right_labels = tuple(a for a in rest if a not in left_labels)
            for lw in extensions(t.left, left_labels):
                for rw in extensions(t.right, right_labels):
                    out.append(lw + (top,) + rw)
        return out

    return sorted(extensions(t, tuple(range(1, t.size + 1))))


def min_word(t: PlanarTree) -> tuple[int, ...]:
    """The smallest (231-avoiding) word mapping to ``t``: left subtrees take low letters."""

    def build(t, labels):
        if t.is_leaf:
            return ()
        k = t.left.size
        return build(t.left, labels[:k]) + (labels[-1],) + build(t.right, labels[k:-1])

    return build(t, tuple(range(1, t.size + 1)))


def max_word(t: PlanarTree) -> tuple[int, ...]:
    """The largest (132-avoiding) word mapping to ``t``: left subtrees take high letters."""

    def build(t, labels):
        if t.is_leaf:
            return ()
        k = t.left.size
        return build(t.left, labels[-1 - k:-1]) + (labels[-1],) + build(t.right, labels[:-1 - k])

    return build(t, tuple(range(1, t.size + 1)))


def bileveled_of_perm(word: tuple[int, ...]) -> BiLeveledTree:
    """Tree of the word with every node carrying a value >= the first letter circled."""
    if not word:
        raise ValidityError("the empty word has no bi-leveled image")
    circled = frozenset(i + 1 for i, a in enumerate(word) if a >= word[0])
    return BiLeveledTree(tree_of_perm(word), circled)


def strip_circles(b: BiLeveledTree) -> PlanarTree:
    return b.tree


@lru_cache(maxsize=None)
def beta_fibers(n: int) -> dict[str, tuple[str, ...]]:
    """Group the words of S_n by their bi-leveled image, keys and words canonical."""
    fibers: dict[str, list[str]] = {}
    for word in itertools.permutations(range(1, n + 1)):
        key = render(bileveled_of_perm(word))
        fibers.setdefault(key, []).append(render_perm(word))
    return {key: tuple(sorted(words)) for key, words in fibers.items()}


# ---------------------------------------------------------------------------
# forest decomposition


def forest_decomposition(b: BiLeveledTree) -> ForestDecomposition:
    """Split ``b`` into its circled base and the uncircled trees hanging above it."""
    slots: list[PlanarTree] = []

    def induced(t, offset):
        # called only when the root of t is circled
        root = offset + t.left.size + 1
        sides = []
        for sub, sub_offset in ((t.left, offset), (t.right, root)):
            sub_root = sub_offset + sub.left.size + 1 if not sub.is_leaf else None
            if sub_root is not None and sub_root in b.circled:
                sides.append(induced(sub, sub_offset))
            else:
                slots.append(sub)
                sides.append(LEAF)
        return PlanarTree(*sides)

    base = induced(b.tree, 0)
    if slots[0].size != 0:
        raise ValidityError("slot above leaf 1 of the base must be empty")
    return ForestDecomposition(base, tuple(slots[1:]))


def compose_decomposition(dec: ForestDecomposition) -> BiLeveledTree:
    """Inverse of ``forest_decomposition``; rejects forests whose reassembly is invalid."""
    tree = graft((LEAF,) + dec.hanging, dec.base)
    sizes = [LEAF.size] + [t.size for t in dec.hanging]
    circled, acc = set(), 0
    for k in range(1, dec.base.size + 1):
        acc += sizes[k - 1]
        circled.add(acc + k)
    return BiLeveledTree(tree, frozenset(circled))


# ---------------------------------------------------------------------------
# splittings and graftings


def _split_once(t: PlanarTree, leaf: int) -> tuple[PlanarTree, PlanarTree]:
    if t.is_leaf:
        return t, t
    k = t.left.size
    if leaf <= k + 1:
        a, b = _split_once(t.left, leaf)
        return a, PlanarTree(b, t.right)
    a, b = _split_once(t.right, leaf - k - 1)
    return PlanarTree(t.left, a), b


def split_at(t: PlanarTree, leaves: tuple[int, ...]) -> tuple[PlanarTree, ...]:
    """Cut ``t`` along a weakly increasing tuple of leaf indices (1-based)."""
    if any(b < a for a, b in zip(leaves, leaves[1:])):
        raise ValueError("cut leaves must be weakly increasing")
    pieces, rest, offset = [], t, 0
    for leaf in leaves:
        if not 1 <= leaf - offset <= rest.size + 1:
            raise ValueError(f"leaf index {leaf} out of range")
        piece, rest = _split_once(rest, leaf - offset)
        pieces.append(piece)
        offset = leaf - 1
    pieces.append(rest)
    return tuple(pieces)


def splittings(obj: PlanarTree | BiLeveledTree, p: int,
               restricted: bool = False) -> list[Splitting]:
    """All p-splittings of ``obj`` in lex order of the chosen leaf tuples.

    ``restricted`` keeps only those whose first piece is nonempty.  A
    bi-leveled source keeps its circles (see ``Splitting.piece_circles``).
    """
    if p < 0:
        raise ValueError("cannot choose a negative number of leaves")
    if isinstance(obj, BiLeveledTree):
        tree, circled = obj.tree, obj.circled
    else:
        tree, circled = obj, None
    out = []
    for leaves in itertools.combinations_with_replacement(range(1, tree.size + 2), p):
        pieces = split_at(tree, leaves)
        if restricted and pieces[0].size == 0:
            continue
        out.append(Splitting(tree, circled, leaves, pieces))
    return out


def graft(forest, base: PlanarTree) -> PlanarTree:
    """Attach the ``base.size + 1`` trees of ``forest`` above the leaves of ``base``."""
    pieces = tuple(forest.pieces) if isinstance(forest, Splitting) else tuple(forest)
    if len(pieces) != base.size + 1:
        raise ArityError(f"{len(pieces)} pieces cannot graft onto {base.size} nodes")

    def go(t, i):
        if t.is_leaf:
            return pieces[i], i + 1
        left, i = go(t.left, i)
        right, i = go(t.right, i)
        return PlanarTree(left, right), i

    tree, _ = go(base, 0)
    return tree


def _graft_circled(splitting: Splitting, base: PlanarTree,
                   base_circled: frozenset[int]) -> BiLeveledTree:
    """Graft a split bi-leveled tree onto ``base`` and place the circles.

    If the first piece is nonempty, every base node is circled and the
    pieces keep their circles; otherwise all piece nodes lose their circles
    and the base keeps ``base_circled``.  Either way the result is valid.
    """
    if splitting.circled is None:
        raise ValueError("the splitting must come from a bi-leveled source")
    tree = graft(splitting, base)
    # piece i starts after offsets[i]; base node k lands at base_pos[k-1]
    offsets, base_pos, acc = [], [], 0
    for i, size in enumerate(splitting.piece_sizes):
        offsets.append(acc + i)
        acc += size
        if i < base.size:
            base_pos.append(acc + i + 1)
    if splitting.pieces[0].size > 0:
        circled = {off + c for off, circ in zip(offsets, splitting.piece_circles())
                   for c in circ}
        circled.update(base_pos)
    else:
        circled = {base_pos[k - 1] for k in base_circled}
    return BiLeveledTree(tree, frozenset(circled))


def graft_onto_bileveled(splitting: Splitting, base: BiLeveledTree) -> BiLeveledTree:
    """Graft a split bi-leveled tree onto a bi-leveled base (see ``_graft_circled``)."""
    return _graft_circled(splitting, base.tree, base.circled)


def graft_onto_tree(splitting: Splitting, base: PlanarTree) -> BiLeveledTree:
    """Graft a restricted split bi-leveled tree onto a plain base, circling all of it."""
    if splitting.pieces[0].size == 0:
        raise ValueError("the first piece must be nonempty")
    return _graft_circled(splitting, base, frozenset())


def right_graft(b: BiLeveledTree, s: PlanarTree) -> BiLeveledTree:
    """Attach ``s``, uncircled, at the rightmost leaf of ``b``."""

    def attach(t):
        if t.is_leaf:
            return s
        return PlanarTree(t.left, attach(t.right))

    return BiLeveledTree(attach(b.tree), b.circled)


def right_cuts(b: BiLeveledTree) -> list[tuple[BiLeveledTree, PlanarTree]]:
    """All pairs (b', s) with ``right_graft(b', s) == b``, smallest cut first."""
    cuts = [(b, LEAF)]
    spine, node, start = [], b.tree, 0
    while not node.is_leaf:
        root = start + node.left.size + 1
        spine.append((node, start))
        node, start = node.right, root
    for depth in range(len(spine) - 1, 0, -1):
        sub, sub_start = spine[depth]
        if any(sub_start < c <= sub_start + sub.size for c in b.circled):
            break

        def truncate(t, d):
            if d == depth:
                return LEAF
            return PlanarTree(t.left, truncate(t.right, d + 1))

        cuts.append((BiLeveledTree(truncate(b.tree, 0), b.circled), sub))
    return cuts


# ---------------------------------------------------------------------------
# sections of the bi-leveled projection


def _relabel(word: tuple[int, ...], letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(letters[a - 1] for a in word)


def _interleave(u, vs):
    out = []
    for a, v in zip(u, vs):
        out.append(a)
        out.extend(v)
    return tuple(out)


def section_word(b: BiLeveledTree) -> tuple[int, ...]:
    """The order-embedding section of the bi-leveled projection.

    The base takes the top letters via its minimal word; hanging trees take
    maximal words on letter blocks assigned bottom-up from the right
    (empty trees contribute empty blocks).
    """
    dec = forest_decomposition(b)
    n, p = b.size, dec.base.size
    u = _relabel(min_word(dec.base), tuple(range(n - p + 1, n + 1)))
    blocks, next_letter = [None] * p, 1
    for i in range(p - 1, -1, -1):
        size = dec.hanging[i].size
        blocks[i] = tuple(range(next_letter, next_letter + size))
        next_letter += size
    vs = [_relabel(max_word(dec.hanging[i]), blocks[i]) for i in range(p)]
    return _interleave(u, vs)


def fiber_min_word(b: BiLeveledTree) -> tuple[int, ...]:
    """The smallest word in the fiber of ``b``: minimal words everywhere,
    hanging blocks assigned left to right, base letters on top."""
    dec = forest_decomposition(b)
    n, p = b.size, dec.base.size
    u = _relabel(min_word(dec.base), tuple(range(n - p + 1, n + 1)))
    vs, next_letter = [], 1
    for i in range(p):
        size = dec.hanging[i].size
        letters = tuple(range(next_letter, next_letter + size))
        next_letter += size
        vs.append(_relabel(min_word(dec.hanging[i]), letters))
    return _interleave(u, vs)


_PINNED = (
    (1, 3, 4, 2),  # 0231 with the 0 pinned to the first letter
    (4, 1, 3, 2),  # 3021 with the 3 pinned
    (3, 1, 4, 2),  # 2031 with the 2 pinned
)


def _standardize(values: tuple[int, ...]) -> tuple[int, ...]:
    order = sorted(values)
    return tuple(order.index(a) + 1 for a in values)


def avoids_pinned(word: tuple[int, ...]) -> bool:
    """True iff no length-4 pattern from the pinned list starts at letter one."""
    if len(word) < 4:
        return True
    first, rest = word[0], word[1:]
    for triple in itertools.combinations(rest, 3):
        if _standardize((first,) + triple) in _PINNED:
            return False
    return True


# ---------------------------------------------------------------------------
# combs and compositions


def left_comb(n: int) -> PlanarTree:
    t = LEAF
    for _ in range(n):
        t = PlanarTree(t, LEAF)
    return t


def right_comb(n: int) -> PlanarTree:
    t = LEAF
    for _ in range(n):
        t = PlanarTree(LEAF, t)
    return t


def to_left_comb(t: PlanarTree) -> PlanarTree:
    return left_comb(t.size)


def to_right_comb(t: PlanarTree) -> PlanarTree:
    return right_comb(t.size)


def qsym_composition(b: BiLeveledTree) -> tuple[int, ...]:
    """The composition (|s_1|+1, ..., |s_p|+1) read off the forest decomposition."""
    dec = forest_decomposition(b)
    return tuple(t.size + 1 for t in dec.hanging)


def bileveled_of_composition(parts: tuple[int, ...]) -> BiLeveledTree:
    """The comb of combs indexed by a composition: circled left-comb base,
    right combs hanging above its leaves."""
    if not parts or any(a < 1 for a in parts):
        raise ValidityError("composition parts must be positive")
    hanging = tuple(right_comb(a - 1) for a in parts)
    return compose_decomposition(ForestDecomposition(left_comb(len(parts)), hanging))


def is_coinvariant_shape(b: BiLeveledTree) -> bool:
    """True iff every node on the right spine is circled."""
    return all(i in b.circled for i in right_spine(b.tree))


# ---------------------------------------------------------------------------
# the structural maps by name


# op -> (source family, target family, map on parsed objects)
MAPS = {
    "tau": ("S", "Y", tree_of_perm),
    "beta": ("S", "M", bileveled_of_perm),
    "phi": ("M", "Y", strip_circles),
    "min": ("Y", "S", min_word),
    "max": ("Y", "S", max_word),
    "mm": ("M", "S", fiber_min_word),
    "Mm": ("M", "S", section_word),
    "gammaL": ("Y", "Y", to_left_comb),
    "gammaR": ("Y", "Y", to_right_comb),
    "qsym": ("M", "Q", qsym_composition),
}
