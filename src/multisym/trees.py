"""Planar binary trees, circled-node trees, and the maps between them.

Everything here is immutable and exact.  Canonical strings (keys) use ``.``
for a leaf, ``(LR)`` for a plain internal node and ``{LR}`` for a circled
one; a tree object holds its key, which ``render`` reads.  Permutations
render as digit strings (comma separated past nine letters).
Internal nodes are indexed 1..n in in-order (left subtree, node, right
subtree), and all circled-node bookkeeping is done on those indices.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter


class ParseError(ValueError):
    """A string does not match the canonical grammar."""


class ValidityError(ValueError):
    """A circled-node set violates one of the validity rules."""


class ArityError(ValueError):
    """A forest and a base tree disagree about the number of slots."""


# ---------------------------------------------------------------------------
# core types

_set = object.__setattr__  # how a record's __init__ writes its fields


class _Frozen:
    """A value written once, when it is made: assigning or deleting raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Record(_Frozen):
    """An immutable record: a ``namedtuple``, or ``__slots__`` that ``__init__``
    writes by ``_set``.  ``_fields`` names its constructor's parameters, and it
    equals only a record of its own class with equal fields (never a tuple)."""

    __slots__ = ()

    def _values(self):
        return attrgetter(*self._fields)(self)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._values() == other._values()

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def _replace(self, **changes):
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)

    def __reduce__(self):  # copy and pickle rebuild it through its checks
        return type(self), tuple([getattr(self, name) for name in self._fields])


class _Tree(_Frozen):
    """A tree is its canonical key: ``_hold`` writes ``key`` and ``size`` into
    the instance dict, and the tree compares and hashes on ``key`` alone."""

    def __eq__(self, other):
        return self.key == other.key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"{type(self).__name__}[{self.key}]"


class PlanarTree(_Tree):
    """Rooted planar binary tree; the bare leaf (no children) has size 0.  It
    is its canonical key: equality and hashing compare ``key``, and ``left``
    and ``right`` are read off it on first access and kept."""

    def __init__(self, left: PlanarTree | None = None, right: PlanarTree | None = None):
        if (left is None) != (right is None):
            raise ValueError("an internal node needs both children, a leaf neither")
        _hold(self, "." if left is None else "(" + left.key + right.key + ")")

    @cached_property
    def left(self) -> PlanarTree | None:
        return None if self.is_leaf else _of_key(self.key[1:_ends(self.key)[1]])

    @cached_property
    def right(self) -> PlanarTree | None:
        return None if self.is_leaf else _of_key(self.key[_ends(self.key)[1]:-1])

    @property
    def is_leaf(self) -> bool:
        return self.key == "."


class BiLeveledTree(_Tree):
    """A planar tree with an upward-closed crown of circled nodes.

    ``circled`` holds in-order node indices.  Validity: node 1 is circled
    and has no circled children, and every circled non-root node has a
    circled parent (so the crown is connected and contains the root).  Like
    a plain tree, it is its key: ``tree`` and ``circled`` are read off it on
    first access and kept.
    """

    def __init__(self, tree: PlanarTree, circled):
        key, circled = render(tree), frozenset(circled)
        _check_bileveled(key, circled)
        # the key of a fiber word with the crown's letters on top, node 1's
        # lowest: a circled node's parent is circled and not node 1
        n = len(key) // 3
        _hold(self, _beta_key(tuple(a + n * (2 * (i in circled) - (i == 1))
                                    for i, a in enumerate(_key_word(key), 1))))

    @cached_property
    def tree(self) -> PlanarTree:
        return _of_key(self.key.translate(_UNCIRCLE))

    @cached_property
    def circled(self) -> frozenset[int]:
        """In the least fiber word, the letters of the circled nodes lie above
        every plain node's (see ``_key_word``)."""
        plain = self.key.count("(")
        return frozenset(i for i, a in enumerate(_key_word(self.key), 1) if a > plain)


def _hold(obj, key: str):
    """Write ``key`` and its size (n nodes take 3n + 1 characters) into ``obj``."""
    fields = obj.__dict__  # a tree refuses assignment, so its dict is written
    fields["key"], fields["size"] = key, len(key) // 3
    return obj


LEAF = PlanarTree()


def _of_key(key: str) -> PlanarTree | BiLeveledTree:
    """The object of a key valid by construction, unchecked: ``LEAF``, a
    plain tree or a circled one."""
    if key == ".":
        return LEAF
    return _hold(object.__new__(BiLeveledTree if "{" in key else PlanarTree), key)


def _ends(key: str) -> list[int]:
    """Per index i of a tree key, the index just after the subtree that
    starts at i (0 at a closer), read in one right-to-left pass: a leaf ends
    after itself, and a node after the closer that follows its two subtrees.
    A subtree on s nodes spans 3s + 1 characters."""
    ends = [0] * len(key)
    for i in range(len(key) - 1, -1, -1):
        if key[i] == ".":
            ends[i] = i + 1
        elif key[i] in "({":
            ends[i] = ends[ends[i + 1]] + 1
    return ends


def _parents(key: str) -> dict[int, int | None]:
    """The parent of each node of a tree key (None for the root), by in-order
    index: a node's index is the number of leaves up to the end of its left
    subtree, and its children open just after it and at that end."""
    ends = _ends(key)
    up, parent, leaves = [None] * len(key), {}, 0  # up[i]: the parent of the subtree at i
    for i, ch in enumerate(key):
        if ch == ".":
            leaves += 1
        elif ch in "({":
            # the left subtree on s nodes spans 3s + 1 characters and has s + 1 leaves
            mid = ends[i + 1]
            index = leaves + (mid - i - 1) // 3 + 1
            parent[index] = up[i]
            up[i + 1] = up[mid] = index
    return parent


def _check_bileveled(key: str, circled: frozenset[int]) -> None:
    """Check ``circled`` as a crown of the tree of ``key``; a circled child of
    node 1 is reported before the smallest circled node below a plain one."""
    n = len(key) // 3
    if n == 0:
        raise ValidityError("a circled tree needs at least one node")
    if not all(c in range(1, n + 1) for c in circled):
        raise ValidityError(f"circled indices out of range 1..{n}")
    if 1 not in circled:
        raise ValidityError("leftmost node (index 1) must be circled")
    parent = _parents(key)
    below = [i for i, p in parent.items() if p is not None and i in circled]
    if any(parent[i] == 1 for i in below):
        raise ValidityError("leftmost node must have no circled children")
    bad = [i for i in below if parent[i] not in circled]
    if bad:
        raise ValidityError(f"circled node {min(bad)} has an uncircled parent")


class ForestDecomposition(_Record, namedtuple("ForestDecomposition", "base hanging")):
    """Circled base tree plus the uncircled trees hanging above its leaves.

    ``hanging[i]`` sits above leaf ``i + 2`` of the base; the slot above
    leaf 1 is always empty, which is forced by validity of the source.
    """

    __slots__ = ()

    def __new__(cls, base: PlanarTree, hanging: tuple[PlanarTree, ...]):
        if len(hanging) != base.size:
            raise ArityError("need exactly one hanging tree per base node")
        return super().__new__(cls, base, hanging)


class Splitting(_Record, namedtuple("Splitting", "source circled leaves pieces")):
    """One way of cutting a tree along ``leaves`` down to the root.

    ``pieces`` are the resulting subtrees, left to right; they occupy
    consecutive in-order blocks of the source, so ``circled`` (present when
    the source is bi-leveled) localises to each piece by offset arithmetic.
    """

    __slots__ = ()

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
    """Canonical string of a tree or bi-leveled tree: the key it holds."""
    if isinstance(obj, (PlanarTree, BiLeveledTree)):
        return obj.key
    raise TypeError(f"cannot render {type(obj).__name__}")


def parse_tree(text: str) -> PlanarTree | BiLeveledTree:
    """Parse a canonical string; circled braces yield a validated BiLeveledTree.

    One left-to-right scan: each open node waits on the stack for its two
    children, then for its closer.
    """
    stack: list[list] = []  # open nodes: [closer, left child done]
    i, end = 0, len(text)
    while True:
        # a tree starts at i
        if i >= end:
            raise ParseError(f"unexpected end of input: {text!r}")
        ch = text[i]
        i += 1
        if ch in "({":
            stack.append([")" if ch == "(" else "}", False])
            continue
        if ch != ".":
            raise ParseError(f"unexpected character {ch!r} at position {i - 1}: {text!r}")
        # a tree ends before i: it is the left child, the right child or the root
        while stack and stack[-1][1]:
            closer = stack.pop()[0]
            if i >= end or text[i] != closer:
                raise ParseError(f"expected {closer!r} at position {i}: {text!r}")
            i += 1
        if not stack:
            break
        stack[-1][1] = True
    if i != end:
        raise ParseError(f"trailing characters at position {i}: {text!r}")
    obj = _of_key(text)
    if isinstance(obj, BiLeveledTree):
        _check_bileveled(text, obj.circled)
    return obj


def render_perm(word: tuple[int, ...]) -> str:
    if len(word) <= 9:
        return "".join(str(a) for a in word)
    return ",".join(str(a) for a in word)


def _perm_of_key(key: str) -> tuple[int, ...]:
    """The word of a key of S_n, unchecked (``parse_perm`` checks)."""
    return tuple(map(int, key.split(",") if "," in key else key))


def parse_perm(text: str) -> tuple[int, ...]:
    try:
        word = _perm_of_key(text)
    except ValueError:
        raise ParseError(f"not a permutation string: {text!r}") from None
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValidityError(f"not a bijection on 1..{len(word)}: {text!r}")
    if render_perm(word) != text:  # int() also takes spaces, signs, "_" and other digits
        raise ParseError(f"not a permutation string: {text!r}")
    return word


def render_composition(parts: tuple[int, ...]) -> str:
    return "(%s)" % ",".join(str(a) for a in parts)


def parse_composition(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(a) for a in text[1:-1].split(","))
    except ValueError:
        raise ParseError(f"not a composition string: {text!r}") from None
    if render_composition(parts) != text:  # int() also takes spaces, signs, "_" and other digits
        raise ParseError(f"not a composition string: {text!r}")
    if any(a < 1 for a in parts):
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


def node_relations(tree: PlanarTree):
    """Parent and (left, right) child indices for each in-order node index."""
    parent = _parents(render(tree))
    children: dict[int, list[int | None]] = {i: [None, None] for i in sorted(parent)}
    for i, p in parent.items():
        if p is not None:
            children[p][i > p] = i
    return parent, {i: tuple(pair) for i, pair in children.items()}


def right_spine(tree: PlanarTree) -> list[int]:
    """In-order indices of the root and its iterated right children: the
    places of the right-to-left maxima of the minimal word."""
    word, spine = min_word(tree), []
    for i in range(len(word), 0, -1):
        if not spine or word[i - 1] > word[spine[-1] - 1]:
            spine.append(i)
    return spine[::-1]


# ---------------------------------------------------------------------------
# enumeration


def _join(brackets: str, lefts: list[tuple[str, int]], rights) -> tuple[str, ...]:
    """Every key ``brackets[0] + left + right + brackets[1]``, sorted, for
    each (left key, its size) of ``lefts`` and each key of the sorted table
    ``rights(size)``.  No key is a prefix of another, so keys with different
    left parts compare as those parts: sorting the few left parts sorts the
    join."""
    opener, closer = brackets
    return tuple([opener + left + right + closer
                  for left, size in sorted(lefts) for right in rights(size)])


@lru_cache(maxsize=None)
def _trees(n: int) -> tuple[str, ...]:
    """The keys of Y_n, sorted, joined from the tables of the smaller sizes."""
    if n == 0:
        return (".",)
    return _join("()", [(key, k) for k in range(n) for key in _trees(k)],
                 lambda k: _trees(n - 1 - k))


@lru_cache(maxsize=None)
def _upsets(n: int) -> tuple[str, ...]:
    """The keys of Y_n circled on an upward-closed node set, sorted: the plain
    keys (``(`` sorts before ``{``), then a circled root over an upset of
    each subtree."""
    if n == 0:
        return (".",)
    return _trees(n) + _join("{}", [(key, k) for k in range(n) for key in _upsets(k)],
                             lambda k: _upsets(n - 1 - k))


@lru_cache(maxsize=None)
def _bileveled(n: int) -> tuple[str, ...]:
    """The keys of M_n, sorted: a circled root over a key of M_k and an upset
    of the right subtree, or, node 1 being the root, over a leaf and a plain
    right subtree."""
    lefts = [(".", 0)] + [(key, k) for k in range(1, n) for key in _bileveled(k)]
    return _join("{}", lefts, lambda k: _upsets(n - 1 - k) if k else _trees(n - 1))


@lru_cache(maxsize=None)
def _parsed(family: str, n: int) -> tuple:
    """The objects of ``enumerate_family(family, n)``, made once per size."""
    return tuple(map(_of_key, enumerate_family(family, n)))


def all_trees(n: int) -> tuple[PlanarTree, ...]:
    """The planar trees on n nodes, sorted by key (the order of
    ``enumerate_family("Y", n)``)."""
    return _parsed("Y", n)


def all_bileveled(n: int) -> tuple[BiLeveledTree, ...]:
    """The bi-leveled trees on n nodes, sorted by key (the order of
    ``enumerate_family("M", n)``)."""
    return _parsed("M", n)


# The largest key table of each family held at once, one process each on
# Python 3.11: S_10 takes 325 MB in 7.6 s, Y_14 485 MB in 1.8 s and M_12
# 473 MB in 1.6 s; the next sizes are about 11, 3.6 and 4.7 times larger
MAX_ENUMERATION_N = {"S": 10, "Y": 14, "M": 12}


def _check_size(order: str, n: int, limit: int) -> None:
    if n > limit:
        raise ValueError(f"{order} is limited to n <= {limit}, got n = {n}")


def _check_count(what: str, unit: str, count: int) -> None:
    """Refuse ``what`` past the 10! items of the S_10 table, before any is built."""
    limit = math.factorial(MAX_ENUMERATION_N["S"])
    if count > limit:
        raise ValueError(f"{what} is limited to {limit} {unit}, got {count}")


def check_enumeration_size(family: str, n: int) -> None:
    """Refuse a key table of ``family`` too large to hold, before any work."""
    _check_size(f"enumeration of {family}", n, MAX_ENUMERATION_N[family])


def enumerate_family(family: str, n: int) -> list[str]:
    """Sorted canonical keys of S_n, Y_n or M_n."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    if family not in MAX_ENUMERATION_N:
        raise ValueError(f"unknown family {family!r}")
    check_enumeration_size(family, n)
    if family == "S":
        if n <= 9:
            # one digit per letter: the permutations of a sorted string come sorted
            return list(map("".join, itertools.permutations("123456789"[:n])))
        return sorted(render_perm(w) for w in itertools.permutations(range(1, n + 1)))
    if family == "Y":
        return list(_trees(n))
    if n == 0:
        raise ValueError("there is no bi-leveled tree on 0 nodes")
    return list(_bileveled(n))


# ---------------------------------------------------------------------------
# the three basic maps


def tree_of_perm(word: tuple[int, ...]) -> PlanarTree:
    """The unique tree whose node order the word extends (largest value at
    the root), held as the key of the word's decreasing-tree walk."""
    return _of_key(_tau_key(word))


# The decreasing tree of a word is its right spine, each spine node with the
# finished part on its left; its key is the spine's heads (opening bracket
# and left part), a leaf, and the spine's closing brackets, deepest first.
# The inverse reads a key's word off its brackets (``_key_word``): the walk
# of that word gives the key back, circled from its first letter if circled.

_PLAIN = sys.maxsize  # a threshold above every letter: nothing circled
_UNCIRCLE = str.maketrans("{}", "()")  # a circled key to its shape's key
_CIRCLE = str.maketrans("()", "{}")


def _prefix_keys(word: tuple[int, ...], circle_from: int = _PLAIN,
                 every: bool = True) -> list[str]:
    """The key of the decreasing tree of each prefix of ``word``, shortest
    (the empty one, ``"."``) first, a node circled iff its letter is at least
    ``circle_from``; with ``every`` false, only the key of ``word`` itself.

    A letter takes the spine nodes with smaller letters as its left part:
    their heads, a leaf and as many closing brackets.
    """
    keys = ["."]
    heads, letters, closes = [], [_PLAIN], ""  # letters[0] is a sentinel
    for a in word:
        if letters[-1] < a:
            i = len(heads) - 1  # heads[i] is the head of letters[i + 1]
            while letters[i] < a:
                i -= 1
            popped = len(heads) - i
            left = "".join(heads[i:]) + "." + closes[:popped]
            del heads[i:], letters[i + 1:]
            closes = closes[popped:]
        else:
            left = "."
        if a >= circle_from:
            heads.append("{" + left)
            closes = "}" + closes
        else:
            heads.append("(" + left)
            closes = ")" + closes
        letters.append(a)
        if every:
            keys.append("".join(heads) + "." + closes)
    return keys if every else ["".join(heads) + "." + closes]


def _suffix_keys(word: tuple[int, ...], circle_from: int = _PLAIN) -> list[str]:
    """The key of the decreasing tree of each suffix of ``word``, longest
    first, circled as in ``_prefix_keys``, by its walk mirrored: a letter
    takes the left spine's nodes with smaller letters as its right part, and
    a key is the spine's openers, a leaf and each node's tail (its right part
    and closer), deepest first."""
    keys, opens, tail = ["."], "", ""
    letters, held = [_PLAIN], [0]  # held[i]: the length of tail held by the top i nodes
    for a in reversed(word):
        right = "."
        if letters[-1] < a:
            i = len(letters) - 2
            while letters[i] < a:
                i -= 1
            cut = len(tail) - held[i]
            right = opens[i:] + "." + tail[:cut]
            del letters[i + 1:], held[i + 1:]
            opens, tail = opens[:i], tail[cut:]
        if a >= circle_from:
            opens, tail = opens + "{", right + "}" + tail
        else:
            opens, tail = opens + "(", right + ")" + tail
        letters.append(a)
        held.append(len(tail))
        keys.append(opens + "." + tail)
    return keys[::-1]


def _tau_key(word: tuple[int, ...]) -> str:
    """The key of the decreasing tree of ``word``, the last of its prefix walk."""
    return _prefix_keys(word, _PLAIN, False)[0]


def _beta_key(word: tuple[int, ...]) -> str:
    """The key of the decreasing tree of a nonempty word circled from its
    first letter, valid by construction: the first letter is circled, its
    children are smaller, and a circled node's parent, a larger letter, is
    circled too."""
    return _prefix_keys(word, word[0], False)[0]


def _projected(n: int, circled: bool):
    """Every word of S_n with the key of its tree, plain, or with ``circled``
    circled from its first letter (the keys of ``_tau_key`` and ``_beta_key``).

    The largest letter is the root of the decreasing tree, over the trees of
    the letters on its left and on its right, so for each word w of S_{n-1}
    one prefix walk and one suffix walk give the keys of all n words
    w[:i] + (n,) + w[i:].  Circled, the first letter is w[0] for i > 0; at
    i = 0 it is n itself, so only the root is circled, over the plain tree
    of w.
    """
    opener, closer = "{}" if circled else "()"
    top = (n,)
    for w in itertools.permutations(range(1, n)):
        circle_from = w[0] if circled and w else _PLAIN
        prefixes, suffixes = _prefix_keys(w, circle_from), _suffix_keys(w, circle_from)
        if circled:
            suffixes[0] = suffixes[0].translate(_UNCIRCLE)
        for i in range(n):
            yield w[:i] + top + w[i:], opener + prefixes[i] + suffixes[i] + closer


def _key_word(key: str, section: bool = False) -> tuple[int, ...]:
    """The word of a tree key, read off its brackets in one scan: the minimal
    word of a plain key, the least fiber word of a circled one, or with
    ``section`` the maximal and the section word.  Openers come in pre-order,
    closers in post-order; a node takes the next in-order place once its left
    subtree closes, and the letter #( + rank of its ``}`` if circled, else the
    rank of its ``)`` (with ``section``, #( + 1 - rank of its ``(``).  Other
    text reads as a word that does not walk back to it, or raises IndexError."""
    plain = key.count("(")
    word = [0] * (plain + key.count("{"))
    places, letters = [], []  # per open node: its place (-1 until set) and letter
    leaves, closed, opened, crowned = 0, 0, plain + 1, plain
    for ch in key:
        if ch == ".":
            leaves += 1
        elif ch == "(" or ch == "{":
            opened -= ch == "("
            places.append(-1)
            letters.append(opened)
            continue
        elif ch == ")":
            closed += 1
            letter = letters.pop()
            word[places.pop()] = letter if section else closed
        else:
            crowned += 1
            letters.pop()
            word[places.pop()] = crowned
        # a subtree closed: if it is a left one, its parent takes the next place
        if places and places[-1] < 0:
            places[-1] = leaves - 1
    return tuple(word)


def _key_fiber(key: str) -> list[tuple[int, ...]]:
    """The sorted fiber of a plain key under tau, or of a circled key under beta,
    read off its brackets bottom up: a node's words put its largest letter between
    a word of each subtree, relabelled by every split of the rest that keeps circled
    letters on top; beta keeps the words that start with the least circled letter."""
    done = []  # (fiber, number of circled nodes) of finished subtrees, left first
    for ch in key:
        if ch == ".":
            done.append(([()], 0))
        elif ch in ")}":
            (rights, right_up), (lefts, left_up) = done.pop(), done.pop()
            nl = len(lefts[0])
            size, up = nl + len(rights[0]) + 1, left_up + right_up
            if size == 1:  # a lone index would make itemgetter return a bare letter
                done.append(([(1,)], up + (ch == "}")))
                continue
            # a split's labels are (0, left labels, size, right labels): left letter a
            # sits at position a, so each pair of child words is one pick of
            # positions, the same for every split
            picks = [itemgetter(*lw, nl + 1, *[nl + 1 + a for a in rw])
                     for lw in lefts for rw in rights]
            letters, out = range(1, size), []
            for left_labels in itertools.combinations(letters, nl):
                if up and sum(a >= size - up for a in left_labels) != left_up:
                    continue
                taken = set(left_labels)
                labels = (0, *left_labels, size, *[a for a in letters if a not in taken])
                out += [pick(labels) for pick in picks]
            done.append((out, up + (ch == "}")))
    fiber, up = done[0]
    return sorted(w for w in fiber if not up or w[0] == len(key) // 3 - up + 1)


def _fiber_size(key: str) -> int:
    """The number of words of a tree's fiber, read off ``key``: n! over the
    product of the subtree sizes (the hook length formula for trees)."""
    ends = _ends(key)
    hooks = math.prod((ends[i] - i) // 3 for i, ch in enumerate(key) if ch in "({")
    return math.factorial(len(key) // 3) // hooks


def fiber_of_tree(t: PlanarTree) -> list[tuple[int, ...]]:
    """All linear extensions of the node order of ``t``, as sorted words;
    refused, before any is built, past the 10! words of the S_10 table."""
    if t.size == 0:
        raise ValueError("fibers are defined for trees with at least one node")
    key = render(t).translate(_UNCIRCLE)  # circles do not change the node order
    _check_count("a tree fiber", "words", _fiber_size(key))
    return _key_fiber(key)


def min_word(t: PlanarTree) -> tuple[int, ...]:
    """The smallest (231-avoiding) word mapping to ``t``: left subtrees take low letters."""
    return _key_word(render(t))


def max_word(t: PlanarTree) -> tuple[int, ...]:
    """The largest (132-avoiding) word mapping to ``t``: left subtrees take high letters."""
    return _key_word(render(t), True)


def bileveled_of_perm(word: tuple[int, ...]) -> BiLeveledTree:
    """Tree of the word with every node carrying a value >= the first letter circled."""
    if not word:
        raise ValidityError("the empty word has no bi-leveled image")
    return _of_key(_beta_key(word))


def strip_circles(b: BiLeveledTree) -> PlanarTree:
    return b.tree


def beta_fibers(n: int) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Group the words of S_n by the keys of their bi-leveled images, each
    fiber's words sorted and the fibers in the order of their least words: the
    words of S_{n-1} come in order, and a fiber's words all put n in one place,
    the root's, so ``_projected`` makes the words of each fiber in order."""
    if n < 1:
        raise ValidityError("the empty word has no bi-leveled image")
    fibers: dict[str, list[tuple[int, ...]]] = {}
    for word, key in _projected(n, True):
        fibers.setdefault(key, []).append(word)
    return {key: tuple(words) for key, words in sorted(
        fibers.items(), key=lambda item: item[1][0])}


# ---------------------------------------------------------------------------
# forest decomposition


def forest_decomposition(b: BiLeveledTree) -> ForestDecomposition:
    """Split ``b`` into its circled base and the uncircled trees hanging above
    it, read off its least fiber word: the base takes the top letters, each
    followed by the word of the tree hanging after it."""
    word = fiber_min_word(b)
    free = render(b).count("(")  # letters below the base's
    starts = [i for i, a in enumerate(word) if a > free]
    ends = starts[1:] + [len(word)]
    return ForestDecomposition(tree_of_perm(tuple(word[i] for i in starts)), tuple(
        tree_of_perm(word[i + 1:j]) for i, j in zip(starts, ends)))


def compose_decomposition(dec: ForestDecomposition) -> BiLeveledTree:
    """Inverse of ``forest_decomposition``; rejects forests whose reassembly is invalid."""
    if dec.base.size == 0:
        raise ValidityError("a circled tree needs at least one node")
    base = render(dec.base).translate(_CIRCLE)
    return parse_tree(_fill(base, [".", *map(render, dec.hanging)]))  # leaf 1 keeps nothing


# ---------------------------------------------------------------------------
# splittings and graftings


def _interleave(u: tuple[int, ...], cuts, v: tuple[int, ...]) -> tuple[int, ...]:
    """Cut ``u`` at the weakly increasing positions ``cuts`` and put one letter
    of ``v``, raised above every letter of ``u``, in each cut, in order.

    On words, grafting is this interleaving: the tree of the result is the
    tree of ``v`` with the pieces of the tree of ``u``, cut at the same
    places, above its leaves.
    """
    word, pos, shift = [], 0, len(u)
    for cut, a in zip(cuts, v):
        word += u[pos:cut]
        word.append(a + shift)
        pos = cut
    word += u[pos:]
    return tuple(word)


def split_at(t: PlanarTree, leaves: tuple[int, ...]) -> tuple[PlanarTree, ...]:
    """Cut ``t`` along a weakly increasing tuple of leaf indices (1-based).

    The pieces are the trees of the slices of the minimal word of ``t``
    between the cuts: leaf ``i`` lies after letter ``i - 1``.
    """
    if any(b < a for a, b in zip(leaves, leaves[1:])):
        raise ValueError("cut leaves must be weakly increasing")
    for leaf in leaves:
        if not 1 <= leaf <= t.size + 1:
            raise ValueError(f"leaf index {leaf} out of range")
    word, bounds = min_word(t), (0, *(leaf - 1 for leaf in leaves), t.size)
    return tuple(tree_of_perm(word[a:b]) for a, b in zip(bounds, bounds[1:]))


def splittings(obj: PlanarTree | BiLeveledTree, p: int,
               restricted: bool = False) -> list[Splitting]:
    """All p-splittings of ``obj`` in lex order of the chosen leaf tuples.

    ``restricted`` keeps only those whose first piece is nonempty.  A
    bi-leveled source keeps its circles (see ``Splitting.piece_circles``).
    """
    if p < 0:
        raise ValueError("cannot choose a negative number of leaves")
    tree, circled = (obj.tree, obj.circled) if isinstance(obj, BiLeveledTree) else (obj, None)
    out = []
    for leaves in itertools.combinations_with_replacement(range(1, tree.size + 2), p):
        pieces = split_at(tree, leaves)
        if restricted and pieces[0].size == 0:
            continue
        out.append(Splitting(tree, circled, leaves, pieces))
    return out


def _fill(key: str, pieces) -> str:
    """``key`` with the keys ``pieces``, in order, in place of its leaves."""
    parts = key.split(".")
    return "".join([a + b for a, b in zip(parts, pieces)]) + parts[-1]


def graft(forest, base: PlanarTree) -> PlanarTree:
    """Attach the ``base.size + 1`` trees of ``forest`` above the leaves of ``base``."""
    pieces = tuple(forest.pieces) if isinstance(forest, Splitting) else tuple(forest)
    if len(pieces) != base.size + 1:
        raise ArityError(f"{len(pieces)} pieces cannot graft onto {base.size} nodes")
    return _of_key(_fill(render(base), map(render, pieces)))


def _graft_circled(splitting: Splitting, base_word: tuple[int, ...]) -> BiLeveledTree:
    """Graft a split bi-leveled tree onto the tree of ``base_word`` and place
    the circles: the bi-leveled image of the source's section word with the
    base's letters, raised, put in the cuts.

    If the first piece is nonempty, the source's first letter is the least
    circled one, so every base node is circled and the pieces keep their
    circles; otherwise the base's first letter is, so the piece nodes lose
    their circles and the base keeps those its word gives it.
    """
    if splitting.circled is None:
        raise ValueError("the splitting must come from a bi-leveled source")
    if len(splitting.pieces) != len(base_word) + 1:
        raise ArityError(
            f"{len(splitting.pieces)} pieces cannot graft onto {len(base_word)} nodes")
    source = section_word(BiLeveledTree(splitting.source, splitting.circled))
    cuts = [leaf - 1 for leaf in splitting.leaves]
    return bileveled_of_perm(_interleave(source, cuts, base_word))


def graft_onto_bileveled(splitting: Splitting, base: BiLeveledTree) -> BiLeveledTree:
    """Graft a split bi-leveled tree onto a bi-leveled base (see ``_graft_circled``)."""
    return _graft_circled(splitting, section_word(base))


def graft_onto_tree(splitting: Splitting, base: PlanarTree) -> BiLeveledTree:
    """Graft a restricted split bi-leveled tree onto a plain base, circling all of it."""
    if splitting.pieces[0].size == 0:
        raise ValueError("the first piece must be nonempty")
    return _graft_circled(splitting, min_word(base))


def right_graft(b: BiLeveledTree, s: PlanarTree) -> BiLeveledTree:
    """Attach ``s``, uncircled, at the rightmost leaf of ``b``."""
    return _of_key(_fill(render(b), ["."] * b.size + [render(s)]))


def _right_cuts(word: tuple[int, ...], prefixes: list[str]) -> list[tuple[str, str]]:
    """(left key, right key) per right cut of the circled key of the section
    word ``word``, smallest first, from its prefix keys circled from ``word[0]``:
    a cut takes off a suffix ``word[k:]`` below ``word[k - 1]`` (a right-spine
    node's right subtree) while it has no circled letter, the empty one included."""
    suffixes, cuts, top = _suffix_keys(word), [], 0  # top: the largest letter of word[k:]
    for k in range(len(word), 0, -1):
        if top >= word[0]:
            break
        if word[k - 1] > top:
            cuts.append((prefixes[k], suffixes[k]))
            top = word[k - 1]
    return cuts


def right_cuts(b: BiLeveledTree) -> list[tuple[BiLeveledTree, PlanarTree]]:
    """All pairs (b', s) with ``right_graft(b', s) == b``, smallest cut first."""
    if not isinstance(b, BiLeveledTree):
        raise TypeError(f"right cuts need a circled tree, not {type(b).__name__}")
    word = section_word(b)
    cuts = _right_cuts(word, _prefix_keys(word, word[0]))
    return [(_of_key(rest), _of_key(sub)) for rest, sub in cuts]


# ---------------------------------------------------------------------------
# sections of the bi-leveled projection


def section_word(b: BiLeveledTree) -> tuple[int, ...]:
    """The order-embedding section of the bi-leveled projection: the base's
    minimal word on the top letters, hanging trees' maximal words on blocks
    assigned from the right."""
    return _key_word(render(b), True)


def fiber_min_word(b: BiLeveledTree) -> tuple[int, ...]:
    """The smallest word in the fiber of ``b``: minimal words everywhere,
    hanging blocks assigned left to right, base letters on top."""
    return _key_word(render(b))


def _standardize(values: tuple[int, ...]) -> tuple[int, ...]:
    """The word on 1..len(values) in the same relative order as ``values``."""
    out = [0] * len(values)
    for rank, i in enumerate(sorted(range(len(values)), key=values.__getitem__), 1):
        out[i] = rank
    return tuple(out)


def avoids_pinned(word: tuple[int, ...]) -> bool:
    """True iff no length-4 pattern 0231, 3021 or 2031 starts at letter one.

    With f the first letter and a, b, c later letters in that order, the
    patterns are f < c < a < b (0231), a < c < b < f (3021) and
    a < c < f < b (2031).  So for each b it suffices to know the least a
    before it and the largest a below b before it: no letter after b may lie
    strictly between f and that largest a, or between that least a and
    min(b, f).  Both ranges form one mask of values, tested against the mask
    of the letters after b.
    """
    if len(word) < 4:
        return True
    # value masks: seen holds the letters between the first one and b, after
    # those past b
    first, seen, least, after = word[0], 0, word[1], 0
    for a in word[2:]:
        after |= 1 << a
    for k in range(2, len(word) - 1):
        a, b = word[k - 1], word[k]
        seen |= 1 << a
        after ^= 1 << b
        if a < least:
            least = a
        below_b = (seen & (1 << b) - 1).bit_length() - 1  # -1 if there is none
        low = b if b < first else first
        # the values strictly between lo and hi are the bits (1 << hi) - (2 << lo)
        forbidden = (1 << below_b) - (2 << first) if below_b > first else 0
        if low > least:
            forbidden |= (1 << low) - (2 << least)
        if forbidden & after:
            return False
    return True


# ---------------------------------------------------------------------------
# combs and compositions


def left_comb(n: int) -> PlanarTree:
    return _of_key("(" * n + "." + ".)" * n)


def right_comb(n: int) -> PlanarTree:
    return _of_key("(." * n + "." + ")" * n)


def to_left_comb(t: PlanarTree) -> PlanarTree:
    return left_comb(t.size)


def to_right_comb(t: PlanarTree) -> PlanarTree:
    return right_comb(t.size)


def qsym_composition(b: BiLeveledTree) -> tuple[int, ...]:
    """The composition (|s_1|+1, ..., |s_p|+1) of the forest decomposition,
    read off the least fiber word, where each base letter starts a part."""
    word = fiber_min_word(b)
    free = render(b).count("(")  # letters below the base's
    starts = [i for i, a in enumerate(word) if a > free] + [len(word)]
    return tuple(j - i for i, j in zip(starts, starts[1:]))


def bileveled_of_composition(parts: tuple[int, ...]) -> BiLeveledTree:
    """The comb of combs indexed by a composition: circled left-comb base,
    right combs hanging above its leaves, joined as a key."""
    if not parts or any(a < 1 for a in parts):
        raise ValidityError("composition parts must be positive")
    return _of_key("{" * len(parts) + "." + "".join(
        "(." * (a - 1) + "." + ")" * (a - 1) + "}" for a in parts))


def _coinvariant_key(key: str) -> bool:
    """True iff every right-spine node of the circled key ``key`` is
    circled: the brackets after its last leaf close exactly its right spine."""
    return ")" not in key[key.rindex(".") + 1:]


def is_coinvariant_shape(b: BiLeveledTree) -> bool:
    """True iff every node on the right spine is circled."""
    return _coinvariant_key(render(b))


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
