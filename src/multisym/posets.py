"""Finite posets over canonical keys, the three orders generated by moves
read off their keys, and the Galois-connection / interval-retract certifiers.

Posets are frozen after construction.  Elements are indexed once, along a
linear extension read from the top down, and comparability is kept once, as
one up-set bitmask per element over those indices, so the least element of
a set, if it has one, is its highest bit.  The certificates are
local: Möbius rows come from joins of upper covers (Rota's crosscut
theorem), filled one row mu(x, -) at a time on first use; the lattice test
joins the upper covers of each element only; and an adjunction is
checked through its unit and counit, on the index tables a map pair builds
once.  Every report names the first failure in the sorted key order.
Words can also be compared with no table, by their position inversions.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from heapq import heappop, heappush

from .trees import (
    BiLeveledTree,
    _Record,
    _set,
    _check_size,
    _ends,
    _key_fiber,
    _key_word,
    _projected,
    all_bileveled,  # unused here: bench/test_bench.py calls it through this binding
    check_enumeration_size,
    enumerate_family,
    fiber_min_word,
    parse_key,
    render,
    render_perm,
)


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _linear_extension(above: list[list[int]]) -> list[int]:
    """The indices ordered so that every i comes before each j in
    ``above[i]``, taking the least ready index at each step (so an order the
    indices already extend is kept as it is); cycles are rejected."""
    indeg = [0] * len(above)
    for js in above:
        for j in js:
            indeg[j] += 1
    ready = [i for i, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        i = heappop(ready)
        order.append(i)
        for j in above[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heappush(ready, j)
    if len(order) != len(above):
        raise ValueError("cover relation has a cycle")
    return order


def _close(above: list[list[int]]) -> list[int]:
    """Up-set masks of every index, for a relation in which each j in
    ``above[i]`` lies above i and has a lower index."""
    up = []
    for i, js in enumerate(above):
        mask = 1 << i
        for j in js:
            mask |= up[j]
        up.append(mask)
    return up


def _reduced(js: list[int], up: list[int]) -> tuple[int, ...]:
    """The upper covers among the generators ``js`` of one element: those in
    no other generator's strict up-set, since anything strictly between the
    element and j lies above one of its generators."""
    strict = 0
    for j in js:
        strict |= up[j] ^ 1 << j
    return tuple(sorted({j for j in js if not strict >> j & 1}))


class IncomparableError(ValueError):
    """Asked for interval data on an incomparable pair."""


class CertificationError(RuntimeError):
    """A structural fact the implementation relies on failed to verify."""


class FinitePoset:
    """Explicit finite poset: ``leq`` is the reflexive-transitive closure of
    ``relation`` (cycles are rejected), and ``covers`` are the pairs of
    ``relation`` with nothing strictly between them, which is the transitive
    reduction, since that lies in every relation generating the order (Aho,
    Garey & Ullman 1972).  Elements are sorted canonical strings, and every
    list a method returns is sorted too.

    Internally the elements are indexed along a linear extension read from
    the top down (``_names`` lists them in that order, ``index`` inverts
    it), and the order is kept once: bit j of ``_up[i]`` is set when i <= j.
    An up-set mask only reaches lower indices, so the least element of a
    set that has one is its highest index, which ``int.bit_length`` reads in
    constant time, and up-set masks of high elements are short.
    ``_upper_covers`` lists each element's upper covers by index; ``covers``
    and ``cover_pairs`` are read off it.
    """

    __slots__ = ("elements", "index", "_names", "_up", "_upper_covers", "_mobius")

    def __init__(self, elements, relation):
        self.elements = sorted(elements)
        rank = {x: i for i, x in enumerate(self.elements)}
        if len(rank) != len(self.elements):
            raise ValueError("duplicate elements")
        above = [[] for _ in self.elements]
        for x, y in relation:
            if x not in rank or y not in rank:
                raise ValueError(f"cover ({x!r}, {y!r}) mentions unknown elements")
            if x == y:
                raise ValueError(f"self-cover on {x!r}")
            above[rank[x]].append(rank[y])
        # the keys of S_n and Y_n already extend their orders, so there the
        # indices run in reverse key order and listings need no real sort
        order = _linear_extension(above)[::-1]
        place = [0] * len(order)
        for new, old in enumerate(order):
            place[old] = new
        self._names = [self.elements[old] for old in order]
        self.index = {x: i for i, x in enumerate(self._names)}
        above = [[place[j] for j in above[old]] for old in order]
        self._up = up = _close(above)
        self._upper_covers = [_reduced(js, up) for js in above]
        self._mobius = {}

    def __eq__(self, other):  # by name, and the lazily filled Möbius rows take no part
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.elements == other.elements and self.covers == other.covers)

    def __hash__(self):
        return hash(tuple(self.elements))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def leq(self, x: str, y: str) -> bool:
        return bool(self._up[self.index[x]] >> self.index[y] & 1)

    def _members(self, mask: int) -> list[str]:
        return sorted(self._names[i] for i in _bits(mask))

    def _first(self, indices) -> int | None:
        """Of ``indices``, the one whose element comes first in ``elements``;
        None if there is none."""
        return min(indices, key=self._names.__getitem__, default=None)

    def upset(self, x: str) -> list[str]:
        return self._members(self._up[self.index[x]])

    def upset_masks(self, points) -> list[int]:
        """Per position i of ``points``, the mask of the positions j with
        ``points[i] <= points[j]``; equal points keep their own bits."""
        at: dict[int, int] = {}
        for j, x in enumerate(points):
            k = self.index[x]
            at[k] = at.get(k, 0) | 1 << j
        image = sum(1 << k for k in at)
        out = []
        for x in points:
            mask = 0
            for k in _bits(self._up[self.index[x]] & image):
                mask |= at[k]
            out.append(mask)
        return out

    def interval(self, x: str, y: str) -> list[str]:
        if not self.leq(x, y):
            raise IncomparableError(f"{x!r} is not below {y!r}")
        up, j = self._up, self.index[y]
        return self._members(sum(1 << k for k in _bits(up[self.index[x]]) if up[k] >> j & 1))

    def interval_ends(self, members) -> tuple[str, str] | None:
        """``(least, greatest)`` if ``members`` is exactly the interval between
        them, else None (also when ``members`` is empty)."""
        ends = self._interval_ends(sum(1 << self.index[x] for x in set(members)))
        return ends and (self._names[ends[0]], self._names[ends[1]])

    def _interval_ends(self, mask: int) -> tuple[int, int] | None:
        """The same on indices: ``(least, greatest)`` if ``mask`` is exactly
        the interval between them, else None (also when ``mask`` is 0)."""
        if not mask:
            return None
        # an interval starts at its highest index and ends at its lowest; the
        # upper covers walked from lo while they stay below hi reach exactly
        # the interval (only lo itself when lo !<= hi), so mask is the
        # interval when the walk stays inside mask and fills it
        lo, hi = mask.bit_length() - 1, (mask & -mask).bit_length() - 1
        up, covers = self._up, self._upper_covers
        reached, todo = 1 << lo, [lo]
        while todo:
            for c in covers[todo.pop()]:
                if not reached >> c & 1 and up[c] >> hi & 1:
                    if not mask >> c & 1:
                        return None
                    reached |= 1 << c
                    todo.append(c)
        return (lo, hi) if reached == mask else None

    def mobius(self, x: str, y: str) -> int:
        i, j = self.index[x], self.index[y]
        if not self._up[i] >> j & 1:
            raise IncomparableError(f"{x!r} is not below {y!r}")
        return self._mobius_row(i).get(j, 0)

    def mobius_row(self, x: str) -> list[tuple[str, int]]:
        """The pairs ``(y, mu(x, y))`` with a nonzero value, sorted by y."""
        return sorted((self._names[j], mu)
                      for j, mu in self._mobius_row(self.index[x]).items())

    def zeta(self, coefs: dict[str, int]) -> dict[str, int]:
        """``{y: c}`` with c the sum of ``coefs[x]`` over the x <= y, for the
        nonzero sums: each coefficient added over its key's up-set."""
        acc: dict[int, int] = {}
        for x, c in coefs.items():
            for j in _bits(self._up[self.index[x]]):
                acc[j] = acc.get(j, 0) + c
        names = self._names
        return {names[j]: c for j, c in acc.items() if c}

    def mobius_sum(self, coefs: dict[str, int]) -> dict[str, int]:
        """``{y: c}`` with c the sum of ``coefs[x] * mu(x, y)`` over the x <= y,
        for the nonzero sums: the inverse of ``zeta``."""
        acc: dict[int, int] = {}
        for x, c in coefs.items():
            for j, mu in self._mobius_row(self.index[x]).items():
                acc[j] = acc.get(j, 0) + c * mu
        names = self._names
        return {names[j]: c for j, c in acc.items() if c}

    def _mobius_row(self, i: int) -> dict[int, int]:
        """``{j: mu(i, j)}`` over the j >= i with a nonzero value."""
        row = self._mobius.get(i)
        if row is None:
            row = self._crosscut_row(i)
            if row is None:
                row = self._mobius_recurrence(i)
            self._mobius[i] = row
        return row

    def _crosscut_row(self, i: int) -> dict[int, int] | None:
        """Rota's crosscut theorem on the upper covers of i: mu(i, y) is the
        sum of (-1)^|S| over the sets S of covers whose join is y.  Exact when
        every such join exists, since then the sum over y <= z counts the sets
        of covers below z, which is 1 for z = i and 0 otherwise; None as soon
        as a join fails to exist."""
        up = self._up
        signs = {i: 1}  # join of a set of the covers seen so far: sum of (-1)^|S|
        for c in self._upper_covers[i]:
            for a, sign in list(signs.items()):
                # the only candidate for a v c is the highest index above both
                common = up[a] & up[c]
                if not common:
                    return None
                join = common.bit_length() - 1
                if up[join] != common:
                    return None
                signs[join] = signs.get(join, 0) - sign
        return {j: mu for j, mu in signs.items() if mu}

    def _mobius_recurrence(self, i: int) -> dict[int, int]:
        """The same row by the defining recurrence: mu(i, j) = -sum of
        mu(i, k) over i <= k < j, filled along the linear extension, that is
        from high indices to low, so every such k is already filled."""
        up = self._up
        row = {i: 1}
        for j in sorted(_bits(up[i] & ~(1 << i)), reverse=True):
            mu = -sum(value for k, value in row.items() if up[k] >> j & 1)
            if mu:
                row[j] = mu
        return row

    def minimum(self) -> str | None:
        # a least element comes first in every linear extension, so last here
        full = (1 << len(self.elements)) - 1
        return self._names[-1] if self.elements and self._up[-1] == full else None

    def maximum(self) -> str | None:
        # a greatest element comes last in every linear extension, so first here
        return self._names[0] if self.elements and all(u & 1 for u in self._up) else None

    def is_lattice(self) -> bool:
        """A finite poset with a bottom and a top is a lattice when every two
        upper covers of one element have a join (Björner, Edelman & Ziegler
        1990, Lemma 2.1).  The empty poset passes."""
        if not self.elements:
            return True
        if self.minimum() is None or self.maximum() is None:
            return False
        up = self._up
        for covers in self._upper_covers:
            for a, b in itertools.combinations(covers, 2):
                # the candidate for a v b is the highest index above both,
                # which the top makes nonempty
                common = up[a] & up[b]
                if up[common.bit_length() - 1] != common:
                    return False
        return True

    @property
    def covers(self) -> frozenset[tuple[str, str]]:
        names = self._names
        return frozenset((names[i], names[j])
                         for i, js in enumerate(self._upper_covers) for j in js)

    def cover_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.covers)

    def to_dot(self) -> str:
        lines = ["digraph hasse {"]
        for x in self.elements:
            lines.append(f'  "{x}";')
        for x, y in self.cover_pairs():
            lines.append(f'  "{x}" -> "{y}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the three concrete orders, one poset per size


# The largest order of each family: its poset keeps one table of N up-set
# masks for N keys, mask i reaching i + 1 bits, about N^2 / 15 bytes: 110 MB
# for S_8 and 8.9 GB for S_9, 19 MB for Y_10 (16,796 keys) and 0.24 GB for
# Y_11 (58,786), and 45 MB for M_9 (25,674 keys) and 0.91 GB for M_10 (115,566)
MAX_ORDER_N = {"S": 8, "Y": 10, "M": 9}
_ORDER_NAMES = {"S": "weak order", "Y": "rotation order", "M": "bi-leveled order"}


def check_order_size(family: str, n: int) -> None:
    """Refuse an order of ``family`` too large for its dense masks, before any work."""
    _check_size(_ORDER_NAMES[family], n, MAX_ORDER_N[family])


def _moves(key: str):
    """Every key one move up from ``key``, joined from its slices with each
    node's brackets carried along: at each node x over an internal left
    child, the rotation (A B) C -> A (B C), again with x uncircled if x is
    circled; at each circled node, that node uncircled.  (s, D) <= (t, C) when
    the shape s is below t and the circle set C lies in D, and a cover is a
    rotation with D carried, the same with D - {x}, or one circle dropped,
    because a rotation only removes the pairs i < j with i in j's left
    subtree and only adds the pairs i < j with j in i's right subtree."""
    end = _ends(key)
    for s, x in enumerate(key):
        if x == "{":
            yield key[:s] + "(" + key[s + 1:end[s] - 1] + ")" + key[end[s]:]
        if x in "({" and key[s + 1] in "({":
            # y and A, then x over B and C, then the closers of x and y
            a, m, e = end[s + 2], end[s + 1], end[s]
            head, body = key[:s] + key[s + 1:a], key[a:m - 1] + key[m:e - 1]
            yield head + x + body + key[e - 1] + key[m - 1] + key[e:]
            if x == "{":
                yield head + "(" + body + ")" + key[m - 1] + key[e:]


def _order(family: str, n: int) -> FinitePoset:
    """The order on the keys of ``family``, generated by the moves read off
    each key: for words the swaps of the values k, k+1 where k sits left of
    k+1, for trees the moves of ``_moves`` that are keys."""
    if n < 1:
        raise ValueError(f"{_ORDER_NAMES[family]} needs n >= 1")
    check_order_size(family, n)
    keys = enumerate_family(family, n)
    if family == "S":
        # below the size limit every letter is one digit, so a swap
        # exchanges two characters of the key
        letters = "123456789"[:n]
        swaps = [(a, b, str.maketrans(a + b, b + a)) for a, b in zip(letters, letters[1:])]
        relation = [(key, key.translate(swap)) for key in keys
                    for a, b, swap in swaps if key.index(a) < key.index(b)]
    else:
        known = set(keys)
        relation = [(key, up) for key in keys for up in _moves(key) if up in known]
    return FinitePoset(keys, relation)


@lru_cache(maxsize=None)
def weak_order(n: int) -> FinitePoset:
    """Left weak order on S_n: covers swap the values k, k+1 when k sits left of k+1."""
    return _order("S", n)


@lru_cache(maxsize=None)
def tamari(n: int) -> FinitePoset:
    """Rotation order on Y_n; the left comb is minimal, the right comb maximal."""
    return _order("Y", n)


@lru_cache(maxsize=None)
def bileveled_order(n: int) -> FinitePoset:
    """Weak order on M_n: compare underlying shapes in the rotation order and
    circled sets by reverse inclusion."""
    return _order("M", n)


def poset_for(family: str, n: int) -> FinitePoset:
    orders = {"S": weak_order, "Y": tamari, "M": bileveled_order}
    if family not in orders:
        raise ValueError(f"no poset for family {family!r}")
    return orders[family](n)


# ---------------------------------------------------------------------------
# the weak order compared by position inversions, with no table
#
# u <= w in the weak order exactly when the position inversions of u, the
# pairs p < q with u[p] > u[q], lie among those of w (Björner & Brenti,
# Combinatorics of Coxeter Groups, §3.1): a cover swaps the values k and k+1
# where k sits left of k+1, which inverts their two places and leaves every
# other pair of places as it was.


def weak_interval_ends(words) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """``weak_order(n).interval_ends`` with no table, on the words ``words``
    of S_n: ``(least, greatest)`` if they are exactly the weak-order
    interval between them, else None (also when ``words`` is empty).

    Lexicographic order on words extends the weak order, so only the least
    and the greatest word in it can be the ends.  The upper covers walked
    from the least word, keeping inside the greatest word's inversions,
    reach exactly the interval between the two (and miss the greatest word
    when the two are incomparable); so the words are that interval when the
    walk reaches only words among them, and as many as there are."""
    members = set(words)
    if not members:
        return None
    least, greatest = min(members), max(members)
    n = len(least)
    reached, todo = {least}, [least]
    place = [0] * (n + 1)
    while todo:
        word = todo.pop()
        for p, a in enumerate(word):
            place[a] = p
        for k in range(1, n):
            p, q = place[k], place[k + 1]
            if p < q and greatest[p] > greatest[q]:
                up = list(word)
                up[p], up[q] = k + 1, k
                up = tuple(up)
                if up not in reached:
                    if up not in members:
                        return None
                    reached.add(up)
                    todo.append(up)
    if len(reached) != len(members):
        return None
    return least, greatest


def weak_upset_masks(words) -> list[int]:
    """``weak_order(n).upset_masks`` with no table, on the words ``words``
    of S_n: per position i, the mask of the positions j with ``words[i] <=
    words[j]``, equal words keeping their own bits.  Bit-parallel: one mask
    per pair of places, of the words that invert it, and the up-set of a word
    is the AND of the masks of the pairs it inverts."""
    n = len(words[0]) if words else 0
    # bit j of a pair's mask is words[j]'s, so the text lists the last word first
    inverting = [(p, q, int("".join(["1" if w[p] > w[q] else "0" for w in words[::-1]]), 2))
                 for p, q in itertools.combinations(range(n), 2)]
    everyone, out = (1 << len(words)) - 1, []
    for w in words:
        up = everyone
        for p, q, mask in inverting:
            if w[p] > w[q]:
                up &= mask
        out.append(up)
    return out


# ---------------------------------------------------------------------------
# fibers as intervals


def fiber_interval(n: int, b: BiLeveledTree | str) -> tuple[str, str]:
    """Least and greatest fiber words of ``b``, certified against the weak order.

    The fiber must be an interval of the weak order, and its least word must
    match the closed-form minimal word; otherwise ``CertificationError``.
    """
    _, least, greatest = _certified_fiber(n, b)
    return render_perm(least), render_perm(greatest)


def _certified_fiber(n: int, b: BiLeveledTree | str):
    """The sorted fiber words of ``b`` and their least and greatest word,
    certified as ``fiber_interval`` says; the fiber is read once."""
    check_enumeration_size("S", n)
    key, obj = (b, parse_key("M", b)) if isinstance(b, str) else (render(b), b)
    if not isinstance(obj, BiLeveledTree) or obj.size != n:
        raise ValueError(f"{key!r} is not a bi-leveled key of size {n}")
    words = _key_fiber(key)
    return (words, *_fiber_interval(key, fiber_min_word(obj), words))


def _fiber_interval(key: str, least: tuple[int, ...], words):
    """The ends of ``words``, the fiber of the tree of key ``key``, certified
    to be a weak-order interval whose least word is the closed form ``least``."""
    ends = weak_interval_ends(words)
    if ends is None:
        raise CertificationError(f"fiber of {key!r} is not an interval")
    if ends[0] != least:
        raise CertificationError(f"closed-form minimum disagrees on {key!r}")
    return ends


# ---------------------------------------------------------------------------
# poset map pairs and their certificates


class PosetMapPair(_Record):
    """A forward/backward pair of total maps between two posets, also kept
    as the index tables the certificates read: ``_fwd[i]`` is the target
    index of the image of source index i, and ``_bwd`` the reverse."""

    _fields = ("source", "target", "forward", "backward")
    __slots__ = (*_fields, "_fwd", "_bwd")

    def __init__(self, source: FinitePoset, target: FinitePoset,
                 forward: dict[str, str], backward: dict[str, str]):
        P, Q = source, target
        if set(forward) != set(P.elements):
            raise ValueError("forward map must be total on the source")
        if set(backward) != set(Q.elements):
            raise ValueError("backward map must be total on the target")
        for x, y in forward.items():
            if y not in Q:
                raise ValueError(f"forward image {y!r} of {x!r} not in target")
        for x, y in backward.items():
            if y not in P:
                raise ValueError(f"backward image {y!r} of {x!r} not in source")
        for name, value in zip(self._fields, (source, target, forward, backward)):
            _set(self, name, value)
        _set(self, "_fwd", [Q.index[forward[x]] for x in P._names])
        _set(self, "_bwd", [P.index[backward[t]] for t in Q._names])


def _fiber_masks(image: list[int], size: int) -> list[int]:
    """Per index t below ``size``, the mask of the indices i with image[i] == t."""
    masks = [0] * size
    for i, t in enumerate(image):
        masks[t] |= 1 << i
    return masks


def _order_preserving(P, Q, image) -> str | None:
    # <= is the reflexive-transitive closure of the covers, so a map that
    # preserves every cover preserves <=; the report names the first failing
    # cover in key order
    up = Q._up
    bad = [(i, j) for i, js in enumerate(P._upper_covers) for j in js
           if not up[image[i]] >> image[j] & 1]
    if not bad:
        return None
    names = P._names
    i, j = min(bad, key=lambda cover: (names[cover[0]], names[cover[1]]))
    return f"{names[i]} <= {names[j]} but {Q._names[image[i]]} !<= {Q._names[image[j]]}"


def _mobius_sums(P, sources, image, size: int) -> list[int]:
    """Entry t: the sum of mu_P(i, j) over the indices i in ``sources`` and
    the j >= i with ``image[j] == t``."""
    sums = [0] * size
    for i in sources:
        for j, mu in P._mobius_row(i).items():
            sums[image[j]] += mu
    return sums


class GaloisReport(_Record, namedtuple("GaloisReport", (
        "forward_order_preserving", "backward_order_preserving", "adjunction_failure",
        "mobius_failure", "checked_mobius"))):
    __slots__ = ()

    @property
    def adjunction_holds(self) -> bool:
        return self.adjunction_failure is None

    @property
    def passed(self) -> bool:
        return (self.forward_order_preserving is None
                and self.backward_order_preserving is None
                and self.adjunction_failure is None
                and self.mobius_failure is None)


def _adjunction_failure(P, Q, fwd, bwd_fibers) -> str | None:
    """The first v in ``P.elements`` and then the first t in ``Q.elements``
    for which fwd(v) <= t and v <= bwd(t) differ, as a report; None if none."""
    # per v, the t with fwd(v) <= t against the t with v <= bwd(t)
    for v in P.elements:
        i = P.index[v]
        left = Q._up[fwd[i]]
        right = 0
        for u in _bits(P._up[i]):
            right |= bwd_fibers[u]
        if left != right:
            k = Q._first(_bits(left ^ right))
            t, holds = Q._names[k], bool(left >> k & 1)
            return (f"fwd({v}) <= {t} is {holds} but "
                    f"{v} <= back({t}) is {not holds}")
    return None


def check_galois(pair: PosetMapPair) -> GaloisReport:
    """Certify the adjunction fwd(v) <= t  <=>  v <= back(t); when it holds,
    also certify the Möbius-transfer identity it implies."""
    P, Q, fwd, bwd = pair.source, pair.target, pair._fwd, pair._bwd
    fwd_bad = _order_preserving(P, Q, fwd)
    bwd_bad = _order_preserving(Q, P, bwd)
    bwd_fibers = _fiber_masks(bwd, len(P))
    # two order-preserving maps are adjoint iff v <= back(fwd(v)) for every v
    # and fwd(back(t)) <= t for every t (Davey & Priestley, ch. 7); the full
    # scan runs only to name the first failure
    adjunction = None
    if (fwd_bad is not None or bwd_bad is not None
            or not all(P._up[v] >> bwd[t] & 1 for v, t in enumerate(fwd))
            or not all(Q._up[fwd[v]] >> t & 1 for t, v in enumerate(bwd))):
        adjunction = _adjunction_failure(P, Q, fwd, bwd_fibers)
    mobius_bad = None
    checked = adjunction is None and fwd_bad is None and bwd_bad is None
    if checked:
        # Rota: the sum of mu_P(v, w) over fwd(w) = t equals the sum of
        # mu_Q(s, t) over back(s) = v, for every v and t
        for v in P.elements:
            i = P.index[v]
            lhs = _mobius_sums(P, (i,), fwd, len(Q))
            rhs = _mobius_sums(Q, _bits(bwd_fibers[i]), range(len(Q)), len(Q))
            if lhs != rhs:
                k = Q._first(k for k in range(len(Q)) if lhs[k] != rhs[k])
                mobius_bad = (f"sum mismatch at v={v}, t={Q._names[k]}: "
                              f"{lhs[k]} != {rhs[k]}")
                break
    return GaloisReport(fwd_bad, bwd_bad, adjunction, mobius_bad, checked)


class RetractReport(_Record, namedtuple("RetractReport", (
        "source_is_lattice", "forward_order_preserving", "backward_order_preserving",
        "section_failure", "fiber_failure", "mobius_failure"))):
    __slots__ = ()

    @property
    def clauses_hold(self) -> bool:
        return (self.source_is_lattice
                and self.forward_order_preserving is None
                and self.backward_order_preserving is None
                and self.section_failure is None
                and self.fiber_failure is None)

    @property
    def passed(self) -> bool:
        return self.clauses_hold and self.mobius_failure is None


def check_interval_retract(pair: PosetMapPair) -> RetractReport:
    """Certify the four retract clauses and the fiber-sum Möbius identity."""
    P, Q, fwd, bwd = pair.source, pair.target, pair._fwd, pair._bwd
    lattice = P.is_lattice()
    fwd_bad = _order_preserving(P, Q, fwd)
    bwd_bad = _order_preserving(Q, P, bwd)
    t = Q._first(t for t, v in enumerate(bwd) if fwd[v] != t)
    section = None if t is None else f"fwd(back({Q._names[t]})) = {Q._names[fwd[bwd[t]]]}"
    fibers = _fiber_masks(fwd, len(Q))
    t = Q._first(t for t, mask in enumerate(fibers) if P._interval_ends(mask) is None)
    fiber_bad = (None if t is None else f"empty fiber over {Q._names[t]}" if not fibers[t]
                 else f"fiber over {Q._names[t]} is not an interval")
    mobius_bad = None
    for s in Q.elements:
        i = Q.index[s]
        total = _mobius_sums(P, _bits(fibers[i]), fwd, len(Q))
        expected = Q._mobius_row(i)
        k = Q._first(k for k in _bits(Q._up[i] & ~(1 << i)) if total[k] != expected.get(k, 0))
        if k is not None:
            mobius_bad = (f"sum over fibers of {s} < {Q._names[k]}: "
                          f"{total[k]} != {expected.get(k, 0)}")
            break
    return RetractReport(lattice, fwd_bad, bwd_bad, section, fiber_bad, mobius_bad)


# ---------------------------------------------------------------------------
# ready-made pairs


def _section_pair(n: int, family: str) -> PosetMapPair:
    """The weak order on S_n onto the order of ``family`` (``Y`` or ``M``):
    each word forward to the key of its tree (circled for ``M``), and each
    key of the target back to the section word read off it (a tree's
    maximal word)."""
    P, Q = weak_order(n), poset_for(family, n)
    forward = {render_perm(w): key for w, key in _projected(n, family == "M")}
    backward = {t: render_perm(_key_word(t, True)) for t in Q.elements}
    return PosetMapPair(P, Q, forward, backward)


def tree_section_pair(n: int) -> PosetMapPair:
    """Weak order onto the rotation order via the tree map, back via maximal words."""
    return _section_pair(n, "Y")


def bileveled_section_pair(n: int) -> PosetMapPair:
    """Weak order onto the bi-leveled order, back via the section word."""
    return _section_pair(n, "M")
