"""Finite posets over canonical keys, the three concrete orders, and the
Galois-connection / interval-retract certifiers.

Posets are frozen after construction.  Elements are indexed once, along a
linear extension read from the top down, and comparability is kept as
per-element down-set and up-set bitmasks over those indices, so the least
element of a set, if it has one, is its highest bit.  The certificates are
local: Möbius rows come from joins of upper covers (Rota's crosscut
theorem), filled one row mu(x, -) at a time on first use; the lattice test
joins the upper covers of each element only; and an adjunction is
checked through its unit and counit, on the index tables a map pair builds
once.  Every report names the first failure in the sorted key order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush

from .trees import (
    _UNCIRCLE,
    BiLeveledTree,
    _beta_key,
    _check_size,
    _key_word,
    _tau_key,
    all_bileveled,
    beta_fibers,
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


def _close(above: list[list[int]]) -> tuple[list[int], list[int]]:
    """Down-set and up-set masks of every index, for a relation in which
    each j in ``above[i]`` lies above i and has a lower index."""
    n = len(above)
    up = [0] * n
    below = [[] for _ in range(n)]
    for i, js in enumerate(above):
        mask = 1 << i
        for j in js:
            mask |= up[j]
            below[j].append(i)
        up[i] = mask
    down = [0] * n
    for j in reversed(range(n)):
        mask = 1 << j
        for i in below[j]:
            mask |= down[i]
        down[j] = mask
    return down, up


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
    it): an up-set mask only reaches lower indices and a down-set mask only
    higher ones.  So the least element of a set that has one is its highest
    index, which ``int.bit_length`` reads in constant time, and up-set masks
    of high elements are short.  ``_upper_covers`` lists each element's
    upper covers by index; ``covers`` and ``cover_pairs`` are read off it.
    """

    __slots__ = ("elements", "index", "_names", "_down", "_up",
                 "_upper_covers", "_mobius")

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
        self._down, self._up = down, up = _close(above)
        self._upper_covers = [
            tuple(sorted({j for j in js if (up[i] & down[j]).bit_count() == 2}))
            for i, js in enumerate(above)]
        self._mobius = {}

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def leq(self, x: str, y: str) -> bool:
        return bool(self._down[self.index[y]] >> self.index[x] & 1)

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
        return self._members(self._up[self.index[x]] & self._down[self.index[y]])

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
        # an interval starts at its highest index and ends at its lowest
        lo, hi = mask.bit_length() - 1, (mask & -mask).bit_length() - 1
        if self._up[lo] & self._down[hi] != mask:
            return None
        return lo, hi

    def mobius(self, x: str, y: str) -> int:
        i, j = self.index[x], self.index[y]
        if not self._down[j] >> i & 1:
            raise IncomparableError(f"{x!r} is not below {y!r}")
        return self._mobius_row(i).get(j, 0)

    def mobius_row(self, x: str) -> list[tuple[str, int]]:
        """The pairs ``(y, mu(x, y))`` with a nonzero value, sorted by y."""
        return sorted((self._names[j], mu)
                      for j, mu in self._mobius_row(self.index[x]).items())

    def zeta(self, coefs: dict[str, int]) -> dict[str, int]:
        """``{y: c}`` with c the sum of ``coefs[x]`` over the x <= y, for the
        nonzero sums: the keys of each coefficient are one mask, and each y
        in the union of their up-sets counts its down-set's bits in each."""
        by_value: dict[int, int] = {}
        reach = 0
        for x, c in coefs.items():
            i = self.index[x]
            by_value[c] = by_value.get(c, 0) | 1 << i
            reach |= self._up[i]
        down, names, out = self._down, self._names, {}
        values = by_value.items()
        for y in _bits(reach):
            below, total = down[y], 0
            for c, mask in values:
                total += c * (below & mask).bit_count()
            if total:
                out[names[y]] = total
        return out

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
        from high indices to low; the k already filled are kept as one mask
        per value."""
        row = {i: 1}
        by_value = {1: 1 << i}
        for j in sorted(_bits(self._up[i] & ~(1 << i)), reverse=True):
            below = self._down[j]
            mu = -sum(value * (mask & below).bit_count()
                      for value, mask in by_value.items())
            if mu:
                row[j] = mu
                by_value[mu] = by_value.get(mu, 0) | 1 << j
        return row

    def minimum(self) -> str | None:
        # a least element comes first in every linear extension, so last here
        full = (1 << len(self.elements)) - 1
        return self._names[-1] if self.elements and self._up[-1] == full else None

    def maximum(self) -> str | None:
        full = (1 << len(self.elements)) - 1
        return self._names[0] if self.elements and self._down[0] == full else None

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


# S_n keeps two tables of n! masks of n! bits: about 400 MB at n = 8 and
# about 33 GB at n = 9
MAX_WEAK_N = 8


# Y_n keeps the same two tables: about 70 MB at n = 10 (16,796 elements) and
# about 0.86 GB at n = 11 (58,786 elements)
MAX_TAMARI_N = 10


# M_n keeps the same two tables: about 165 MB at n = 9 (25,674 elements) and
# about 3.3 GB at n = 10 (115,566 elements)
MAX_BILEVELED_N = 9


def check_weak_size(n: int) -> None:
    """Refuse a weak order too large for its dense masks, before any work."""
    _check_size("weak order", n, MAX_WEAK_N)


def check_bileveled_size(n: int) -> None:
    """Refuse a bi-leveled order too large for its dense masks, before any work."""
    _check_size("bi-leveled order", n, MAX_BILEVELED_N)


@lru_cache(maxsize=None)
def weak_order(n: int) -> FinitePoset:
    """Left weak order on S_n: covers swap the values k, k+1 when k sits left of k+1."""
    if n < 1:
        raise ValueError("weak order needs n >= 1")
    check_weak_size(n)
    elements = enumerate_family("S", n)
    # below the size limit every letter is one digit, so a cover exchanges
    # two characters of the key
    letters = "123456789"[:n]
    swaps = [(a, b, str.maketrans(a + b, b + a)) for a, b in zip(letters, letters[1:])]
    covers = [(key, key.translate(swap)) for key in elements
              for a, b, swap in swaps if key.index(a) < key.index(b)]
    return FinitePoset(elements, covers)


def _rotations(key: str):
    """The key of every single right rotation ((AB)C) -> (A(BC)) in the tree
    of ``key``, joined from slices of ``key``: each "((" starts one, and
    ``end[i]`` is the index just after the subtree that starts at i."""
    end = [0] * len(key)
    for i in range(len(key) - 1, -1, -1):
        if key[i] == ".":
            end[i] = i + 1
        elif key[i] == "(":
            end[i] = end[end[i + 1]] + 1
    for s in range(len(key) - 1):
        if key[s] == key[s + 1] == "(":
            a, m, e = end[s + 2], end[s + 1], end[s]
            yield (key[:s] + "(" + key[s + 2:a] + "(" + key[a:m - 1]
                   + key[m:e - 1] + "))" + key[e:])


@lru_cache(maxsize=None)
def tamari(n: int) -> FinitePoset:
    """Rotation order on Y_n; the left comb is minimal, the right comb maximal."""
    if n < 1:
        raise ValueError("rotation order needs n >= 1")
    _check_size("rotation order", n, MAX_TAMARI_N)
    keys = enumerate_family("Y", n)
    return FinitePoset(keys, [(key, rotated) for key in keys for rotated in _rotations(key)])


@lru_cache(maxsize=None)
def bileveled_order(n: int) -> FinitePoset:
    """Weak order on M_n: compare underlying shapes in the rotation order and
    circled sets by reverse inclusion."""
    if n < 1:
        raise ValueError("bi-leveled order needs n >= 1")
    check_bileveled_size(n)
    tam = tamari(n)
    by_shape = [[] for _ in tam.elements]
    for key, b in zip(enumerate_family("M", n), all_bileveled(n)):
        by_shape[tam.index[key.translate(_UNCIRCLE)]].append((b.circled, key))
    keys = [key for group in by_shape for _, key in group]
    relation = []
    for below, group in zip(tam._down, by_shape):
        lower = [a for s in _bits(below) for a in by_shape[s]]
        for circled, key in group:
            relation += [(x, key) for c, x in lower if circled <= c and x != key]
    return FinitePoset(keys, relation)


def poset_for(family: str, n: int) -> FinitePoset:
    if family == "S":
        return weak_order(n)
    if family == "Y":
        return tamari(n)
    if family == "M":
        return bileveled_order(n)
    raise ValueError(f"no poset for family {family!r}")


# ---------------------------------------------------------------------------
# fibers as intervals


def fiber_interval(n: int, b: BiLeveledTree | str) -> tuple[str, str]:
    """Least and greatest fiber words of ``b``, certified against the poset.

    The fiber must be an interval of the weak order, and its least word must
    match the closed-form minimal word; otherwise ``CertificationError``.
    """
    check_weak_size(n)
    key, obj = (b, parse_key("M", b)) if isinstance(b, str) else (render(b), b)
    return _fiber_interval(n, key, fiber_min_word(obj))


def _fiber_interval(n: int, key: str, least: tuple[int, ...]) -> tuple[str, str]:
    """``fiber_interval`` on a size checked already, for the tree of key
    ``key`` whose closed-form minimal word ``least`` is known."""
    fiber = beta_fibers(n).get(key)
    if fiber is None:
        raise ValueError(f"{key!r} is not a bi-leveled key of size {n}")
    ends = weak_order(n).interval_ends(fiber)
    if ends is None:
        raise CertificationError(f"fiber of {key!r} is not an interval")
    if ends[0] != render_perm(least):
        raise CertificationError(f"closed-form minimum disagrees on {key!r}")
    return ends


# ---------------------------------------------------------------------------
# poset map pairs and their certificates


@dataclass(frozen=True)
class PosetMapPair:
    """A forward/backward pair of total maps between two posets, also kept
    as the index tables the certificates read: ``_fwd[i]`` is the target
    index of the image of source index i, and ``_bwd`` the reverse."""

    source: FinitePoset
    target: FinitePoset
    forward: dict[str, str]
    backward: dict[str, str]
    _fwd: list[int] = field(init=False, repr=False, compare=False)
    _bwd: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        P, Q = self.source, self.target
        if set(self.forward) != set(P.elements):
            raise ValueError("forward map must be total on the source")
        if set(self.backward) != set(Q.elements):
            raise ValueError("backward map must be total on the target")
        for x, y in self.forward.items():
            if y not in Q:
                raise ValueError(f"forward image {y!r} of {x!r} not in target")
        for x, y in self.backward.items():
            if y not in P:
                raise ValueError(f"backward image {y!r} of {x!r} not in source")
        object.__setattr__(self, "_fwd", [Q.index[self.forward[x]] for x in P._names])
        object.__setattr__(self, "_bwd", [P.index[self.backward[t]] for t in Q._names])


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
    down = Q._down
    bad = [(i, j) for i, js in enumerate(P._upper_covers) for j in js
           if not down[image[j]] >> image[i] & 1]
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


@dataclass(frozen=True)
class GaloisReport:
    forward_order_preserving: str | None
    backward_order_preserving: str | None
    adjunction_failure: str | None
    mobius_failure: str | None
    checked_mobius: bool

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
            or not all(Q._down[t] >> fwd[v] & 1 for t, v in enumerate(bwd))):
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


@dataclass(frozen=True)
class RetractReport:
    source_is_lattice: bool
    forward_order_preserving: str | None
    backward_order_preserving: str | None
    section_failure: str | None
    fiber_failure: str | None
    mobius_failure: str | None

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


def _section_pair(n: int, order, project) -> PosetMapPair:
    """The weak order on S_n onto ``order(n)``: each word forward to the key
    ``project(word)``, and each key of the target back to the section word
    read off it (a tree's maximal word)."""
    P, Q = weak_order(n), order(n)
    forward = {render_perm(w): project(w) for w in itertools.permutations(range(1, n + 1))}
    backward = {t: render_perm(_key_word(t, True)) for t in Q.elements}
    return PosetMapPair(P, Q, forward, backward)


def tree_section_pair(n: int) -> PosetMapPair:
    """Weak order onto the rotation order via the tree map, back via maximal words."""
    return _section_pair(n, tamari, _tau_key)


def bileveled_section_pair(n: int) -> PosetMapPair:
    """Weak order onto the bi-leveled order, back via the section word."""
    return _section_pair(n, bileveled_order, _beta_key)
