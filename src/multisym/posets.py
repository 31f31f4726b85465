"""Finite posets over canonical keys, the three concrete orders, and the
Galois-connection / interval-retract certifiers.

Posets are frozen after construction; comparability is kept as per-element
bitmasks over the (lexicographically sorted) element list, and Möbius
values fill a memo table idempotently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .trees import (
    BiLeveledTree,
    PlanarTree,
    all_bileveled,
    all_trees,
    beta_fibers,
    bileveled_of_perm,
    enumerate_family,
    fiber_min_word,
    max_word,
    parse_perm,
    parse_tree,
    render,
    render_perm,
    section_word,
    strip_circles,
    tree_of_perm,
)


class IncomparableError(ValueError):
    """Asked for interval data on an incomparable pair."""


class CertificationError(RuntimeError):
    """A structural fact the implementation relies on failed to verify."""


class FinitePoset:
    """Explicit finite poset built from its cover relation.

    ``leq`` is the reflexive-transitive closure of ``covers``; construction
    fails on cycles.  Elements are sorted canonical strings.
    """

    __slots__ = ("elements", "index", "covers", "_down", "_up", "_mobius")

    def __init__(self, elements, covers):
        self.elements = sorted(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        for x, y in covers:
            if x not in self.index or y not in self.index:
                raise ValueError(f"cover ({x!r}, {y!r}) mentions unknown elements")
            if x == y:
                raise ValueError(f"self-cover on {x!r}")
        self.covers = frozenset(covers)
        self._down = self._close()
        n = len(self.elements)
        self._up = [0] * n
        for j in range(n):
            mask = self._down[j]
            while mask:
                low = mask & -mask
                self._up[low.bit_length() - 1] |= 1 << j
                mask ^= low
        self._mobius = {}

    def _close(self):
        n = len(self.elements)
        above = [[] for _ in range(n)]
        indeg = [0] * n
        for x, y in self.covers:
            above[self.index[x]].append(self.index[y])
            indeg[self.index[y]] += 1
        down = [1 << i for i in range(n)]
        queue = [i for i in range(n) if indeg[i] == 0]
        seen = 0
        while queue:
            i = queue.pop()
            seen += 1
            for j in above[i]:
                down[j] |= down[i]
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if seen != n:
            raise ValueError("cover relation has a cycle")
        return down

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def leq(self, x: str, y: str) -> bool:
        return bool(self._down[self.index[y]] >> self.index[x] & 1)

    def _members(self, mask: int) -> list[str]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.elements[low.bit_length() - 1])
            mask ^= low
        return out

    def downset(self, x: str) -> list[str]:
        return self._members(self._down[self.index[x]])

    def upset(self, x: str) -> list[str]:
        return self._members(self._up[self.index[x]])

    def interval(self, x: str, y: str) -> list[str]:
        if not self.leq(x, y):
            raise IncomparableError(f"{x!r} is not below {y!r}")
        return self._members(self._up[self.index[x]] & self._down[self.index[y]])

    def interval_ends(self, members) -> tuple[str, str] | None:
        """``(least, greatest)`` if ``members`` is exactly the interval between
        them, else None (also when ``members`` is empty)."""
        mask = 0
        for x in members:
            mask |= 1 << self.index[x]
        lo = hi = None
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if mask & ~self._up[i] == 0:
                lo = i
            if mask & ~self._down[i] == 0:
                hi = i
            rest ^= low
        if lo is None or hi is None or self._up[lo] & self._down[hi] != mask:
            return None
        return self.elements[lo], self.elements[hi]

    def mobius(self, x: str, y: str) -> int:
        i, j = self.index[x], self.index[y]
        if not self._down[j] >> i & 1:
            raise IncomparableError(f"{x!r} is not below {y!r}")
        return self._mobius_idx(i, j)

    def _mobius_idx(self, i: int, j: int) -> int:
        if i == j:
            return 1
        cached = self._mobius.get((i, j))
        if cached is None:
            total = 0
            mask = self._up[i] & self._down[j] & ~(1 << j)
            while mask:
                low = mask & -mask
                total += self._mobius_idx(i, low.bit_length() - 1)
                mask ^= low
            cached = -total
            self._mobius[(i, j)] = cached
        return cached

    def minimum(self) -> str | None:
        full = (1 << len(self.elements)) - 1
        hits = [x for i, x in enumerate(self.elements) if self._up[i] == full]
        return hits[0] if len(hits) == 1 else None

    def maximum(self) -> str | None:
        full = (1 << len(self.elements)) - 1
        hits = [x for i, x in enumerate(self.elements) if self._down[i] == full]
        return hits[0] if len(hits) == 1 else None

    def _bound_exists(self, masks, i: int, j: int) -> bool:
        common = masks[i] & masks[j]
        if common == 0:
            return False
        best, best_count = -1, -1
        mask = common
        while mask:
            low = mask & -mask
            k = low.bit_length() - 1
            count = (masks[k] & common).bit_count()
            if count > best_count:
                best, best_count = k, count
            mask ^= low
        return common & ~masks[best] == 0

    def is_lattice(self) -> bool:
        n = len(self.elements)
        for i in range(n):
            for j in range(i + 1, n):
                if not self._bound_exists(self._down, i, j):
                    return False
                if not self._bound_exists(self._up, i, j):
                    return False
        return True

    def cover_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.covers)

    def to_dot(self, name: str = "hasse") -> str:
        lines = [f"digraph {name} {{"]
        for x in self.elements:
            lines.append(f'  "{x}";')
        for x, y in self.cover_pairs():
            lines.append(f'  "{x}" -> "{y}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the three concrete orders, one poset per size


@lru_cache(maxsize=None)
def weak_order(n: int) -> FinitePoset:
    """Left weak order on S_n: covers swap the values k, k+1 when k sits left of k+1."""
    if n < 1:
        raise ValueError("weak order needs n >= 1")
    elements = enumerate_family("S", n)
    covers = set()
    for key in elements:
        word = parse_perm(key)
        pos = {a: i for i, a in enumerate(word)}
        for k in range(1, n):
            if pos[k] < pos[k + 1]:
                swapped = tuple(k + 1 if a == k else k if a == k + 1 else a
                                for a in word)
                covers.add((key, render_perm(swapped)))
    return FinitePoset(elements, covers)


def _rotations(t):
    # every single right rotation (A.B).C -> A.(B.C), anywhere in t
    if t.is_leaf:
        return
    if not t.left.is_leaf:
        yield PlanarTree(t.left.left, PlanarTree(t.left.right, t.right))
    for sub in _rotations(t.left):
        yield PlanarTree(sub, t.right)
    for sub in _rotations(t.right):
        yield PlanarTree(t.left, sub)


@lru_cache(maxsize=None)
def tamari(n: int) -> FinitePoset:
    """Rotation order on Y_n; the left comb is minimal, the right comb maximal."""
    if n < 1:
        raise ValueError("rotation order needs n >= 1")
    covers = set()
    for t in all_trees(n):
        for rotated in _rotations(t):
            covers.add((render(t), render(rotated)))
    return FinitePoset(enumerate_family("Y", n), covers)


@lru_cache(maxsize=None)
def bileveled_order(n: int) -> FinitePoset:
    """Weak order on M_n: compare underlying shapes in the rotation order and
    circled sets by reverse inclusion.  Covers come from transitive reduction."""
    if n < 1:
        raise ValueError("bi-leveled order needs n >= 1")
    objs = all_bileveled(n)
    keys = [render(b) for b in objs]  # sorted, matching FinitePoset order
    shapes = [render(strip_circles(b)) for b in objs]
    tam = tamari(n)
    m = len(objs)
    down = [0] * m
    up = [0] * m
    for i in range(m):
        for j in range(m):
            if (objs[j].circled <= objs[i].circled
                    and tam.leq(shapes[i], shapes[j])):
                down[j] |= 1 << i
                up[i] |= 1 << j
    covers = set()
    for i in range(m):
        for j in range(m):
            if i != j and down[j] >> i & 1:
                between = down[j] & up[i] & ~(1 << i) & ~(1 << j)
                if between == 0:
                    covers.add((keys[i], keys[j]))
    built = FinitePoset(keys, covers)
    if built._down != down:
        raise CertificationError("cover reduction changed the order")
    return built


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
    key = b if isinstance(b, str) else render(b)
    obj = parse_tree(key)
    fiber = beta_fibers(n).get(key)
    if fiber is None:
        raise ValueError(f"{key!r} is not a bi-leveled key of size {n}")
    ends = weak_order(n).interval_ends(fiber)
    if ends is None:
        raise CertificationError(f"fiber of {key!r} is not an interval")
    if ends[0] != render_perm(fiber_min_word(obj)):
        raise CertificationError(f"closed-form minimum disagrees on {key!r}")
    return ends


# ---------------------------------------------------------------------------
# poset map pairs and their certificates


@dataclass(frozen=True)
class PosetMapPair:
    """A forward/backward pair of total maps between two posets."""

    source: FinitePoset
    target: FinitePoset
    forward: dict[str, str]
    backward: dict[str, str]

    def __post_init__(self):
        if set(self.forward) != set(self.source.elements):
            raise ValueError("forward map must be total on the source")
        if set(self.backward) != set(self.target.elements):
            raise ValueError("backward map must be total on the target")
        for x, y in self.forward.items():
            if y not in self.target:
                raise ValueError(f"forward image {y!r} of {x!r} not in target")
        for x, y in self.backward.items():
            if y not in self.source:
                raise ValueError(f"backward image {y!r} of {x!r} not in source")


def _fibers(mapping: dict[str, str], codomain) -> dict[str, list[str]]:
    """The preimages under a total map of every element of ``codomain``."""
    fibers: dict[str, list[str]] = {t: [] for t in codomain}
    for v, t in mapping.items():
        fibers[t].append(v)
    return fibers


def _order_preserving(poset_in, poset_out, mapping) -> str | None:
    for x, y in itertools.combinations(poset_in.elements, 2):
        for a, b in ((x, y), (y, x)):
            if poset_in.leq(a, b) and not poset_out.leq(mapping[a], mapping[b]):
                return f"{a} <= {b} but {mapping[a]} !<= {mapping[b]}"
    return None


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


def check_galois(pair: PosetMapPair) -> GaloisReport:
    """Certify the adjunction fwd(v) <= t  <=>  v <= back(t); when it holds,
    also certify the Möbius-transfer identity it implies."""
    P, Q = pair.source, pair.target
    fwd_bad = _order_preserving(P, Q, pair.forward)
    bwd_bad = _order_preserving(Q, P, pair.backward)
    adjunction = None
    for v in P.elements:
        for t in Q.elements:
            left = Q.leq(pair.forward[v], t)
            right = P.leq(v, pair.backward[t])
            if left != right:
                adjunction = (f"fwd({v}) <= {t} is {left} but "
                              f"{v} <= back({t}) is {right}")
                break
        if adjunction:
            break
    mobius_bad = None
    checked = adjunction is None and fwd_bad is None and bwd_bad is None
    if checked:
        fwd_fiber = _fibers(pair.forward, Q.elements)
        bwd_fiber = _fibers(pair.backward, P.elements)
        for v in P.elements:
            for t in Q.elements:
                lhs = sum(P.mobius(v, w) for w in fwd_fiber[t] if P.leq(v, w))
                rhs = sum(Q.mobius(s, t) for s in bwd_fiber[v] if Q.leq(s, t))
                if lhs != rhs:
                    mobius_bad = f"sum mismatch at v={v}, t={t}: {lhs} != {rhs}"
                    break
            if mobius_bad:
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
    P, Q = pair.source, pair.target
    lattice = P.is_lattice()
    fwd_bad = _order_preserving(P, Q, pair.forward)
    bwd_bad = _order_preserving(Q, P, pair.backward)
    section = None
    for t in Q.elements:
        if pair.forward[pair.backward[t]] != t:
            section = f"fwd(back({t})) = {pair.forward[pair.backward[t]]}"
            break
    fibers = _fibers(pair.forward, Q.elements)
    fiber_bad = None
    for t in Q.elements:
        if not fibers[t]:
            fiber_bad = f"empty fiber over {t}"
            break
        if P.interval_ends(fibers[t]) is None:
            fiber_bad = f"fiber over {t} is not an interval"
            break
    mobius_bad = None
    for s in Q.elements:
        for t in Q.elements:
            if s == t or not Q.leq(s, t):
                continue
            total = sum(P.mobius(v, w)
                        for v in fibers[s] for w in fibers[t] if P.leq(v, w))
            if total != Q.mobius(s, t):
                mobius_bad = f"sum over fibers of {s} < {t}: {total} != {Q.mobius(s, t)}"
                break
        if mobius_bad:
            break
    return RetractReport(lattice, fwd_bad, bwd_bad, section, fiber_bad, mobius_bad)


# ---------------------------------------------------------------------------
# ready-made pairs


def tree_section_pair(n: int) -> PosetMapPair:
    """Weak order onto the rotation order via the tree map, back via maximal words."""
    P, Q = weak_order(n), tamari(n)
    forward = {w: render(tree_of_perm(parse_perm(w))) for w in P.elements}
    backward = {t: render_perm(max_word(parse_tree(t))) for t in Q.elements}
    return PosetMapPair(P, Q, forward, backward)


def bileveled_section_pair(n: int) -> PosetMapPair:
    """Weak order onto the bi-leveled order, back via the section word."""
    P, Q = weak_order(n), bileveled_order(n)
    forward = {w: render(bileveled_of_perm(parse_perm(w))) for w in P.elements}
    backward = {t: render_perm(section_word(parse_tree(t))) for t in Q.elements}
    return PosetMapPair(P, Q, forward, backward)
