"""Free integer modules on the three families: fundamental and monomial
bases, products, coproducts, the module action, and the coaction.

Basis keys are canonical strings.  Degree-zero keys are the canonical
strings of the empty objects ("" for words, "." for trees); the circled
family has no empty object, so its algebra unit is the formal key "1",
which never occurs as an enumerable key.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter, namedtuple
from functools import lru_cache, partial

from . import posets
from .trees import (
    _CIRCLE,
    _PLAIN,
    _UNCIRCLE,
    MAPS,
    _Record,
    _set,
    _beta_key,
    _check_count,
    _coinvariant_key,
    _interleave,
    _key_fiber,
    _key_word,
    _prefix_keys,
    _right_cuts,
    _standardize,
    _suffix_keys,
    _tau_key,
    enumerate_family,
    parse_key,
    render_perm,
)

UNIT_KEY = {"S": "", "Y": ".", "M": "1"}

FAMILIES = ("S", "Y", "M")
BASES = ("F", "M")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@lru_cache(maxsize=None)
def key_degree(family: str, key: str) -> int:
    _check_names((family,), ())
    return 0 if family == "M" and key == UNIT_KEY["M"] else len(_word(family, key))


def _check_names(families, bases) -> None:
    # the messages are formatted only on failure: combinations are built often
    for family in families:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
    for basis in bases:
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")


class _Combo(_Record):
    """What both combinations share: zero terms are dropped on construction,
    ``items`` lists the terms sorted, and a combination is false when empty."""

    __slots__ = ()

    def items(self):
        return sorted(self.terms.items())

    def __bool__(self):
        return bool(self.terms)


class LinearCombo(_Combo):
    """Finitely supported integer combination of keys from one family/basis."""

    __slots__ = _fields = ("family", "basis", "terms")

    def __init__(self, family: str, basis: str, terms: dict[str, int]):
        _check_names((family,), (basis,))
        _set(self, "family", family)
        _set(self, "basis", basis)
        _set(self, "terms", {k: v for k, v in terms.items() if v != 0})


class TensorCombo(_Combo):
    """Integer combination of key pairs; factor families/bases are fixed."""

    __slots__ = _fields = ("left_family", "right_family", "left_basis", "right_basis", "terms")

    def __init__(self, left_family: str, right_family: str, left_basis: str,
                 right_basis: str, terms: dict[tuple[str, str], int]):
        _check_names((left_family, right_family), (left_basis, right_basis))
        _set(self, "left_family", left_family)
        _set(self, "right_family", right_family)
        _set(self, "left_basis", left_basis)
        _set(self, "right_basis", right_basis)
        _set(self, "terms", {k: v for k, v in terms.items() if v != 0})


def combo_to_json(c: LinearCombo) -> str:
    import json

    return json.dumps({"family": c.family, "basis": c.basis, "terms": dict(c.items())},
                      sort_keys=True)


def tensor_to_json(t: TensorCombo) -> str:
    import json

    return json.dumps({"terms": [{"left": l, "right": r, "coef": v}
                                 for (l, r), v in t.items()]})


# ---------------------------------------------------------------------------
# fundamental-basis structure maps
#
# Every key stands for one word of its fiber: a word for itself, a tree for
# its minimal word, a circled tree for its section word, read off the key's
# brackets (``trees._key_word``) with no tree built.  Every product and
# action is a shifted shuffle of two such words (``_shuffle``), and every
# coproduct and the coaction a deconcatenation of one (``_deconcatenate``).
# The projections depend only on the relative order of the letters, and carry
# the shuffle and the deconcatenation to grafting and cutting (Malvenuto &
# Reutenauer 1995 for words, Loday & Ronco 1998 for trees), so the tree
# kernels never project a whole resulting word: each factor is walked once,
# and each term's key is joined from the pieces.  A deconcatenation pairs the
# key of each prefix with that of each suffix; a shuffle puts the keys of the
# segments of one word in place of the leaves of the other's key, circled as
# the term's first letter decides.  Which variant a map needs is read off the
# two families it names.  A word key is its own word, so the word family
# still projects each term.
# A tree key is checked by a walk the kernels run anyway: the last prefix key
# of its word equals the key exactly when the key is canonical.
# The two kernels are pure functions of their string arguments, memoised on
# them as a tuple of (key, coefficient) items with interned keys; each public
# map checks its arguments first and builds a fresh combination on every call.

_PROJECT = {"S": lambda w: render_perm(_standardize(w)), "Y": _tau_key, "M": _beta_key}


def _read(family: str, key: str) -> tuple[int, ...]:
    """The word of ``key``, unchecked for a tree key: each caller checks it
    with a walk (``_check``).  Text the scan cannot place reads as the empty
    word, which walks back to ``"."`` only and is no circled key's word."""
    if family == "S":
        return parse_key("S", key)
    try:
        word = _key_word(key, family == "M")
    except IndexError:
        word = ()
    if family == "M" and not word:
        _check(family, key, None)
    return word


def _check(family: str, key: str, walked: str | None) -> None:
    """Raise the error ``parse_key`` gives ``key`` unless it is ``walked``,
    the key its word walks back to: a canonical key is, and no other text."""
    if walked != key:
        parse_key(family, key)
        raise AssertionError(f"{key!r} does not read back as itself")


def _word(family: str, key: str) -> tuple[int, ...]:
    """The word of ``key``, checked by one walk of its own."""
    word = _read(family, key)
    if family != "S":
        _check(family, key, _PROJECT[family](word))
    return word


def _linear(terms, image) -> dict:
    """The sum of ``c * image(key)`` over the ``(key, c)`` items of ``terms``,
    each image given as (key, coefficient) items: every linear extension but
    the basis changes, which are one poset transform per size."""
    out: dict = {}
    for key, c in terms:
        for y, d in image(key):
            out[y] = out.get(y, 0) + c * d
    return out


def _tensor(left, right) -> list:
    """The (key, coefficient) items of the tensor product of two item lists."""
    return [((l, r), c * d) for l, c in left for r, d in right]


def _frozen(terms: dict) -> tuple:
    """The items of ``terms`` with every key string interned."""
    return tuple((sys.intern(k) if isinstance(k, str) else tuple(map(sys.intern, k)), v)
                 for k, v in terms.items())


def _grafts(segments: list[list[str]], base: str, cut_lists):
    """For each tuple of cuts, the key of that interleaving: ``base``, the
    key of the raised word, with its leaves, left to right, replaced by the
    keys of the left word's segments between the cuts: ``segments[i][j - i]``
    that of its letters i to j - 1, and ``segments[i][-1]`` that of its
    suffix from i."""
    head, *gaps, last = base.split(".")
    for cuts in cut_lists:
        parts, i = [head], 0
        for j, gap in zip(cuts, gaps):
            parts += (segments[i][j - i], gap)
            i = j
        parts += (segments[i][-1], last)
        yield "".join(parts)


@lru_cache(maxsize=None)
def _shuffle(left: str, x: str, right: str, y: str) -> tuple:
    """Every interleaving of the word of ``x`` with that of ``y`` raised above
    it, projected to ``left`` keys.  A tree acting on a circled key
    (``left != right``) keeps the words whose first letter is the circled
    key's, so that letter stays the least circled one and every node of the
    tree is circled.  Past 10! terms it is refused before any is built."""
    u = _read(left, x)
    if left == "S":
        v = _read(right, y)
    else:
        # the prefix walk of u checks x, and the walk of v checks y, which
        # is then the base of every graft
        circle_from = _PLAIN if left == "Y" else u[0]
        prefixes = _prefix_keys(u, circle_from)
        _check(left, x, prefixes[-1])
        v = _read(right, y)
        _check(right, y, _PROJECT[right](v))
    n, p = len(u), len(v)
    _check_count("a shuffle", "terms", math.comb(n + p, p))
    if left == "S":
        # v raised above u: every interleaving is already a word on 1..n + p
        every = itertools.combinations_with_replacement(range(n + 1), p)
        return _frozen(Counter(render_perm(_interleave(u, cuts, v)) for cuts in every))
    if p > 1:  # one prefix walk per start
        segments = [prefixes, *(_prefix_keys(u[i:], circle_from) for i in range(1, n)), ["."]]
    else:  # only prefixes and suffixes are read: one suffix walk
        segments = [prefixes, *([key] for key in _suffix_keys(u, circle_from)[1:])]
    if left == "Y":
        return _frozen(Counter(_grafts(
            segments, y, itertools.combinations_with_replacement(range(n + 1), p))))
    # the word starts with u[0] if the first cut is positive: u is circled from
    # u[0], and all of v, raised above u, is circled
    keys = _grafts(segments, y.translate(_CIRCLE),
                   itertools.combinations_with_replacement(range(1, n + 1), p))
    if right == "M":
        # else it starts with v[0]: u is plain, and v is circled from v[0]
        plain = [[key.translate(_UNCIRCLE) for key in row] for row in segments]
        keys = itertools.chain(keys, _grafts(plain, y, (
            (0, *cuts) for cuts in itertools.combinations_with_replacement(range(n + 1), p - 1))))
    return _frozen(Counter(keys))


@lru_cache(maxsize=None)
def _deconcatenate(left: str, right: str, x: str) -> tuple:
    """Every single cut of the word of ``x``, the two pieces projected to
    ``left`` and ``right`` keys: a prefix and a suffix walk for the trees.
    The coaction (``left != right``) starts at the first letter, since a
    circled tree is never empty."""
    w = _read(left, x)
    if left == "S":
        project = _PROJECT["S"]
        cuts = ((project(w[:k]), project(w[k:])) for k in range(len(w) + 1))
    else:
        prefixes = _prefix_keys(w, _PLAIN if left == "Y" else w[0])
        _check(left, x, prefixes[-1])
        cuts = zip(prefixes, _suffix_keys(w))
    # the cuts are distinct, their left pieces being of distinct sizes
    return _frozen(dict.fromkeys(itertools.islice(cuts, 0 if left == right else 1, None), 1))


def product_fund(family: str, x: str, y: str) -> LinearCombo:
    """Product of two fundamental basis elements of the word or tree family."""
    _require(family in ("S", "Y"),
             "the circled family multiplies through product_msym")
    return LinearCombo(family, "F", dict(_shuffle(family, x, family, y)))


def coproduct_fund(family: str, x: str) -> TensorCombo:
    """Coproduct of a fundamental basis element: the sum over single cuts."""
    _require(family in ("S", "Y"), "only the word and tree families have coproducts")
    return TensorCombo(family, family, "F", "F", dict(_deconcatenate(family, family, x)))


def product_msym(x: str, y: str) -> LinearCombo:
    """Product on the circled family: split the left factor, graft onto the right.

    The formal key "1" is a two-sided unit.
    """
    unit = UNIT_KEY["M"]
    if unit in (x, y):
        other = y if x == unit else x
        key_degree("M", other)  # refuses any other text than a circled key
        return LinearCombo("M", "F", {other: 1})
    return LinearCombo("M", "F", dict(_shuffle("M", x, "M", y)))


def action_ssym(w: str, s: str) -> LinearCombo:
    """Left action of a word on a circled key; depends on the word only
    through its bi-leveled image."""
    word = parse_key("S", w)
    _require(bool(word), "the empty word acts as the unit; pass keys of size >= 1")
    return product_msym(_beta_key(word), s)


def action_ysym(b: str, s: str) -> LinearCombo:
    """Right action of a tree on a circled key: the shuffles of the key's
    section word with the tree's minimal word raised above it that keep the
    section word's first letter first, each projected to its circled key."""
    return LinearCombo("M", "F", dict(_shuffle("M", b, "Y", s)))


def coaction(b: str) -> TensorCombo:
    """Coaction of the tree family on a circled key: restricted single cuts,
    circles dropped on the right factor."""
    return TensorCombo("M", "Y", "F", "F", dict(_deconcatenate("M", "Y", b)))


# ---------------------------------------------------------------------------
# monomial basis


def _change_basis(family: str, terms: dict[str, int], basis: str) -> dict[str, int]:
    """``terms`` re-expressed in ``basis``, nonzero sums only: to M by the
    zeta transform of each size's poset (the up-sets), to F by its Möbius
    sum; the unit as itself.  One transform per size, on indices."""
    by_size: dict[int, dict[str, int]] = {}
    for key, c in terms.items():
        by_size.setdefault(key_degree(family, key), {})[key] = c
    out = by_size.pop(0, {})
    for n, part in by_size.items():
        poset = posets.poset_for(family, n)
        out.update(poset.zeta(part) if basis == "M" else poset.mobius_sum(part))
    return out


def _convert(x: LinearCombo, basis: str) -> LinearCombo:
    return LinearCombo(x.family, basis, _change_basis(x.family, x.terms, basis))


def to_monomial(x: LinearCombo) -> LinearCombo:
    """Re-express a fundamental combination in the monomial basis."""
    _require(x.basis == "F", "to_monomial starts from the fundamental basis")
    return _convert(x, "M")


def from_monomial(x: LinearCombo) -> LinearCombo:
    """Expand a monomial combination back into the fundamental basis."""
    _require(x.basis == "M", "from_monomial starts from the monomial basis")
    return _convert(x, "F")


def tensor_basis(t: TensorCombo, basis: str) -> TensorCombo:
    """Convert both tensor factors between the fundamental and monomial bases."""
    _require(basis in BASES, f"unknown basis {basis!r}")
    if (t.left_basis, t.right_basis) == (basis, basis):
        return t
    _require(t.left_basis == t.right_basis, "mixed-basis tensors are not produced")
    # the change is separable: the right factors of each left key, then the
    # left factors of each right key, so no product of two rows is built
    rows: dict[str, dict[str, int]] = {}
    for (l, r), c in t.terms.items():
        rows.setdefault(l, {})[r] = c
    columns: dict[str, dict[str, int]] = {}
    for l, row in rows.items():
        for r, c in _change_basis(t.right_family, row, basis).items():
            columns.setdefault(r, {})[l] = c
    terms = {}
    for r, column in columns.items():
        for l, c in _change_basis(t.left_family, column, basis).items():
            terms[l, r] = c
    return TensorCombo(t.left_family, t.right_family, basis, basis, terms)


# ---------------------------------------------------------------------------
# induced linear maps


def apply_linear_map(name: str, x: LinearCombo) -> LinearCombo:
    """Apply one of the induced maps key-wise on the fundamental basis: each
    key's word projected to the target family, units sent to units."""
    _require(name in ("tau", "beta", "phi"), f"unknown map {name!r}")
    source, target, _ = MAPS[name]
    _require(x.family == source, f"map {name} starts from family {source}")
    _require(x.basis == "F", "induced maps act on the fundamental basis")
    return LinearCombo(target, "F", _linear(x.terms.items(), lambda key: ((
        UNIT_KEY[target] if key == UNIT_KEY[source]
        else _PROJECT[target](_word(source, key)), 1),)))


# ---------------------------------------------------------------------------
# monomial coaction and coinvariants


def coaction_monomial(b: str) -> TensorCombo:
    """Closed form of the coaction in the monomial bases: one term per right
    cut of the section word (``trees._right_cuts``)."""
    w = _read("M", b)
    prefixes = _prefix_keys(w, w[0])
    _check("M", b, prefixes[-1])
    return TensorCombo("M", "Y", "M", "M", dict.fromkeys(_right_cuts(w, prefixes), 1))


def _coaction_of(x: LinearCombo) -> TensorCombo:
    """The coaction extended linearly to a fundamental-basis combination."""
    return TensorCombo("M", "Y", "F", "F", _linear(
        x.terms.items(), partial(_deconcatenate, "M", "Y")))


def coaction_monomial_transported(b: str) -> TensorCombo:
    """The coaction of the monomial element computed the long way round:
    expand, apply the fundamental coaction, convert both factors back."""
    return tensor_basis(_coaction_of(from_monomial(LinearCombo("M", "M", {b: 1}))), "M")


def coinvariant_basis(n: int) -> list[str]:
    """Keys whose monomial elements the coaction fixes."""
    return [key for key in enumerate_family("M", n) if _coinvariant_key(key)]


# ---------------------------------------------------------------------------
# theorem-checking routines


class ComparisonReport(_Record, namedtuple("ComparisonReport", "left right")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.left.terms == self.right.terms


def _act_componentwise(cuts) -> list:
    """The items of ``m.y1 (x) y.y2`` for a coaction term ``(m, y)`` and a
    cut ``(y1, y2)``, read off the two shuffle kernels."""
    (m, y), (y1, y2) = cuts
    return _tensor(_shuffle("M", m, "Y", y1), _shuffle("Y", y, "Y", y2))


def check_hopf_module(b: str, s: str) -> ComparisonReport:
    """Coaction of an action versus the componentwise action of a coproduct,
    the latter summed straight from the kernels' items; the kernels check
    ``s``, then ``b``, and raise ``parse_key``'s error for either."""
    cut_s = _deconcatenate("Y", "Y", s)
    cuts = _tensor(_deconcatenate("M", "Y", b), cut_s)
    return ComparisonReport(_coaction_of(action_ysym(b, s)), TensorCombo(
        "M", "Y", "F", "F", _linear(cuts, _act_componentwise)))


def check_fiber_monomial_sum(b: str) -> ComparisonReport:
    """Push the sum of monomial words over a fiber through the projection;
    the result must be the single monomial element of the fiber's key."""
    n = key_degree("M", b)
    posets.check_order_size("S", n)  # before any fiber word is built
    _require(n > 0, "the empty word has no bi-leveled image")
    total = LinearCombo("S", "M", {render_perm(w): 1 for w in _key_fiber(b)})
    image = apply_linear_map("beta", from_monomial(total))
    got = to_monomial(image)
    return ComparisonReport(got, LinearCombo("M", "M", {b: 1}))
