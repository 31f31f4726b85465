"""Free integer modules on the three families: fundamental and monomial
bases, products, coproducts, the module action, and the coaction.

Basis keys are canonical strings.  Degree-zero keys are the canonical
strings of the empty objects ("" for words, "." for trees); the circled
family has no empty object, so its algebra unit is the formal key "1",
which never occurs as an enumerable key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import posets
from .trees import (
    MAPS,
    BiLeveledTree,
    _standardize,
    beta_fibers,
    bileveled_of_perm,
    enumerate_family,
    graft,
    graft_onto_bileveled,
    graft_onto_tree,
    is_coinvariant_shape,
    parse_key,
    parse_tree,
    render,
    render_key,
    render_perm,
    right_cuts,
    splittings,
    tree_of_perm,
)

UNIT_KEY = {"S": "", "Y": ".", "M": "1"}

FAMILIES = ("S", "Y", "M")
BASES = ("F", "M")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def key_degree(family: str, key: str) -> int:
    if family == "M" and key == UNIT_KEY["M"]:
        return 0
    obj = parse_key(family, key)
    return len(obj) if family == "S" else obj.size


@dataclass(frozen=True)
class LinearCombo:
    """Finitely supported integer combination of keys from one family/basis."""

    family: str
    basis: str
    terms: dict[str, int]

    def __post_init__(self):
        _require(self.family in FAMILIES, f"unknown family {self.family!r}")
        _require(self.basis in BASES, f"unknown basis {self.basis!r}")
        object.__setattr__(self, "terms",
                           {k: v for k, v in self.terms.items() if v != 0})

    def items(self):
        return sorted(self.terms.items())

    def __bool__(self):
        return bool(self.terms)


@dataclass(frozen=True)
class TensorCombo:
    """Integer combination of key pairs; factor families/bases are fixed."""

    left_family: str
    right_family: str
    left_basis: str
    right_basis: str
    terms: dict[tuple[str, str], int]

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           {k: v for k, v in self.terms.items() if v != 0})

    def items(self):
        return sorted(self.terms.items())

    def __bool__(self):
        return bool(self.terms)


def combo_to_json(c: LinearCombo) -> str:
    return json.dumps({"family": c.family, "basis": c.basis, "terms": dict(c.items())},
                      sort_keys=True)


def tensor_to_json(t: TensorCombo) -> str:
    return json.dumps({"terms": [{"left": l, "right": r, "coef": v}
                                 for (l, r), v in t.items()]})


# ---------------------------------------------------------------------------
# fundamental-basis structure maps


def product_fund(family: str, x: str, y: str) -> LinearCombo:
    """Product of two fundamental basis elements of the word or tree family."""
    _require(family in ("S", "Y"),
             "the circled family multiplies through product_msym")
    u, v = parse_key(family, x), parse_key(family, y)
    terms: dict[str, int] = {}
    if family == "S":
        q = len(u)
        shifted = tuple(a + q for a in v)
        for sp in splittings(tree_of_perm(u), len(v)):
            word, pos = [], 0
            for i, size in enumerate(sp.piece_sizes):
                word.extend(u[pos:pos + size])
                pos += size
                if i < len(shifted):
                    word.append(shifted[i])
            key = render_perm(tuple(word))
            terms[key] = terms.get(key, 0) + 1
    else:
        for sp in splittings(u, v.size):
            key = render(graft(sp, v))
            terms[key] = terms.get(key, 0) + 1
    return LinearCombo(family, "F", terms)


def coproduct_fund(family: str, x: str) -> TensorCombo:
    """Coproduct of a fundamental basis element: the sum over single cuts."""
    _require(family in ("S", "Y"), "only the word and tree families have coproducts")
    obj = parse_key(family, x)
    terms: dict[tuple[str, str], int] = {}
    if family == "S":
        for k in range(len(obj) + 1):
            pair = (render_perm(_standardize(obj[:k])),
                    render_perm(_standardize(obj[k:])))
            terms[pair] = terms.get(pair, 0) + 1
    else:
        for sp in splittings(obj, 1):
            pair = (render(sp.pieces[0]), render(sp.pieces[1]))
            terms[pair] = terms.get(pair, 0) + 1
    return TensorCombo(family, family, "F", "F", terms)


def product_msym(x: str, y: str) -> LinearCombo:
    """Product on the circled family: split the left factor, graft onto the right.

    The formal key "1" is a two-sided unit.
    """
    if x == UNIT_KEY["M"]:
        return LinearCombo("M", "F", {y: 1})
    if y == UNIT_KEY["M"]:
        return LinearCombo("M", "F", {x: 1})
    b, s = parse_key("M", x), parse_key("M", y)
    terms: dict[str, int] = {}
    for sp in splittings(b, s.size):
        key = render(graft_onto_bileveled(sp, s))
        terms[key] = terms.get(key, 0) + 1
    return LinearCombo("M", "F", terms)


def action_ssym(w: str, s: str) -> LinearCombo:
    """Left action of a word on a circled key; depends on the word only
    through its bi-leveled image."""
    word = parse_key("S", w)
    _require(bool(word), "the empty word acts as the unit; pass keys of size >= 1")
    return product_msym(render(bileveled_of_perm(word)), s)


def action_ysym(b: str, s: str) -> LinearCombo:
    """Right action of a tree on a circled key via restricted splittings."""
    obj, base = parse_key("M", b), parse_key("Y", s)
    terms: dict[str, int] = {}
    for sp in splittings(obj, base.size, restricted=True):
        key = render(graft_onto_tree(sp, base))
        terms[key] = terms.get(key, 0) + 1
    return LinearCombo("M", "F", terms)


def coaction(b: str) -> TensorCombo:
    """Coaction of the tree family on a circled key: restricted single cuts,
    circles dropped on the right factor."""
    obj = parse_key("M", b)
    terms: dict[tuple[str, str], int] = {}
    for sp in splittings(obj, 1, restricted=True):
        left = BiLeveledTree(sp.pieces[0], sp.piece_circles()[0])
        pair = (render(left), render(sp.pieces[1]))
        terms[pair] = terms.get(pair, 0) + 1
    return TensorCombo("M", "Y", "F", "F", terms)


# ---------------------------------------------------------------------------
# monomial basis


def _is_unit(family: str, key: str) -> bool:
    return key == UNIT_KEY[family]


def to_monomial(x: LinearCombo) -> LinearCombo:
    """Re-express a fundamental combination in the monomial basis."""
    _require(x.basis == "F", "to_monomial starts from the fundamental basis")
    out: dict[str, int] = {}
    for key, c in x.terms.items():
        if _is_unit(x.family, key):
            out[key] = out.get(key, 0) + c
            continue
        poset = posets.poset_for(x.family, key_degree(x.family, key))
        for upper in poset.upset(key):
            out[upper] = out.get(upper, 0) + c
    return LinearCombo(x.family, "M", out)


def from_monomial(x: LinearCombo) -> LinearCombo:
    """Expand a monomial combination back into the fundamental basis."""
    _require(x.basis == "M", "from_monomial starts from the monomial basis")
    out: dict[str, int] = {}
    for key, c in x.terms.items():
        if _is_unit(x.family, key):
            out[key] = out.get(key, 0) + c
            continue
        poset = posets.poset_for(x.family, key_degree(x.family, key))
        for upper in poset.upset(key):
            out[upper] = out.get(upper, 0) + c * poset.mobius(key, upper)
    return LinearCombo(x.family, "F", out)


def tensor_basis(t: TensorCombo, basis: str) -> TensorCombo:
    """Convert both tensor factors between the fundamental and monomial bases."""
    _require(basis in BASES, f"unknown basis {basis!r}")
    if (t.left_basis, t.right_basis) == (basis, basis):
        return t
    _require(t.left_basis == t.right_basis, "mixed-basis tensors are not produced")
    out: dict[tuple[str, str], int] = {}
    for (left, right), c in t.terms.items():
        lp = _side_conversion(t.left_family, left, t.left_basis, basis)
        rp = _side_conversion(t.right_family, right, t.right_basis, basis)
        for lk, lc in lp:
            for rk, rc in rp:
                pair = (lk, rk)
                out[pair] = out.get(pair, 0) + c * lc * rc
    return TensorCombo(t.left_family, t.right_family, basis, basis, out)


def _side_conversion(family, key, basis_in, basis_out):
    single = LinearCombo(family, basis_in, {key: 1})
    converted = to_monomial(single) if basis_out == "M" else from_monomial(single)
    return converted.items()


# ---------------------------------------------------------------------------
# induced linear maps


def apply_linear_map(name: str, x: LinearCombo) -> LinearCombo:
    """Apply one of the induced maps key-wise on the fundamental basis."""
    _require(name in ("tau", "beta", "phi"), f"unknown map {name!r}")
    source, target, func = MAPS[name]
    _require(x.family == source, f"map {name} starts from family {source}")
    _require(x.basis == "F", "induced maps act on the fundamental basis")
    out: dict[str, int] = {}
    for key, c in x.terms.items():
        if _is_unit(source, key):
            image = UNIT_KEY[target]
        else:
            image = render_key(target, func(parse_key(source, key)))
        out[image] = out.get(image, 0) + c
    return LinearCombo(target, "F", out)


# ---------------------------------------------------------------------------
# monomial coaction and coinvariants


def coaction_monomial(b: str) -> TensorCombo:
    """Closed form of the coaction in the monomial bases: one term per right cut."""
    obj = parse_key("M", b)
    terms: dict[tuple[str, str], int] = {}
    for left, right in right_cuts(obj):
        pair = (render(left), render(right))
        terms[pair] = terms.get(pair, 0) + 1
    return TensorCombo("M", "Y", "M", "M", terms)


def coaction_monomial_transported(b: str) -> TensorCombo:
    """The coaction of the monomial element computed the long way round:
    expand, apply the fundamental coaction, convert both factors back."""
    expanded = from_monomial(LinearCombo("M", "M", {b: 1}))
    acc: dict[tuple[str, str], int] = {}
    for key, c in expanded.terms.items():
        for pair, d in coaction(key).terms.items():
            acc[pair] = acc.get(pair, 0) + c * d
    fund = TensorCombo("M", "Y", "F", "F", acc)
    return tensor_basis(fund, "M")


def coinvariant_basis(n: int) -> list[str]:
    """Keys whose monomial elements the coaction fixes."""
    return [key for key in enumerate_family("M", n)
            if is_coinvariant_shape(parse_tree(key))]


# ---------------------------------------------------------------------------
# theorem-checking routines


@dataclass(frozen=True)
class ComparisonReport:
    left: TensorCombo | LinearCombo
    right: TensorCombo | LinearCombo

    @property
    def passed(self) -> bool:
        return self.left.terms == self.right.terms


def check_hopf_module(b: str, s: str) -> ComparisonReport:
    """Coaction of an action versus the componentwise action of a coproduct."""
    acted = action_ysym(b, s)
    lhs: dict[tuple[str, str], int] = {}
    for key, c in acted.terms.items():
        for pair, d in coaction(key).terms.items():
            lhs[pair] = lhs.get(pair, 0) + c * d
    rhs: dict[tuple[str, str], int] = {}
    for (m_key, y_key), c in coaction(b).terms.items():
        for (y1, y2), d in coproduct_fund("Y", s).terms.items():
            left_part = action_ysym(m_key, y1)
            right_part = product_fund("Y", y_key, y2)
            for mk, mc in left_part.terms.items():
                for yk, yc in right_part.terms.items():
                    pair = (mk, yk)
                    rhs[pair] = rhs.get(pair, 0) + c * d * mc * yc
    return ComparisonReport(TensorCombo("M", "Y", "F", "F", lhs),
                            TensorCombo("M", "Y", "F", "F", rhs))


def check_fiber_monomial_sum(b: str) -> ComparisonReport:
    """Push the sum of monomial words over a fiber through the projection;
    the result must be the single monomial element of the fiber's key."""
    n = key_degree("M", b)
    fiber = beta_fibers(n).get(b)
    _require(fiber is not None, f"{b!r} is not a circled key of size {n}")
    total = LinearCombo("S", "M", {w: 1 for w in fiber})
    image = apply_linear_map("beta", from_monomial(total))
    got = to_monomial(image)
    return ComparisonReport(got, LinearCombo("M", "M", {b: 1}))
