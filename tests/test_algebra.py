import itertools
import json

import pytest

from multisym import algebra, posets, trees
from multisym.algebra import (
    LinearCombo,
    TensorCombo,
    action_ssym,
    action_ysym,
    apply_linear_map,
    coaction,
    coaction_monomial,
    coaction_monomial_transported,
    coinvariant_basis,
    check_fiber_monomial_sum,
    check_hopf_module,
    combo_to_json,
    coproduct_fund,
    from_monomial,
    key_degree,
    product_fund,
    product_msym,
    tensor_basis,
    tensor_to_json,
    to_monomial,
)
from multisym.trees import (
    bileveled_of_perm,
    enumerate_family,
    is_coinvariant_shape,
    max_word,
    parse_key,
    parse_perm,
    parse_tree,
    render,
    render_key,
    render_perm,
    tree_of_perm,
)


def beta_key(word: str) -> str:
    return render(bileveled_of_perm(parse_perm(word)))


def tau_key(word: str) -> str:
    return render(tree_of_perm(parse_perm(word)))


UNITS = {"S": "", "Y": ".", "M": "1"}


def fund(family, key):
    return LinearCombo(family, "F", {key: 1})


def mono(family, key):
    return LinearCombo(family, "M", {key: 1})


# --- products and coproducts --------------------------------------------------

def test_product_examples():
    assert product_fund("Y", "(..)", "(..)").terms == {"((..).)": 1, "(.(..))": 1}
    assert product_fund("S", "1", "1").terms == {"12": 1, "21": 1}
    assert product_fund("S", "", "12").terms == {"12": 1}
    assert product_fund("S", "12", "").terms == {"12": 1}
    assert product_fund("Y", ".", "(..)").terms == {"(..)": 1}


def test_product_rejects_circled_family():
    with pytest.raises(ValueError):
        product_fund("M", "{..}", "{..}")


def test_product_degrees_add():
    for key, coef in product_fund("S", "21", "132").terms.items():
        assert key_degree("S", key) == 5 and coef >= 1


def test_coproduct_examples():
    assert coproduct_fund("Y", "((..).)").terms == {
        (".", "((..).)"): 1, ("(..)", "(..)"): 1, ("((..).)", "."): 1}
    assert coproduct_fund("S", "1").terms == {("", "1"): 1, ("1", ""): 1}


def test_coproduct_restandardizes_words():
    assert coproduct_fund("S", "3142").terms == {
        ("", "3142"): 1, ("1", "132"): 1, ("21", "21"): 1,
        ("213", "1"): 1, ("3142", ""): 1}


def test_counit_on_tree_keys():
    # dropping the empty-side terms of a cut recovers the element itself
    for key in enumerate_family("Y", 3):
        terms = coproduct_fund("Y", key).terms
        assert terms[(".", key)] == 1 and terms[(key, ".")] == 1


# --- module structure ----------------------------------------------------------

SIX_TERMS = ["2143", "2413", "2431", "4213", "4231", "4321"]


def test_action_of_word_gives_six_terms():
    result = action_ssym("21", "{.(..)}")
    assert result.terms == {beta_key(w): 1 for w in SIX_TERMS}


def test_action_depends_only_on_bileveled_image():
    s = "{.(..)}"
    assert action_ssym("3142", s).terms == action_ssym("3241", s).terms


def test_action_degree():
    for key in action_ssym("21", "{.(..)}").terms:
        assert key_degree("M", key) == 4


def test_circled_product_matches_action():
    assert product_msym("{.(..)}", "{.(..)}").terms == {beta_key(w): 1 for w in SIX_TERMS}


def test_circled_product_unit():
    assert product_msym("1", "{{..}.}").terms == {"{{..}.}": 1}
    assert product_msym("{{..}.}", "1").terms == {"{{..}.}": 1}
    assert product_msym("1", "1").terms == {"1": 1}
    # the unit passes on only a circled key
    for other in ("xyz", "(..)", "{..", "."):
        for pair in (("1", other), (other, "1")):
            with pytest.raises(ValueError):
                product_msym(*pair)


def test_circled_product_associative_small():
    def mul(a, b):
        out = {}
        for x, cx in a.items():
            for y, cy in b.items():
                for k, c in product_msym(x, y).terms.items():
                    out[k] = out.get(k, 0) + cx * cy * c
        return out

    for a in enumerate_family("M", 1):
        for b in enumerate_family("M", 1):
            for c in enumerate_family("M", 2):
                left = mul(product_msym(a, b).terms, {c: 1})
                right = mul({a: 1}, product_msym(b, c).terms)
                assert left == right


def test_tree_action_three_terms():
    result = action_ysym("{.(..)}", "(.(..))")
    assert result.terms == {beta_key(w): 1 for w in ["2143", "2413", "2431"]}


def test_tree_action_unit():
    assert action_ysym("{{..}.}", ".").terms == {"{{..}.}": 1}


def test_tree_action_term_count():
    import math
    for b_key in enumerate_family("M", 3):
        for s_key in enumerate_family("Y", 2):
            total = sum(action_ysym(b_key, s_key).terms.values())
            assert total == math.comb(5, 2) - math.comb(4, 1)


# --- coaction -------------------------------------------------------------------

def test_coaction_four_term_display():
    expected = {
        (beta_key("3241"), "."): 1,
        ("{{.(..)}.}", tau_key("1")): 1,
        ("{.(..)}", tau_key("21")): 1,
        ("{..}", tau_key("231")): 1,
    }
    assert coaction(beta_key("3241")).terms == expected


def test_coaction_five_term_display():
    result = coaction(beta_key("35421"))
    rights = sorted(r for _, r in result.terms)
    assert rights == sorted([".", tau_key("1"), tau_key("21"),
                             tau_key("321"), tau_key("4321")])
    lefts = {l for l, _ in result.terms}
    assert lefts == {beta_key(w) for w in ["35421", "2431", "132", "12", "1"]}


def test_coaction_always_keeps_the_whole_key():
    for n in range(1, 5):
        for key in enumerate_family("M", n):
            terms = coaction(key).terms
            assert terms[(key, ".")] == 1
    assert coaction("{..}").terms == {("{..}", "."): 1}


# --- monomial basis -------------------------------------------------------------

def test_monomial_on_the_two_element_chain():
    assert from_monomial(mono("M", "{{..}.}")).terms == {"{{..}.}": 1, "{.(..)}": -1}
    assert from_monomial(mono("M", "{.(..)}")).terms == {"{.(..)}": 1}


def test_monomial_round_trip():
    for n in range(1, 5):
        for key in enumerate_family("M", n):
            assert from_monomial(to_monomial(fund("M", key))).terms == {key: 1}
            assert to_monomial(from_monomial(mono("M", key))).terms == {key: 1}


def test_top_elements_agree_in_both_bases():
    tops = {"S": "321", "Y": "(.(.(..)))", "M": "{.(.(..))}"}
    for family, key in tops.items():
        assert from_monomial(mono(family, key)).terms == {key: 1}


def test_conversion_handles_mixed_degrees_and_units():
    combo = LinearCombo("Y", "F", {".": 2, "(..)": 1, "((..).)": 3})
    assert from_monomial(to_monomial(combo)).terms == combo.terms


def test_conversion_rejects_wrong_basis():
    with pytest.raises(ValueError):
        to_monomial(mono("Y", "(..)"))
    with pytest.raises(ValueError):
        from_monomial(fund("Y", "(..)"))


# --- induced maps ---------------------------------------------------------------

def test_induced_map_images():
    assert apply_linear_map("beta", fund("S", "2413")).terms == {"{{..}{(..).}}": 1}


def test_induced_maps_collapse_fibers():
    x = LinearCombo("S", "F", {"1423": 1, "2413": 1, "3412": -2})
    assert apply_linear_map("tau", x).terms == {}


def test_forgetting_circles_factors_keywise():
    for n in range(0, 5):
        for w in enumerate_family("S", n):
            via_bileveled = apply_linear_map("phi", apply_linear_map("beta", fund("S", w)))
            assert via_bileveled.terms == apply_linear_map("tau", fund("S", w)).terms


def test_monomial_tree_property():
    # the induced tree map sends the monomial element of a maximal word to the
    # monomial element of its tree, and kills every other monomial word
    for n in range(1, 5):
        for sigma in enumerate_family("S", n):
            image = to_monomial(apply_linear_map("tau", from_monomial(mono("S", sigma))))
            t = tau_key(sigma)
            if render_perm(max_word(parse_tree(t))) == sigma:
                assert image.terms == {t: 1}
            else:
                assert image.terms == {}


@pytest.mark.parametrize("name", ["tau", "beta", "phi"])
def test_induced_maps_match_the_maps_on_objects(name):
    # every key of size <= 6 against the map on parsed objects, one key at a
    # time, and then all of them at once, with the units
    source, target, func = trees.MAPS[name]
    start = 1 if source == "M" else 0
    keys = [key for n in range(start, 7) for key in enumerate_family(source, n)]
    expected = {}
    for i, key in enumerate(keys, 1):
        image = (UNITS[target] if key == UNITS[source]
                 else render_key(target, func(parse_key(source, key))))
        assert apply_linear_map(name, fund(source, key)).terms == {image: 1}, key
        expected[image] = expected.get(image, 0) + i
    combo = LinearCombo(source, "F", dict(zip(keys, range(1, len(keys) + 1))))
    assert apply_linear_map(name, combo).terms == expected
    assert apply_linear_map(name, fund(source, UNITS[source])).terms == {UNITS[target]: 1}


def test_induced_maps_add_coefficients_of_keys_with_one_image():
    # 1423 and 2413 share their tree, 3142 and 3241 their circled tree
    x = LinearCombo("S", "F", {"": 4, "1": -1, "1423": 2, "2413": 3, "3142": 5, "3241": -7})
    assert apply_linear_map("tau", x).terms == {
        ".": 4, "(..)": -1, "((..)((..).))": 5, "((.(..))(..))": -2}
    assert apply_linear_map("beta", x).terms == {
        "1": 4, "{..}": -1, "{{..}{{..}.}}": 2, "{{..}{(..).}}": 3, "{{.(..)}(..)}": -2}
    circled = LinearCombo("M", "F", {"1": 3, "{{..}{{..}.}}": 2, "{{..}{(..).}}": -5,
                                     "{{..}(..)}": 1, "{{..}{..}}": 1})
    assert apply_linear_map("phi", circled).terms == {
        ".": 3, "((..)((..).))": -3, "((..)(..))": 2}


def test_induced_map_family_mismatch():
    with pytest.raises(ValueError):
        apply_linear_map("tau", fund("Y", "(..)"))
    with pytest.raises(ValueError):
        apply_linear_map("tau", mono("S", "12"))


# --- monomial coaction ----------------------------------------------------------

def test_monomial_coaction_two_term_display():
    assert coaction_monomial(beta_key("3241")).terms == {
        (beta_key("3241"), "."): 1,
        ("{{.(..)}.}", "(..)"): 1,
    }


def test_monomial_coaction_three_term_display():
    assert coaction_monomial(beta_key("35421")).terms == {
        (beta_key("35421"), "."): 1,
        (beta_key("2431"), "(..)"): 1,
        (beta_key("132"), "(.(..))"): 1,
    }


def test_monomial_coaction_matches_transport():
    for n in range(1, 5):
        for key in enumerate_family("M", n):
            assert coaction_monomial(key).terms == coaction_monomial_transported(key).terms


def test_coinvariant_basis():
    assert [len(coinvariant_basis(n)) for n in range(1, 6)] == [1, 1, 3, 11, 44]
    assert coinvariant_basis(2) == ["{{..}.}"]
    for n in range(1, 5):
        for key in coinvariant_basis(n):
            assert coaction_monomial(key).terms == {(key, "."): 1}


def right_spine_circled(b):
    """Every node on the right spine of ``b`` is circled, by a walk down its
    right children counting in-order indices."""
    node, index = b.tree, 0
    while not node.is_leaf:
        index += node.left.size + 1
        if index not in b.circled:
            return False
        node = node.right
    return True


@pytest.mark.parametrize("n", range(1, 8))
def test_coinvariant_basis_matches_the_filter_on_parsed_keys(n):
    expected = []
    for key in enumerate_family("M", n):
        b = parse_tree(key)
        circled = right_spine_circled(b)
        assert is_coinvariant_shape(b) == circled, key
        if circled:
            expected.append(key)
    assert coinvariant_basis(n) == expected


# --- theorem checkers -----------------------------------------------------------

def test_hopf_module_axiom_small():
    for b in enumerate_family("M", 2):
        for s in enumerate_family("Y", 2):
            assert check_hopf_module(b, s).passed


def test_hopf_module_with_unit_action():
    report = check_hopf_module("{{..}.}", ".")
    assert report.passed
    assert report.left.terms == coaction("{{..}.}").terms


@pytest.mark.parametrize("b, s, family, bad", [
    ("(..)", "(..)", "M", "(..)"),        # a plain tree as b
    ("{{..}", "(..)", "M", "{{..}"),      # malformed text as b
    ("x", ".", "M", "x"),
    ("{{..}.}", "{..}", "Y", "{..}"),     # a circled key as s
    ("{..}", "x", "Y", "x"),
    ("(..)", "{..}", "Y", "{..}"),        # both bad: s is checked first
])
def test_hopf_module_check_refuses_bad_keys_as_the_parser_does(b, s, family, bad):
    with pytest.raises(ValueError) as parsed:
        parse_key(family, bad)
    with pytest.raises(type(parsed.value)) as got:
        check_hopf_module(b, s)
    assert str(got.value) == str(parsed.value)


def test_hopf_module_check_refuses_a_shuffle_past_ten_factorial_terms(monkeypatch):
    def fail(*args):
        raise AssertionError("grafted past the shuffle guard")
    monkeypatch.setattr(algebra, "_grafts", fail)
    comb = "{" * 13 + "." + ".}" * 13
    with pytest.raises(ValueError) as exc:
        check_hopf_module(comb, "(." * 13 + "." + ")" * 13)
    assert str(exc.value) == "a shuffle is limited to 3628800 terms, got 10400600"


def test_fiber_monomial_sum():
    assert check_fiber_monomial_sum("{{.(..)}(..)}").passed
    for key in enumerate_family("M", 3):
        assert check_fiber_monomial_sum(key).passed


def test_fiber_monomial_sum_refuses_past_the_weak_order_before_reading_a_fiber(rebind):
    def fail(*args):
        raise AssertionError("read a fiber past the weak order's limit")
    rebind({"_key_fiber": fail, "_projected": fail})
    with pytest.raises(ValueError, match=r"^weak order is limited to n <= 8, got n = 9$"):
        check_fiber_monomial_sum("{" * 9 + "." + ".}" * 9)


# --- serialization ---------------------------------------------------------------

def test_combo_json_shape():
    combo = product_fund("Y", "(..)", "(..)")
    data = json.loads(combo_to_json(combo))
    assert data == {"family": "Y", "basis": "F",
                    "terms": {"((..).)": 1, "(.(..))": 1}}
    assert combo_to_json(combo) == combo_to_json(product_fund("Y", "(..)", "(..)"))


def test_tensor_json_shape():
    data = json.loads(tensor_to_json(coaction_monomial(beta_key("3241"))))
    assert data == {"terms": [
        {"left": "{{.(..)}(..)}", "right": ".", "coef": 1},
        {"left": "{{.(..)}.}", "right": "(..)", "coef": 1},
    ]}


def test_zero_terms_are_dropped():
    combo = LinearCombo("Y", "F", {"(..)": 0, ".": 2})
    assert combo.terms == {".": 2}
    tensor = TensorCombo("M", "Y", "F", "F", {("{..}", "."): 0})
    assert not tensor


def test_combinations_reject_unknown_families_and_bases():
    for args in (("Q", "Y", "F", "F"), ("M", "Q", "F", "F"),
                 ("M", "Y", "Z", "F"), ("M", "Y", "F", "Z")):
        with pytest.raises(ValueError, match="unknown (family|basis)"):
            TensorCombo(*args, {("(1,2)", "."): 1})
        with pytest.raises(ValueError, match="unknown (family|basis)"):
            TensorCombo(*args, {})
    for args in (("Q", "F"), ("M", "Z")):
        with pytest.raises(ValueError, match="unknown (family|basis)"):
            LinearCombo(*args, {})


# --- the memo on the structure maps -------------------------------------------

M_KEYS = [k for n in range(1, 5) for k in enumerate_family("M", n)]
Y_KEYS = [k for n in range(4) for k in enumerate_family("Y", n)]
MEMOS = (algebra.key_degree, algebra._shuffle, algebra._deconcatenate)


def structure_map_calls():
    """Every memoised map on every circled key of size <= 4 and plain tree
    of size <= 3, as (function, arguments); the circled product pairs each
    circled key with the unit and the keys of size <= 2, on either side."""
    calls = [(coaction, (b,)) for b in M_KEYS]
    calls += [(action_ysym, (b, s)) for b in M_KEYS for s in Y_KEYS]
    calls += [(product_msym, pair) for b in M_KEYS for c in ["1", *M_KEYS[:3]]
              for pair in ((b, c), (c, b))]
    calls += [(product_fund, ("Y", s, t)) for s in Y_KEYS for t in Y_KEYS]
    calls += [(coproduct_fund, ("Y", s)) for s in Y_KEYS]
    calls += [(key_degree, (family, k)) for family, keys in (("M", M_KEYS), ("Y", Y_KEYS))
              for k in keys]
    return calls


def test_memoised_maps_match_a_cleared_cache():
    calls = structure_map_calls()
    warm = [f(*args) for f, args in calls]
    for memo in MEMOS:
        memo.cache_clear()
    cold = [f(*args) for f, args in calls]
    assert cold == warm
    assert [f(*args) for f, args in calls] == cold
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.hits >= info.currsize > 0


@pytest.mark.parametrize("f, args", [
    (coaction, ("{{.(..)}(..)}",)),
    (action_ysym, ("{{..}.}", "(..)")),
    (product_msym, ("{{..}.}", "{..}")),
    (product_msym, ("1", "{..}")),
    (product_fund, ("Y", "(..)", "(..)")),
    (product_fund, ("S", "21", "1")),
    (coproduct_fund, ("S", "3142")),
    (coproduct_fund, ("Y", "((..).)")),
])
def test_mutating_an_answer_leaves_the_memo_intact(f, args):
    expected = f(*args)
    got = f(*args)
    assert got == expected and got.terms is not expected.terms
    key = next(iter(got.terms))
    got.terms[key] += 5
    got.terms.clear()
    assert f(*args) == expected and f(*args).terms


@pytest.mark.parametrize("f, args", [
    (coaction, ("(..)",)),
    (coaction, ("{..",)),
    (action_ysym, ("{..}", "{..}")),
    (action_ysym, ("(..)", "(..)")),
    (product_msym, ("{..}", "(..)")),
    (product_msym, ("{.", "{..}")),
    (product_fund, ("Y", "{..}", "(..)")),
    (product_fund, ("S", "12", "13")),
    (product_fund, ("M", "{..}", "{..}")),
    (coproduct_fund, ("Y", "((.)")),
    (coproduct_fund, ("M", "{..}")),
    (key_degree, ("M", "(..)")),
    (key_degree, ("S", "x")),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_bad_keys_raise_on_every_call(f, args):
    for _ in range(2):
        with pytest.raises(ValueError):
            f(*args)


@pytest.mark.parametrize("family", ["Q", "X"])
def test_key_degree_refuses_an_unknown_family(family):
    with pytest.raises(ValueError) as exc:
        key_degree(family, "(1)")
    assert str(exc.value) == f"unknown family {family!r}"


def outcome(f, *args):
    """The class and message of what ``f(*args)`` raises, or None."""
    try:
        f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


# each call reads the text as a key of the family named first
TEXT_CALLS = [
    ("M", coaction),
    ("M", coaction_monomial),
    ("Y", lambda text: product_fund("Y", text, "(..)")),
    ("Y", lambda text: product_fund("Y", "(..)", text)),
    ("M", lambda text: action_ysym(text, "(..)")),
    ("Y", lambda text: action_ysym("{..}", text)),
    ("M", lambda text: product_msym(text, "{..}")),
    ("M", lambda text: product_msym("{..}", text)),
    ("Y", lambda text: key_degree("Y", text)),
    ("M", lambda text: key_degree("M", text)),
]


def test_every_short_text_fails_as_the_parser_fails():
    # the algebra reads a key off its brackets and checks it by walking its
    # word back; a text that is not a key must raise what parse_key raises
    for length in range(7):
        for text in map("".join, itertools.product(".(){}x", repeat=length)):
            expected = {family: outcome(parse_key, family, text) for family in "YM"}
            for family, call in TEXT_CALLS:
                assert outcome(call, text) == expected[family], (family, text)


# --- no tree object built or rendered on the linear maps ------------------------

OBJECT_PATH = ("render", "render_key", "parse_tree", "tree_of_perm", "bileveled_of_perm",
               "strip_circles", "forest_decomposition")
CACHED = (algebra.key_degree, algebra._shuffle, algebra._deconcatenate, posets.weak_order,
          posets.tamari, posets.bileveled_order, trees._trees, trees._upsets, trees._bileveled,
          trees._parsed)


@pytest.fixture
def refuse_objects(rebind):
    """Make the object path of ``trees`` raise, in every module that binds
    it; every cache is emptied before and after, so nothing is served from
    a table built with it."""
    def failing(name):
        def fail(*args):
            raise AssertionError(f"{name} called on a linear map")
        return fail
    rebind({name: failing(name) for name in OBJECT_PATH}, CACHED)


def test_linear_maps_run_on_words_and_keys(refuse_objects):
    keys = {family: [key for n in range(1, 5) for key in enumerate_family(family, n)]
            for family in ("S", "Y", "M")}
    for name, source in (("tau", "S"), ("beta", "S"), ("phi", "M")):
        x = LinearCombo(source, "F", dict.fromkeys(keys[source] + [UNITS[source]], 1))
        assert apply_linear_map(name, x)
    for family, family_keys in keys.items():
        for key in family_keys + [UNITS[family]]:
            assert from_monomial(to_monomial(fund(family, key))).terms == {key: 1}
    for key in keys["M"]:
        tensor = coaction(key)
        assert tensor_basis(tensor_basis(tensor, "M"), "F") == tensor
        assert check_fiber_monomial_sum(key).passed


def test_monomial_coaction_runs_on_words_and_keys(refuse_objects):
    for n in range(1, 6):
        for key in enumerate_family("M", n):
            assert coaction_monomial(key).terms[key, "."] == 1
