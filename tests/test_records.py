"""The package's immutable records: how they are built, compared, copied,
pickled and refused, and that importing the package loads neither
``dataclasses`` nor ``json``."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from multisym import algebra, posets, series, trees, verify
from multisym.trees import LEAF, ArityError, BiLeveledTree, PlanarTree, parse_tree

CHERRY = PlanarTree(LEAF, LEAF)
PAIR = posets.tree_section_pair(2)

# class -> the arguments of one record, by field; none is dropped or rewritten
# on construction
RECORDS = {
    trees.ForestDecomposition: {"base": CHERRY, "hanging": (LEAF,)},
    trees.Splitting: {"source": CHERRY, "circled": None, "leaves": (1,),
                      "pieces": (LEAF, CHERRY)},
    posets.PosetMapPair: {"source": PAIR.source, "target": PAIR.target,
                          "forward": PAIR.forward, "backward": PAIR.backward},
    posets.GaloisReport: {"forward_order_preserving": None, "backward_order_preserving": "bo",
                          "adjunction_failure": None, "mobius_failure": "m",
                          "checked_mobius": False},
    posets.RetractReport: {"source_is_lattice": True, "forward_order_preserving": None,
                           "backward_order_preserving": None, "section_failure": "s",
                           "fiber_failure": None, "mobius_failure": None},
    algebra.LinearCombo: {"family": "Y", "basis": "F", "terms": {"(..)": 2, ".": -1}},
    algebra.TensorCombo: {"left_family": "M", "right_family": "Y", "left_basis": "F",
                          "right_basis": "M", "terms": {("{..}", "."): 1}},
    algebra.ComparisonReport: {"left": 3, "right": ("x",)},
    series.TruncatedSeries: {"coeffs": (1, 0, 2)},
    series.DimensionReport: {"n_max": 3, "failures": ("x",)},
    verify.SuiteResult: {"name": "fibers", "n_max": 4, "passed": False,
                         "counterexample": "n=2"},
}
# a change to one field per class, valid for its constructor
CHANGES = {
    trees.ForestDecomposition: {"hanging": (CHERRY,)},
    trees.Splitting: {"leaves": (2,)},
    posets.PosetMapPair: {"forward": dict.fromkeys(PAIR.forward, PAIR.target.elements[0])},
    posets.GaloisReport: {"checked_mobius": True},
    posets.RetractReport: {"mobius_failure": "m"},
    algebra.LinearCombo: {"basis": "M"},
    algebra.TensorCombo: {"terms": {}},
    algebra.ComparisonReport: {"right": 4},
    series.TruncatedSeries: {"coeffs": (1,)},
    series.DimensionReport: {"failures": ()},
    verify.SuiteResult: {"passed": True},
}
IDS = [cls.__name__ for cls in RECORDS]


def records():
    return [(cls, cls(**fields), fields) for cls, fields in RECORDS.items()]


def test_importing_the_package_loads_neither_dataclasses_nor_json():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys; before = set(sys.modules); import multisym, multisym.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(done.stdout.split())
    assert "multisym.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "json", "typing"}


@pytest.mark.parametrize("cls, record, fields", records(), ids=IDS)
def test_records_are_built_by_position_or_by_keyword(cls, record, fields):
    assert list(cls._fields) == list(fields)
    assert cls(*fields.values()) == record
    for name, value in fields.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls, record, fields", records(), ids=IDS)
def test_records_compare_by_class_and_value(cls, record, fields):
    twin = cls(**fields)
    assert twin == record and not twin != record and twin is not record
    changed = record._replace(**CHANGES[cls])
    assert changed != record and not changed == record
    assert record != tuple(fields.values())
    for other, other_fields in RECORDS.items():
        if other is not cls:
            assert record != other(**other_fields)


def test_records_of_two_classes_with_the_same_fields_differ():
    report = series.DimensionReport(3, ("x",))
    comparison = algebra.ComparisonReport(3, ("x",))
    assert report != comparison and comparison != report
    assert not report == (3, ("x",)) and not (3, ("x",)) == report
    assert hash(report) == hash(series.DimensionReport(3, ("x",)))


@pytest.mark.parametrize("cls, record, fields", records(), ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, record, fields):
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, record, fields", records(), ids=IDS)
def test_replace_changes_only_the_named_fields(cls, record, fields):
    changes = CHANGES[cls]
    changed = record._replace(**changes)
    assert type(changed) is cls
    for name, value in fields.items():
        assert getattr(changed, name) == changes.get(name, value)
        assert getattr(record, name) == value
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)


def pickled(record):
    return pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, pickled],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("cls, record, fields", records(), ids=IDS)
def test_records_copy_and_pickle(cls, record, fields, duplicate):
    twin = duplicate(record)
    assert type(twin) is cls and twin is not record
    assert twin == record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(twin, name, None)


@pytest.mark.parametrize("cls, record, fields", records(), ids=IDS)
def test_records_show_their_fields(cls, record, fields):
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"


def test_suite_result_has_no_counterexample_by_default():
    assert verify.SuiteResult("dimensions", 5, True).counterexample is None
    assert verify.SuiteResult(name="x", n_max=1, passed=True) == verify.SuiteResult("x", 1, True)


def test_combinations_drop_zero_terms_and_check_their_names():
    combo = algebra.LinearCombo("S", "F", {"12": 0, "21": 3})
    assert combo.terms == {"21": 3} and combo == algebra.LinearCombo("S", "F", {"21": 3})
    assert not algebra.LinearCombo("S", "M", {"1": 0})
    tensor = algebra.TensorCombo("M", "Y", "F", "F", {("{..}", "."): 0})
    assert tensor.terms == {} and not tensor
    for bad in [("Q", "F"), ("S", "G")]:
        with pytest.raises(ValueError, match="unknown"):
            algebra.LinearCombo(*bad, {})
    with pytest.raises(ValueError, match="unknown basis 'G'"):
        algebra.TensorCombo("M", "Y", "F", "G", {})
    with pytest.raises(ValueError, match="unknown family 'Q'"):
        algebra.TensorCombo(left_family="Q", right_family="Y", left_basis="F",
                            right_basis="F", terms={})


def test_a_forest_needs_one_hanging_tree_per_base_node():
    with pytest.raises(ArityError, match="one hanging tree per base node"):
        trees.ForestDecomposition(CHERRY, ())
    with pytest.raises(ArityError):
        trees.ForestDecomposition(base=LEAF, hanging=(LEAF,))
    with pytest.raises(ArityError):
        trees.ForestDecomposition(CHERRY, (LEAF,))._replace(hanging=())


def test_a_series_needs_a_constant_term_and_holds_ints():
    for empty in [(), []]:
        with pytest.raises(ValueError, match="at least the constant term"):
            series.TruncatedSeries(empty)
    s = series.TruncatedSeries(coeffs=[1, True, 2.0])
    assert s.coeffs == (1, 1, 2) and all(type(c) is int for c in s.coeffs)
    assert hash(s) == hash(series.TruncatedSeries((1, 1, 2)))


def test_a_map_pair_checks_its_maps_and_keeps_its_tables():
    with pytest.raises(ValueError, match="forward map must be total"):
        posets.PosetMapPair(PAIR.source, PAIR.target, {}, PAIR.backward)
    pair = posets.PosetMapPair(**RECORDS[posets.PosetMapPair])
    assert (pair._fwd, pair._bwd) == (PAIR._fwd, PAIR._bwd)
    assert "_fwd" not in repr(pair)


@pytest.mark.parametrize("cls, args, key", [
    (PlanarTree, (), "."),
    (PlanarTree, (CHERRY, LEAF), "((..).)"),
    (BiLeveledTree, (CHERRY, {1}), "{..}"),
    (BiLeveledTree, (PlanarTree(CHERRY, LEAF), frozenset({1, 2})), "{{..}.}"),
])
def test_trees_are_their_keys(cls, args, key):
    tree = cls(*args)
    names = ["left", "right"] if cls is PlanarTree else ["tree", "circled"]
    assert cls(**dict(zip(names, args))) == tree == parse_tree(key)
    assert hash(tree) == hash(parse_tree(key))
    assert (tree.key, tree.size, repr(tree)) == (key, len(key) // 3, f"{cls.__name__}[{key}]")
    assert tree != key
    # what is read off the key is kept in the instance dict
    getattr(tree, names[0])
    assert names[0] in vars(tree)
    for name in ["key", "size", *names, "extra"]:
        with pytest.raises(AttributeError):
            setattr(tree, name, None)
        with pytest.raises(AttributeError):
            delattr(tree, name)
    assert tree == parse_tree(key) and tree.key == key


def test_plain_and_circled_trees_never_compare_equal():
    assert CHERRY != BiLeveledTree(CHERRY, {1}) and BiLeveledTree(CHERRY, {1}) != CHERRY
    assert PlanarTree() == LEAF and PlanarTree(left=LEAF, right=LEAF) == CHERRY
    with pytest.raises(ValueError, match="both children"):
        PlanarTree(left=LEAF)
