"""Tests for the weighted relation substrate."""

import math

import pytest

from repro.data.relation import Relation, SchemaError


def test_basic_construction_and_iteration():
    r = Relation("R", ("a", "b"), [(1, 2), (3, 4)], [0.5, 0.25])
    assert len(r) == 2
    assert list(r) == [(1, 2), (3, 4)]
    assert r.weights == [0.5, 0.25]
    assert r.arity == 2


def test_default_weights_are_zero():
    r = Relation("R", ("a",), [(1,), (2,)])
    assert r.weights == [0.0, 0.0]


def test_empty_schema_rejected():
    with pytest.raises(SchemaError):
        Relation("R", ())


def test_duplicate_attributes_rejected():
    with pytest.raises(SchemaError):
        Relation("R", ("a", "a"))


def test_arity_mismatch_rejected():
    r = Relation("R", ("a", "b"))
    with pytest.raises(SchemaError):
        r.add((1,))
    with pytest.raises(SchemaError):
        r.add((1, 2, 3))


def test_weight_row_count_mismatch_rejected():
    with pytest.raises(SchemaError):
        Relation("R", ("a",), [(1,)], [0.1, 0.2])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weights_rejected(bad):
    r = Relation("R", ("a",))
    with pytest.raises(SchemaError):
        r.add((1,), bad)


def test_positions_and_key_of():
    r = Relation("R", ("a", "b", "c"))
    assert r.positions(("c", "a")) == (2, 0)
    assert r.key_of((10, 20, 30), ("c", "a")) == (30, 10)
    with pytest.raises(SchemaError):
        r.positions(("missing",))


def test_index_on_groups_rows():
    r = Relation("R", ("a", "b"), [(1, 9), (1, 8), (2, 9)])
    index = r.index_on(("a",))
    assert index[(1,)] == [0, 1]
    assert index[(2,)] == [2]
    assert set(r.distinct_keys(("b",))) == {(9,), (8,)}


def test_index_invalidated_on_mutation():
    r = Relation("R", ("a",), [(1,)])
    first = r.index_on(("a",))
    assert first[(1,)] == [0]
    r.add((1,))
    assert r.index_on(("a",))[(1,)] == [0, 1]


def test_index_is_cached_between_reads():
    r = Relation("R", ("a",), [(1,)])
    assert r.index_on(("a",)) is r.index_on(("a",))


def test_project_keeps_weights_and_duplicates():
    r = Relation("R", ("a", "b"), [(1, 2), (1, 3)], [0.1, 0.2])
    p = r.project(("a",))
    assert p.rows == [(1,), (1,)]
    assert p.weights == [0.1, 0.2]


def test_select_filters_rows():
    r = Relation("R", ("a",), [(1,), (2,), (3,)], [0.1, 0.2, 0.3])
    s = r.select(lambda row: row[0] >= 2)
    assert s.rows == [(2,), (3,)]
    assert s.weights == [0.2, 0.3]


def test_rename_changes_schema_only():
    r = Relation("R", ("a", "b"), [(1, 2)], [0.5])
    renamed = r.rename({"a": "x"})
    assert renamed.schema == ("x", "b")
    assert renamed.rows == [(1, 2)]
    assert renamed.weights == [0.5]


def test_copy_is_independent():
    r = Relation("R", ("a",), [(1,)])
    c = r.copy("C")
    c.add((2,))
    assert len(r) == 1
    assert len(c) == 2
    assert c.name == "C"


def test_sorted_by_weight_ascending_with_ties_on_rows():
    r = Relation("R", ("a",), [(3,), (1,), (2,)], [0.5, 0.5, 0.1])
    s = r.sorted_by_weight()
    assert s.rows == [(2,), (1,), (3,)]
    assert s.weights == [0.1, 0.5, 0.5]


def test_as_set_drops_duplicates():
    r = Relation("R", ("a",), [(1,), (1,), (2,)])
    assert r.as_set() == {(1,), (2,)}

# ----------------------------------------------------------------------
# Regressions: mixed-type tie order, version propagation, positions memo
# ----------------------------------------------------------------------
def test_sorted_by_weight_mixed_type_column_does_not_crash():
    """Regression: tie-breaking by raw row raised ``TypeError`` when an
    equal-weight tie group mixed ``str`` and ``int`` values in one
    column (the hub-graph datasets' string hub labels vs int spokes).
    Ties now use the type-tagged ``solution_tie_key`` order: within one
    weight, ints sort before strs (by type name), then by value."""
    r = Relation(
        "Hub",
        ("node", "spoke"),
        [("hub", 1), (2, 1), ("apex", 1), (1, 1)],
        [0.5, 0.5, 0.5, 0.5],
    )
    s = r.sorted_by_weight()
    assert s.rows == [(1, 1), (2, 1), ("apex", 1), ("hub", 1)]
    assert s.weights == [0.5] * 4


def test_sorted_by_weight_mixed_types_still_orders_by_weight_first():
    r = Relation("R", ("a",), [("z",), (1,)], [0.9, 0.1])
    assert r.sorted_by_weight().rows == [(1,), ("z",)]


def test_version_survives_all_three_copying_ops():
    """Regression: ``rename`` and ``sorted_by_weight`` reset ``version``
    to 0 while ``copy`` preserved it, so a derived relation could alias
    a static (version-0) fingerprint in the plan/stats caches."""
    r = Relation("R", ("a", "b"), [(1, 2), (3, 4)], [0.2, 0.1])
    r.version = 7
    assert r.copy().version == 7
    assert r.rename({"a": "x"}).version == 7
    assert r.sorted_by_weight().version == 7
    # Chaining keeps the generation too.
    assert r.rename({"b": "y"}).sorted_by_weight().copy().version == 7


def test_positions_are_memoized_per_attrs_tuple():
    r = Relation("R", ("a", "b", "c"))
    first = r.positions(("c", "a"))
    assert first == (2, 0)
    assert r.positions(("c", "a")) is first  # cached tuple, not re-resolved
    assert r.positions(["c", "a"]) is first  # list spelling shares the entry
    with pytest.raises(SchemaError):
        r.positions(("c", "missing"))


def test_bulk_load_matches_per_row_add():
    a = Relation("R", ("x", "y"))
    b = Relation("R", ("x", "y"))
    rows = [(1, 2), (3, 4), (5, 6)]
    weights = [0.3, 0.1, 0.2]
    for row, w in zip(rows, weights):
        a.add(row, w)
    b.bulk_load(rows, weights)
    assert a.rows == b.rows and a.weights == b.weights
    # Same validation as add(): arity and finiteness.
    with pytest.raises(SchemaError):
        b.bulk_load([(1,)], [0.0])
    with pytest.raises(SchemaError):
        b.bulk_load([(1, 2)], [float("nan")])
    with pytest.raises(SchemaError):
        b.bulk_load([(1, 2)], [0.1, 0.2])
    # Invalidates cached indexes exactly like add().
    index = b.index_on(("x",))
    assert index[(1,)] == [0]
    b.bulk_load([(1, 9)], [0.0])
    assert b.index_on(("x",))[(1,)] == [0, 3]


def test_constructor_and_extend_validate_once_like_add():
    # Both go through bulk_load: the same SchemaError messages as add().
    with pytest.raises(SchemaError, match=r"\(1,\) has arity 1, schema has arity 2"):
        Relation("R", ("x", "y"), [(1, 2), (1,)])
    with pytest.raises(SchemaError, match="weight inf is not finite"):
        Relation("R", ("x",), [(1,), (2,)], [0.5, float("inf")])
    r = Relation("R", ("x", "y"))
    with pytest.raises(SchemaError, match="has arity 3"):
        r.extend([(1, 2, 3)])
    with pytest.raises(SchemaError, match="weight nan is not finite"):
        r.extend([(1, 2)], [float("nan")])
    with pytest.raises(SchemaError, match="2 rows but 1 weights"):
        r.extend([(1, 2), (3, 4)], [0.0])
    assert len(r) == 0  # a failed batch appends nothing
    r.extend(iter([[1, 2], [3, 4]]), iter([1, 0.5]))  # any iterables
    r.extend([(5, 6)])
    assert r.rows == [(1, 2), (3, 4), (5, 6)]
    assert r.weights == [1.0, 0.5, 0.0]
    assert all(type(w) is float for w in r.weights)


def test_take_and_from_validated_share_no_state():
    r = Relation("R", ("x", "y"), [(1, 2), (3, 4), (5, 6)], [0.1, 0.2, 0.3])
    r.version = 7
    picked = r.take([2, 0])
    assert (picked.name, picked.schema) == ("R", ("x", "y"))
    assert picked.rows == [(5, 6), (1, 2)] and picked.weights == [0.3, 0.1]
    assert picked.version == 0  # a derived relation, not a generation
    picked.add((7, 8), 0.4)
    assert len(r) == 3 and r.index_on(("x",)) == {(1,): [0], (3,): [1], (5,): [2]}
    wrapped = Relation.from_validated("D", ("a",), [(1,)], [0.5], version=3)
    assert wrapped.version == 3 and wrapped.index_on(("a",)) == {(1,): [0]}
