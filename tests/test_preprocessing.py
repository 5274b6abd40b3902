"""Preprocessing equivalence: full reducer, T-DP bottom-up, heavy/light.

These layers move already-validated rows in bulk.  The tests pin what
must not move with them:

- the RAM-model :class:`Counters` totals, recorded from the per-row
  implementation they replaced, on a 4-path, a star, a path with
  multi-attribute join keys, and 4-cycle decompositions whose
  thresholds produce heavy-x2, heavy-x4 and light trees;
- the T-DP buckets (ids, subtree weights, first-minimum positions, key
  order), against the tuple-at-a-time bottom-up loop kept here as the
  reference, for SUM, MAX and LEX;
- the full reducer's output, against a brute-force "tuples that appear
  in some answer" oracle that enumerates every tuple combination of the
  base relations (repeated-variable atoms and atoms whose variable
  order differs from the relation's columns included);
- the finiteness check on the weights the heavy/light wedges compute.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anyk.ranking import LEX, MAX, SUM
from repro.anyk.tdp import TDP
from repro.data.database import Database
from repro.data.generators import path_database, random_graph_database, star_database
from repro.data.relation import Relation, SchemaError
from repro.joins.heavylight import fourcycle_union_of_trees
from repro.joins.semijoin import full_reducer
from repro.query.cq import Atom, ConjunctiveQuery, cycle_query, path_query, star_query
from repro.util.counters import Counters


def _multikey_instance():
    """A 3-atom path whose tree edges join on two variables each, with
    atom variable orders that differ from the column order."""
    rng = random.Random(5)

    def relation(name, size):
        rows = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(size)]
        return Relation(name, ("X", "Y", "Z"), rows, [rng.random() for _ in rows])

    db = Database([relation("R", 60), relation("S", 60), relation("T", 60)])
    query = ConjunctiveQuery(
        [
            Atom("R", ("a", "b", "c")),
            Atom("S", ("c", "b", "d")),
            Atom("T", ("d", "c", "e")),
        ]
    )
    return db, query


def _counts(tuples_read, comparisons, hash_probes, intermediate=0):
    counts = {
        "tuples_read": tuples_read,
        "intermediate_tuples": intermediate,
        "output_tuples": 0,
        "comparisons": comparisons,
        "hash_probes": hash_probes,
        "sorted_accesses": 0,
        "random_accesses": 0,
        "heap_ops": 0,
    }
    counts["total_work"] = sum(counts.values())
    return counts


# ----------------------------------------------------------------------
# Counters pins (values recorded from the per-row implementation)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make, expected, buckets",
    [
        (
            lambda: (path_database(4, 60, 8, seed=3), path_query(4)),
            _counts(1200, 215, 360),
            25,
        ),
        (
            lambda: (star_database(3, 40, 6, seed=2), star_query(3)),
            _counts(560, 107, 160),
            13,
        ),
        (_multikey_instance, _counts(816, 143, 235), 30),
    ],
    ids=["path4", "star3", "multikey-path"],
)
def test_tdp_counters_are_pinned(make, expected, buckets):
    db, query = make()
    counters = Counters()
    tdp = TDP(db, query, counters=counters)
    assert counters.snapshot() == expected
    assert sum(len(stage_buckets) for stage_buckets in tdp.buckets) == buckets


@pytest.mark.parametrize(
    "threshold, expected, trees, derived_tuples",
    [
        (6, _counts(3446, 0, 226, intermediate=1120), (24, 24, 1), 20900),
        (9, _counts(3210, 0, 462, intermediate=2972), (9, 9, 1), 12554),
        (1000, _counts(3000, 0, 600, intermediate=4602), (0, 0, 1), 4602),
    ],
)
def test_heavylight_counters_are_pinned(
    threshold, expected, trees, derived_tuples
):
    db = random_graph_database(300, 40, seed=5)
    counters = Counters()
    union = fourcycle_union_of_trees(
        db, cycle_query(4), threshold=threshold, counters=counters
    )
    assert counters.snapshot() == expected
    labels = [tree.label for tree in union]
    kinds = (
        sum(label.startswith("x2=") for label in labels),
        sum(label.startswith("x4=") for label in labels),
        labels.count("light"),
    )
    assert kinds == trees
    assert sum(len(rel) for tree in union for rel in tree.database) == (
        derived_tuples
    )


def _reference_buckets(tdp):
    """The tuple-at-a-time bottom-up pass: per stage, each tuple's
    subtree weight folds its children's bucket minima, then tuples are
    bucketed by parent key with a strict-``<`` first-minimum scan."""
    combine = tdp.ranking.combine
    buckets = [{} for _ in tdp.stages]
    for position in range(tdp.num_stages - 1, -1, -1):
        stage = tdp.stages[position]
        for tuple_id, row in enumerate(stage.relation.rows):
            weight = tdp.lifted[position][tuple_id]
            for child in stage.children:
                positions = tdp.stages[child].parent_key_positions
                ids, weights, best = buckets[child][
                    tuple(row[p] for p in positions)
                ]
                weight = combine(weight, weights[best])
            key = tuple(row[p] for p in stage.own_key_positions)
            ids, weights, best = buckets[position].setdefault(key, ([], [], 0))
            ids.append(tuple_id)
            weights.append(weight)
            if weight < weights[best]:
                buckets[position][key] = (ids, weights, len(weights) - 1)
    return buckets


@pytest.mark.parametrize("ranking", [SUM, MAX, LEX], ids=lambda r: r.name)
@pytest.mark.parametrize(
    "make",
    [
        lambda: (path_database(4, 60, 8, seed=3), path_query(4)),
        lambda: (star_database(3, 40, 6, seed=2), star_query(3)),
        _multikey_instance,
    ],
    ids=["path4", "star3", "multikey-path"],
)
def test_bottom_up_buckets_match_tuple_at_a_time_reference(make, ranking):
    db, query = make()
    tdp = TDP(db, query, ranking=ranking)
    got = [
        {
            key: (b.tuple_ids, b.subtree_weights, b.best_position)
            for key, b in stage_buckets.items()
        }
        for stage_buckets in tdp.buckets
    ]
    assert got == _reference_buckets(tdp)
    # Same keys in the same (first-occurrence) order, too.
    assert [list(b) for b in got] == [list(b) for b in _reference_buckets(tdp)]


# ----------------------------------------------------------------------
# Full reducer == brute-force "tuples in some answer"
# ----------------------------------------------------------------------
#: (relation schemas, query atoms).  Each query is acyclic; together they
#: cover repeated variables (E(x, x)), atoms that read columns in another
#: order than the relation stores them, self-joins, multi-variable join
#: keys and an atom sharing no variable with its tree neighbour.
SHAPES = {
    "repeated-variable": (
        {"E": ("s", "d"), "F": ("s", "d")},
        [("E", ("x", "x")), ("E", ("x", "y")), ("F", ("y", "z"))],
    ),
    "reordered-columns": (
        {"R": ("p", "q"), "S": ("p", "q", "r")},
        [("R", ("b", "a")), ("S", ("c", "a", "b")), ("R", ("c", "d"))],
    ),
    "repeated-and-reordered": (
        {"T": ("p", "q", "r"), "U": ("p", "q")},
        [("T", ("y", "x", "y")), ("U", ("x", "y")), ("U", ("z", "x"))],
    ),
    "disconnected": (
        {"R": ("p", "q"), "S": ("p",)},
        [("R", ("a", "b")), ("S", ("c",))],
    ),
}


def _brute_force_reduced(db, atoms):
    """Per atom, the (row, weight) pairs of its variable-schema relation
    that take part in at least one answer, in base-relation order."""
    used = [set() for _ in atoms]
    relations = [db[name] for name, _ in atoms]
    for combo in itertools.product(*(range(len(rel)) for rel in relations)):
        binding = {}
        consistent = True
        for (_, variables), rel, row_id in zip(atoms, relations, combo):
            for variable, value in zip(variables, rel.rows[row_id]):
                if binding.setdefault(variable, value) != value:
                    consistent = False
                    break
            if not consistent:
                break
        if consistent:
            for atom_index, row_id in enumerate(combo):
                used[atom_index].add(row_id)
    expected = []
    for (_, variables), rel, ids in zip(atoms, relations, used):
        first = {}
        for position, variable in enumerate(variables):
            first.setdefault(variable, position)
        expected.append(
            [
                (tuple(rel.rows[i][p] for p in first.values()), rel.weights[i])
                for i in range(len(rel))
                if i in ids
            ]
        )
    return expected


@st.composite
def _shape_instance(draw):
    name = draw(st.sampled_from(sorted(SHAPES)))
    schemas, atoms = SHAPES[name]
    relations = []
    for rel_name, schema in schemas.items():
        rows = draw(
            st.lists(
                st.tuples(*(st.integers(0, 2) for _ in schema)), max_size=6
            )
        )
        weights = draw(
            st.lists(
                st.floats(0, 1, allow_nan=False),
                min_size=len(rows),
                max_size=len(rows),
            )
        )
        relations.append(Relation(rel_name, schema, rows, weights))
    return Database(relations), atoms


@settings(max_examples=80, deadline=None)
@given(_shape_instance())
def test_full_reducer_keeps_exactly_the_tuples_in_some_answer(instance):
    db, atoms = instance
    query = ConjunctiveQuery([Atom(name, variables) for name, variables in atoms])
    reduced = full_reducer(db, query)
    got = [
        list(zip(reduced[i].rows, reduced[i].weights)) for i in range(len(atoms))
    ]
    assert got == _brute_force_reduced(db, atoms)


# ----------------------------------------------------------------------
# Wedge weights are checked at the boundary they create
# ----------------------------------------------------------------------
def test_wedge_weight_overflow_raises_schema_error():
    # Every edge weighs 1e308, so the light wedge J12 = R1 ⋈ R2 sums two
    # of them to inf; that must fail like any other non-finite weight.
    edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
    db = Database([Relation("E", ("src", "dst"), edges, [1e308] * len(edges))])
    with pytest.raises(SchemaError, match="weight inf is not finite"):
        fourcycle_union_of_trees(db, cycle_query(4), threshold=1000)
