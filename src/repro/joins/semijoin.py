"""Semijoins and the full reducer (§3).

Yannakakis' "secret of success": after a full-reducer pass — semijoin
reductions along the join tree, leaves-to-root then root-to-leaves — the
database is *globally consistent*: every tuple that survives participates in
at least one query answer, so no later join step can blow up on dangling
tuples.  :func:`full_reducer` implements the two passes over the
variable-schema relations of an acyclic query and returns the reduced
relations keyed by atom index.

The rows arriving here were validated when they entered their base
relation, so a semijoin moves them in bulk: one ``itemgetter`` key
column per side, one membership mask, and ``itertools.compress`` over
the rows and weights into a :meth:`Relation.from_validated` result.
``Counters`` are bumped once per semijoin by the tuple-at-a-time totals
(every tuple of both sides read, one hash probe per left tuple).
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Optional

from repro.data.database import Database
from repro.data.relation import Relation
from repro.joins.base import atom_relation
from repro.query.cq import ConjunctiveQuery
from repro.query.hypergraph import JoinTree, join_tree_or_raise
from repro.util.counters import Counters


def semijoin(
    left: Relation, right: Relation, counters: Optional[Counters] = None
) -> Relation:
    """left ⋉ right: keep left tuples with a join partner in right.

    The join condition is equality on shared attribute names.  With no
    shared attributes the semijoin only checks non-emptiness of ``right``
    (a degenerate cross-product guard), matching relational semantics.
    """
    shared = tuple(a for a in left.schema if a in right.schema)
    if not shared:
        if len(right) == 0:
            return Relation(left.name, left.schema)
        return left.copy()
    if counters is not None:
        counters.tuples_read += len(right) + len(left)
        counters.hash_probes += len(left)
    right_keys = set(map(itemgetter(*right.positions(shared)), right.rows))
    keep = list(
        map(
            right_keys.__contains__,
            map(itemgetter(*left.positions(shared)), left.rows),
        )
    )
    return Relation.from_validated(
        left.name,
        left.schema,
        list(compress(left.rows, keep)),
        list(compress(left.weights, keep)),
    )


def full_reducer(
    db: Database,
    query: ConjunctiveQuery,
    tree: Optional[JoinTree] = None,
    counters: Optional[Counters] = None,
) -> dict[int, Relation]:
    """Two semijoin passes over the join tree; returns reduced relations.

    Leaves-to-root: each parent is semijoined with every child (removing
    parent tuples with no extension below).  Root-to-leaves: each child is
    semijoined with its parent (removing child tuples with no extension
    above).  Afterwards the database is globally consistent.
    """
    query.validate(db)
    if tree is None:
        tree = join_tree_or_raise(query)
    relations = {
        i: atom_relation(db, query, i, counters=counters)
        for i in range(len(query.atoms))
    }
    # Bottom-up: visit in reverse BFS order so children are final first.
    for node in reversed(tree.order):
        for child in tree.children[node]:
            relations[node] = semijoin(
                relations[node], relations[child], counters=counters
            )
    # Top-down.
    for node in tree.order:
        for child in tree.children[node]:
            relations[child] = semijoin(
                relations[child], relations[node], counters=counters
            )
    return relations


def is_globally_consistent(
    relations: dict[int, Relation], tree: JoinTree
) -> bool:
    """Test oracle: every relation is already semijoin-reduced w.r.t. every
    tree neighbour (the fixpoint the full reducer guarantees)."""
    for node, parent in tree.parent.items():
        if parent is None:
            continue
        for a, b in ((node, parent), (parent, node)):
            reduced = semijoin(relations[a], relations[b])
            if len(reduced) != len(relations[a]):
                return False
    return True
