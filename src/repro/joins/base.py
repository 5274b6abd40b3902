"""Shared helpers for the join engines.

The central convenience is :func:`atom_relation`: engines work on
*variable-schema* relations — the atom's relation re-keyed to the atom's
query variables, with intra-atom repeated-variable equalities already
enforced and repeated columns dropped.  After this normalization step every
join in the library is a plain natural join on attribute names.
"""

from __future__ import annotations

from collections import Counter as Multiset
from typing import Iterable, Optional

from repro.data.database import Database
from repro.data.relation import Relation, key_column
from repro.query.cq import ConjunctiveQuery
from repro.util.counters import Counters


def atom_relation(
    db: Database,
    query: ConjunctiveQuery,
    atom_index: int,
    counters: Optional[Counters] = None,
    name: Optional[str] = None,
) -> Relation:
    """The atom's relation with query variables as its schema.

    Repeated variables inside the atom (e.g. ``E(x, x)``) become equality
    selections; only the first occurrence of each variable is kept as a
    column.  Weights are preserved per tuple.
    """
    atom = query.atoms[atom_index]
    source = db[atom.relation]
    first_position = {}
    for position, variable in enumerate(atom.variables):
        first_position.setdefault(variable, position)
    keep_positions = tuple(first_position.values())
    if counters is not None:
        counters.tuples_read += len(source)

    rows, weights = source.rows, source.weights
    # Repeated variables: keep the rows whose repeated columns agree.
    checks = [
        (position, first_position[variable])
        for position, variable in enumerate(atom.variables)
        if position != first_position[variable]
    ]
    if checks:
        keep = [
            i
            for i, row in enumerate(rows)
            if all(row[a] == row[b] for a, b in checks)
        ]
        rows = [rows[i] for i in keep]
        weights = [weights[i] for i in keep]
    else:
        weights = list(weights)
    if keep_positions == tuple(range(source.arity)):
        rows = list(rows)
    else:
        rows = key_column(rows, keep_positions)
    return Relation.from_validated(
        name or f"{atom.relation}#{atom_index}",
        tuple(first_position),
        rows,
        weights,
    )


def multiset(relation: Relation, round_digits: int = 9) -> Multiset:
    """Multiset of ``(row, rounded_weight)`` — the cross-engine test oracle.

    Weights are rounded so engines that combine weights in different orders
    (floating-point non-associativity) still compare equal.
    """
    return Multiset(
        (row, round(weight, round_digits))
        for row, weight in zip(relation.rows, relation.weights)
    )


def weights_sorted(relation: Relation) -> list[float]:
    """Sorted weights of a relation (rank-order test oracle)."""
    return sorted(relation.weights)


def output_relation(query: ConjunctiveQuery, name: Optional[str] = None) -> Relation:
    """Empty result relation with the query's output schema."""
    return Relation(name or f"{query.name}_result", query.variables)


def reorder_to_query_schema(
    relation: Relation, query: ConjunctiveQuery, counters: Optional[Counters] = None
) -> Relation:
    """Reorder a result relation's columns into the query's variable order."""
    if relation.schema == query.variables:
        return relation
    return Relation.from_validated(
        relation.name,
        query.variables,
        key_column(relation.rows, relation.positions(query.variables)),
        list(relation.weights),
    )


def iter_weighted(relation: Relation) -> Iterable[tuple[tuple, float]]:
    """Iterate ``(row, weight)`` pairs."""
    return zip(relation.rows, relation.weights)
