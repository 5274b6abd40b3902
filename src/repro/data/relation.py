"""Weighted in-memory relations.

A :class:`Relation` is a named bag of fixed-arity value tuples, each carrying
a numeric weight.  Weights are the ranking signal for top-k / any-k queries:
the weight of a join result is the ranking-function combination (by default
the sum) of the weights of the input tuples that produced it, exactly the
"aggregate weight" notion of the tutorial's Part 1.

Relations are append-only; hash indexes on attribute subsets are built
lazily and cached, and invalidated on mutation.  Rows and weights are
validated once, where they enter (construction, :meth:`Relation.add`,
:meth:`Relation.extend`, :meth:`Relation.bulk_load`); relations derived
from validated ones (:meth:`Relation.from_validated`,
:meth:`Relation.take`, copies) skip the checks.  Lower weight means more
important throughout (the tutorial's "lightest cycles" convention); the
top-k middleware algorithms in :mod:`repro.topk` use descending *scores*
instead, and convert explicitly at the boundary.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence


class SchemaError(ValueError):
    """Raised for malformed schemas or rows that do not match a schema."""


def key_column(rows: Sequence[tuple], positions: Sequence[int]) -> list[tuple]:
    """``[tuple(row[p] for p in positions) for row in rows]``, in bulk.

    The projection keys of many rows at once (hash-index, bucket and
    semijoin keys): one ``operator.itemgetter`` call per row where it
    already yields a tuple, one tuple display per row where it would
    yield a bare value.
    """
    if len(positions) > 1:
        return list(map(itemgetter(*positions), rows))
    if positions:
        (p,) = positions
        return [(row[p],) for row in rows]
    return [()] * len(rows)


def group_rows(
    rows: Sequence[tuple], positions: Sequence[int]
) -> dict[tuple, list[int]]:
    """Row ids grouped by projection key (a hash index), in bulk.

    Keys are :func:`key_column` tuples in first-occurrence order, each
    mapped to its row ids in ascending order.  A single-column key is
    grouped on the bare value (cheaper to build and hash) and wrapped
    into a 1-tuple once per distinct value.
    """
    if not positions:
        return {(): list(range(len(rows)))} if rows else {}
    groups: dict = {}
    for row_id, key in enumerate(map(itemgetter(*positions), rows)):
        ids = groups.get(key)
        if ids is None:
            groups[key] = [row_id]
        else:
            ids.append(row_id)
    if len(positions) == 1:
        return {(key,): ids for key, ids in groups.items()}
    return groups


class Relation:
    """A named, weighted, in-memory relation.

    Parameters
    ----------
    name:
        Relation name used by query atoms to refer to it.
    schema:
        Attribute names, one per column.  Must be unique within the relation.
    rows:
        Optional initial rows (iterable of value tuples).
    weights:
        Optional per-row weights, parallel to ``rows``.  Defaults to 0.0 for
        every row, which makes unweighted (pure join) use transparent.
    """

    __slots__ = (
        "name",
        "schema",
        "rows",
        "weights",
        "version",
        "_indexes",
        "_positions",
        "_columnar",
    )

    def __init__(
        self,
        name: str,
        schema: Sequence[str],
        rows: Optional[Iterable[Sequence[Any]]] = None,
        weights: Optional[Iterable[float]] = None,
    ) -> None:
        schema = tuple(schema)
        if not schema:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        if len(set(schema)) != len(schema):
            raise SchemaError(f"relation {name!r} has duplicate attributes: {schema}")
        self.name = name
        self.schema = schema
        self.rows: list[tuple] = []
        self.weights: list[float] = []
        #: Version annotation stamped by :mod:`repro.dynamic` when a
        #: mutation publishes a new copy-on-write generation of this
        #: relation.  0 means "static" (never mutated through the
        #: versioned layer); the engine catalog's fingerprints include it
        #: so equal-cardinality states with different contents (delete one
        #: row, insert another) never collide in plan/stats caches.
        self.version: int = 0
        self._indexes: dict[tuple[str, ...], dict] = {}
        # Memoized attribute-tuple -> column-position resolutions.  The
        # schema is immutable for the life of the relation, so entries
        # never invalidate (unlike _indexes, which depend on the rows).
        self._positions: dict[tuple[str, ...], tuple[int, ...]] = {}
        self._columnar = None
        if rows is not None:
            row_list = list(rows)
            self.bulk_load(
                row_list,
                [0.0] * len(row_list) if weights is None else list(weights),
            )

    @classmethod
    def from_validated(
        cls,
        name: str,
        schema: tuple[str, ...],
        rows: list[tuple],
        weights: list[float],
        version: int = 0,
    ) -> "Relation":
        """Wrap rows and weights that are already known to be valid.

        The trusted constructor for derived relations (atom scans,
        semijoin survivors, heavy/light restrictions): the rows
        are tuples of ``len(schema)`` values and the weights finite
        floats because they come from a relation that checked them at its
        boundary (construction, :meth:`add`, :meth:`bulk_load`).  No
        per-row check runs, and the lists are adopted, not copied.
        """
        out = cls.__new__(cls)
        out.name = name
        out.schema = schema
        out.rows = rows
        out.weights = weights
        out.version = version
        out._indexes = {}
        out._positions = {}
        out._columnar = None
        return out

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {self.schema!r}, {len(self.rows)} rows)"

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.schema)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, row: Sequence[Any], weight: float = 0.0) -> None:
        """Append one row with the given weight.

        Rejects rows of the wrong arity and non-finite weights (NaN weights
        would silently corrupt every ranking structure downstream).
        """
        row = tuple(row)
        if len(row) != len(self.schema):
            raise SchemaError(
                f"relation {self.name!r}: row {row!r} has arity {len(row)}, "
                f"schema has arity {len(self.schema)}"
            )
        weight = float(weight)
        if not math.isfinite(weight):
            raise SchemaError(
                f"relation {self.name!r}: weight {weight!r} is not finite"
            )
        self.rows.append(row)
        self.weights.append(weight)
        self._indexes.clear()
        self._columnar = None

    def extend(
        self, rows: Iterable[Sequence[Any]], weights: Optional[Iterable[float]] = None
    ) -> None:
        """Append many rows (with optional parallel weights), validated
        once through :meth:`bulk_load`."""
        row_list = list(rows)
        self.bulk_load(
            row_list, [0.0] * len(row_list) if weights is None else list(weights)
        )

    def bulk_load(
        self, rows: Sequence[Sequence[Any]], weights: Sequence[float]
    ) -> None:
        """Append many rows at once, validating vector-at-a-time.

        The bulk counterpart of :meth:`add` for engines that materialize
        whole join results (the binary hash join, the batch baseline):
        one arity sweep, one finiteness sweep, one cache invalidation —
        instead of a per-row method call that clears the index cache
        ``len(rows)`` times.
        """
        rows = [row if type(row) is tuple else tuple(row) for row in rows]
        weights = [float(w) for w in weights]
        if len(rows) != len(weights):
            raise SchemaError(
                f"relation {self.name!r}: {len(rows)} rows but "
                f"{len(weights)} weights"
            )
        arity = len(self.schema)
        for row in rows:
            if len(row) != arity:
                raise SchemaError(
                    f"relation {self.name!r}: row {row!r} has arity "
                    f"{len(row)}, schema has arity {arity}"
                )
        if not all(map(math.isfinite, weights)):
            bad = next(w for w in weights if not math.isfinite(w))
            raise SchemaError(
                f"relation {self.name!r}: weight {bad!r} is not finite"
            )
        self.rows.extend(rows)
        self.weights.extend(weights)
        self._indexes.clear()
        self._columnar = None

    # ------------------------------------------------------------------
    # Attribute access helpers
    # ------------------------------------------------------------------
    def positions(self, attrs: Sequence[str]) -> tuple[int, ...]:
        """Column positions of the named attributes.

        Memoized per attribute tuple: the schema never changes, and the
        hot loops (T-DP bucket keys, trie builds, factorized caches) ask
        for the same handful of attribute subsets millions of times —
        a linear ``schema.index`` scan per call was pure overhead.
        Raises :class:`SchemaError` for unknown attribute names.
        """
        attrs = tuple(attrs)
        cached = self._positions.get(attrs)
        if cached is not None:
            return cached
        try:
            resolved = tuple(self.schema.index(a) for a in attrs)
        except ValueError as exc:
            raise SchemaError(
                f"relation {self.name!r} with schema {self.schema} has no "
                f"attribute among {attrs!r}"
            ) from exc
        self._positions[attrs] = resolved
        return resolved

    def key_of(self, row: Sequence[Any], attrs: Sequence[str]) -> tuple:
        """Project ``row`` onto ``attrs`` (as a tuple key).

        Per-call-site users projecting many rows should resolve
        :meth:`positions` once and index directly; this convenience
        wrapper at least no longer pays a linear schema scan per call
        (see :meth:`positions`).
        """
        return tuple(row[p] for p in self.positions(attrs))

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def index_on(self, attrs: Sequence[str]) -> dict[tuple, list[int]]:
        """Hash index: projection key -> list of row positions.

        Built on first use and cached until the relation is mutated.
        """
        attrs = tuple(attrs)
        cached = self._indexes.get(attrs)
        if cached is not None:
            return cached
        index = group_rows(self.rows, self.positions(attrs))
        self._indexes[attrs] = index
        return index

    def distinct_keys(self, attrs: Sequence[str]) -> Iterable[tuple]:
        """Distinct projection keys on ``attrs``."""
        return self.index_on(attrs).keys()

    def distinct_count(self, attrs: Sequence[str]) -> int:
        """Number of distinct projection keys on ``attrs``.

        The basic cardinality statistic the engine router's catalog pulls
        (average fan-out = size / distinct_count); shares the lazily built
        hash index, so repeated planning over one relation is cheap.
        """
        return len(self.index_on(attrs))

    # ------------------------------------------------------------------
    # Relational operations (copying)
    # ------------------------------------------------------------------
    def project(self, attrs: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Projection (bag semantics: keeps duplicates and weights)."""
        positions = self.positions(attrs)
        out = Relation(name or f"pi_{self.name}", attrs)
        out.rows = key_column(self.rows, positions)
        out.weights = list(self.weights)
        return out

    def select(
        self, predicate: Callable[[tuple], bool], name: Optional[str] = None
    ) -> "Relation":
        """Selection by an arbitrary row predicate."""
        keep = [i for i, row in enumerate(self.rows) if predicate(row)]
        return self.take(keep, name or f"sigma_{self.name}")

    def take(self, row_ids: Sequence[int], name: Optional[str] = None) -> "Relation":
        """The rows at ``row_ids`` (in that order), with their weights."""
        rows, weights = self.rows, self.weights
        return Relation.from_validated(
            name or self.name,
            self.schema,
            [rows[i] for i in row_ids],
            [weights[i] for i in row_ids],
        )

    def rename(
        self, mapping: dict[str, str], name: Optional[str] = None
    ) -> "Relation":
        """Rename attributes; shares row storage semantics by copying."""
        new_schema = tuple(mapping.get(a, a) for a in self.schema)
        out = Relation(name or self.name, new_schema)
        out.rows = list(self.rows)
        out.weights = list(self.weights)
        # A renamed view is the same data generation: resetting to 0
        # would alias a static fingerprint in the plan/stats caches.
        out.version = self.version
        return out

    def copy(self, name: Optional[str] = None) -> "Relation":
        """Shallow copy (rows are immutable tuples, so this is safe)."""
        out = Relation(name or self.name, self.schema)
        out.rows = list(self.rows)
        out.weights = list(self.weights)
        out.version = self.version
        return out

    def sorted_by_weight(self) -> "Relation":
        """A copy sorted by ascending weight (ties broken by row value).

        Ties are broken by the type-tagged row order
        (:func:`repro.anyk.ranking.solution_tie_key`), not by the raw
        row: comparing raw rows raises ``TypeError`` on heterogeneous
        columns (``int < str``), which the hub-graph datasets mixing
        string hub labels with integer spokes hit through the top-k
        middleware's sorted scans.
        """
        # Deferred import: repro.anyk sits above repro.data.
        from repro.anyk.ranking import solution_tie_key

        rows, weights = self.rows, self.weights
        order = sorted(
            range(len(rows)),
            key=lambda i: (weights[i], solution_tie_key(rows[i])),
        )
        out = self.take(order)
        # Same data generation, like copy()/rename().
        out.version = self.version
        return out

    def columnar(self, backend: Optional[str] = None):
        """A cached columnar view (:class:`repro.data.columnar.ColumnStore`).

        Built on first use and invalidated on mutation, like the hash
        indexes.  Passing an explicit ``backend`` bypasses the cache
        (the cached view uses the environment-selected default).
        """
        from repro.data.columnar import ColumnStore

        if backend is not None:
            return ColumnStore.from_relation(self, backend=backend)
        if self._columnar is None:
            self._columnar = ColumnStore.from_relation(self)
        return self._columnar

    def as_set(self) -> set[tuple]:
        """The set of distinct rows (weights ignored)."""
        return set(self.rows)
