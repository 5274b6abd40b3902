"""Tree-based dynamic programming over a join tree (tutorial Part 3).

The companion paper's central construction: after a full-reducer pass, an
acyclic full conjunctive query becomes a *non-serial dynamic program* whose
stages are the join-tree nodes (here serialized in DFS pre-order), whose
states are the surviving input tuples, and whose solutions — one tuple per
stage, consistent along tree edges — are exactly the query answers.

Key objects:

- :class:`Stage` — one join-tree node: its reduced relation, the join-key
  positions linking it to its parent, and its DFS subtree extent.
- :class:`Bucket` — the tuples of a stage sharing one parent join-key
  value, with their *subtree weights* (the tuple's lifted weight ⊗ the best
  achievable completion of its whole subtree) and the bucket minimum.
  Buckets are the unit on which the ANYK-PART successor strategies operate.
- :class:`TDP` — builds stages and buckets bottom-up in O(n) after
  reduction, and provides the weight/row algebra shared by ANYK-PART and
  ANYK-REC: canonical solution weights fold in DFS pre-order, so partial
  (prefix) priorities and full solution weights are always comparable —
  this is what makes non-float rankings such as LEX safe on trees.

The bottom-up pass works a stage at a time on the reducer's already
validated rows: each child's bucket minima are looked up for the whole
parent-key column and folded in with one ``map``, the stage's tuples are
grouped by their own key column (:func:`repro.data.relation.group_rows`),
and each bucket's first minimum is found with ``min`` and ``index``.
Bucket keys are tuples, as :meth:`TDP.bucket_for` builds them.  The
``Counters`` charge one read per tuple and one comparison per bucket
member after the first, the totals of a tuple-at-a-time scan.

A *solution prefix* is a choice of tuples for stages ``0..L-1`` (DFS order
guarantees each stage's parent is chosen before it).  Its *priority* — the
exact weight of the best full solution extending it — folds assigned lifts
and, for each frontier subtree, the corresponding bucket minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Optional, Sequence

from repro.data.database import Database
from repro.data.relation import Relation, group_rows, key_column
from repro.anyk.ranking import RankingFunction, SUM
from repro.joins.semijoin import full_reducer
from repro.obs.memory import tdp_bucket_bytes, tdp_tuple_bytes, tracker_of
from repro.query.cq import ConjunctiveQuery
from repro.query.hypergraph import JoinTree, join_tree_or_raise
from repro.util.counters import Counters


@dataclass
class Bucket:
    """Tuples of one stage sharing a parent join-key value.

    ``tuple_ids`` index into the stage relation; ``subtree_weights`` is
    parallel.  ``best_position`` points at the (first) minimum.
    ``structure`` is a per-strategy successor structure attached lazily by
    ANYK-PART; ``stream`` is the memoized solution stream attached lazily
    by ANYK-REC.
    """

    tuple_ids: list[int]
    subtree_weights: list[Any]
    best_position: int = 0
    structure: Any = None
    stream: Any = None

    @property
    def best_weight(self) -> Any:
        """Minimum subtree weight in the bucket."""
        return self.subtree_weights[self.best_position]

    @property
    def best_tuple(self) -> int:
        """Tuple id achieving the bucket minimum."""
        return self.tuple_ids[self.best_position]

    def __len__(self) -> int:
        return len(self.tuple_ids)


@dataclass
class Stage:
    """One DP stage: a join-tree node in DFS pre-order."""

    position: int
    atom_index: int
    relation: Relation
    parent: Optional[int]  # stage position of the parent
    #: positions (in this relation's schema) of the join vars with parent
    own_key_positions: tuple[int, ...]
    #: positions (in the parent relation's schema) of the same join vars
    parent_key_positions: tuple[int, ...]
    children: list[int] = field(default_factory=list)
    subtree_size: int = 1


def _lookup_column(
    rows: list[tuple], positions: tuple[int, ...], table: dict[tuple, Any]
) -> list[Any]:
    """``[table[tuple(row[p] for p in positions)] for row in rows]``, in
    bulk; a single-column key is looked up on the bare value."""
    if len(positions) == 1:
        bare = {key[0]: value for key, value in table.items()}
        return list(map(bare.__getitem__, map(itemgetter(*positions), rows)))
    return list(map(table.__getitem__, key_column(rows, positions)))


class TDP:
    """The compiled dynamic program for one acyclic full CQ.

    Construction performs the full-reducer pass and the bottom-up subtree-
    weight computation — O~(n) total — after which every any-k algorithm
    enumerates without touching the base database again.
    """

    def __init__(
        self,
        db: Database,
        query: ConjunctiveQuery,
        ranking: RankingFunction = SUM,
        tree: Optional[JoinTree] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        query.validate(db)
        self.query = query
        self.ranking = ranking
        self.counters = counters
        self.tree = tree if tree is not None else join_tree_or_raise(query)
        reduced = full_reducer(db, query, tree=self.tree, counters=counters)

        self.stages: list[Stage] = []
        self._build_stages(reduced)
        self.num_stages = len(self.stages)

        # Lifted tuple weights per stage (parallel to relation rows).
        lift = ranking.lift
        self.lifted: list[list[Any]] = [
            list(map(lift, stage.relation.weights)) for stage in self.stages
        ]

        #: per stage: parent-key -> Bucket
        self.buckets: list[dict[tuple, Bucket]] = [
            {} for _ in range(self.num_stages)
        ]
        self._compute_bottom_up()

        # Output assembly: for each stage, (schema position, output position)
        # pairs for variables first bound at this stage.
        seen: set[str] = set()
        self._writers: list[list[tuple[int, int]]] = []
        out_position = {v: i for i, v in enumerate(query.variables)}
        for stage in self.stages:
            writers = []
            for schema_position, variable in enumerate(stage.relation.schema):
                if variable not in seen:
                    seen.add(variable)
                    writers.append((schema_position, out_position[variable]))
            self._writers.append(writers)

        # Static footprint: the compiled program holds every surviving
        # tuple's bucket/weight state for its whole lifetime, so account
        # for it once here rather than on any hot path.
        space = tracker_of(counters)
        if space is not None:
            space.gauge("tdp.tuples", tdp_tuple_bytes()).add(
                self.total_tuples()
            )
            space.gauge("tdp.buckets", tdp_bucket_bytes()).add(
                sum(len(stage_buckets) for stage_buckets in self.buckets)
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_stages(self, reduced: dict[int, Relation]) -> None:
        """DFS pre-order serialization of the join tree."""
        position_of_atom: dict[int, int] = {}

        def visit(atom_index: int, parent_position: Optional[int]) -> None:
            relation = reduced[atom_index]
            if parent_position is None:
                own_key: tuple[int, ...] = ()
                parent_key: tuple[int, ...] = ()
            else:
                parent_stage = self.stages[parent_position]
                join_vars = sorted(
                    set(relation.schema) & set(parent_stage.relation.schema)
                )
                own_key = relation.positions(join_vars)
                parent_key = parent_stage.relation.positions(join_vars)
            position = len(self.stages)
            position_of_atom[atom_index] = position
            stage = Stage(
                position=position,
                atom_index=atom_index,
                relation=relation,
                parent=parent_position,
                own_key_positions=own_key,
                parent_key_positions=parent_key,
            )
            self.stages.append(stage)
            if parent_position is not None:
                self.stages[parent_position].children.append(position)
            for child_atom in self.tree.children[atom_index]:
                visit(child_atom, position)
            stage.subtree_size = len(self.stages) - position

        visit(self.tree.root, None)

    def _compute_bottom_up(self) -> None:
        """Subtree weights and buckets, children before parents.

        Stage-at-a-time: a stage's subtree weights are its lifted weights
        folded with each child's bucket minima (looked up by the parent
        key column), then its tuples are grouped by their own key column.
        """
        combine = self.ranking.combine
        for position in range(self.num_stages - 1, -1, -1):
            stage = self.stages[position]
            rows = stage.relation.rows
            subtree = self.lifted[position]
            for child_position in stage.children:
                best = _lookup_column(
                    rows,
                    self.stages[child_position].parent_key_positions,
                    {
                        key: bucket.subtree_weights[bucket.best_position]
                        for key, bucket in self.buckets[child_position].items()
                    },
                )
                subtree = list(map(combine, subtree, best))
            # Bucket the tuples by parent join key.
            groups = group_rows(rows, stage.own_key_positions)
            stage_buckets = self.buckets[position]
            for key, ids in groups.items():
                weights = list(map(subtree.__getitem__, ids))
                stage_buckets[key] = Bucket(
                    tuple_ids=ids,
                    subtree_weights=weights,
                    best_position=weights.index(min(weights)),
                )
            if self.counters is not None:
                # One read per tuple; a first-minimum scan costs one
                # comparison per bucket member after the first.
                self.counters.tuples_read += len(rows)
                self.counters.comparisons += len(rows) - len(groups)

    # ------------------------------------------------------------------
    # Accessors used by the enumeration algorithms
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True iff the query has no answers (root bucket empty/absent)."""
        root = self.buckets[0].get(())
        return root is None or len(root) == 0

    def root_bucket(self) -> Optional[Bucket]:
        """The single bucket of the root stage (key ``()``), or None."""
        return self.buckets[0].get(())

    def bucket_for(self, position: int, choices: Sequence[int]) -> Bucket:
        """The stage's bucket selected by the parent's chosen tuple.

        ``choices[stage.parent]`` must be assigned.  After the full
        reducer, the bucket always exists.
        """
        stage = self.stages[position]
        if stage.parent is None:
            return self.buckets[0][()]
        parent_row = self.stages[stage.parent].relation.rows[
            choices[stage.parent]
        ]
        key = tuple(parent_row[p] for p in stage.parent_key_positions)
        return self.buckets[position][key]

    def prefix_priority(self, choices: Sequence[int]) -> Any:
        """Exact weight of the best full solution extending ``choices``.

        Folds, in DFS pre-order: the lifted weight of each assigned stage,
        and for each frontier stage (unassigned, parent assigned) its
        bucket minimum — then skips that stage's whole DFS subtree, which
        the bucket minimum already accounts for.
        """
        length = len(choices)
        combine = self.ranking.combine
        total = self.ranking.identity
        first = True
        position = 0
        while position < self.num_stages:
            if position < length:
                contribution = self.lifted[position][choices[position]]
                step = 1
            else:
                bucket = self.bucket_for(position, choices)
                contribution = bucket.best_weight
                step = self.stages[position].subtree_size
            total = contribution if first else combine(total, contribution)
            first = False
            position += step
        return total

    def solution_weight(self, choices: Sequence[int]) -> Any:
        """Weight of a full solution (DFS-order fold of lifted weights)."""
        if len(choices) != self.num_stages:
            raise ValueError("solution must assign every stage")
        return self.prefix_priority(choices)

    def expand_best(self, choices: list[int]) -> list[int]:
        """Extend a prefix to the best full solution, in place (greedy:
        each remaining stage takes its bucket minimum)."""
        for position in range(len(choices), self.num_stages):
            bucket = self.bucket_for(position, choices)
            choices.append(bucket.best_tuple)
        return choices

    def solution_row(self, choices: Sequence[int]) -> tuple:
        """Assemble the output row of a full solution."""
        out: list = [None] * len(self.query.variables)
        for position, stage in enumerate(self.stages):
            row = stage.relation.rows[choices[position]]
            for schema_position, out_position in self._writers[position]:
                out[out_position] = row[schema_position]
        return tuple(out)

    def total_tuples(self) -> int:
        """Total surviving tuples across stages (the naive-Lawler cost)."""
        return sum(len(stage.relation) for stage in self.stages)
