"""Cost-based SQL pushdown of delta joins (ROADMAP open item 3).

The planning engine's delta join is a Python loop: probe the adjacency
index once per prefix tuple, expand every qualifying neighbor. That is the
right shape for interactive steps, but an oversized intermediate (a pivot
from a barely-filtered table, say) pays Python's per-row interpretation
cost |prefix| × fanout times. PR 1's :class:`SqliteBackend` already holds
machinery that can run the very same join at C speed: the Section 6.2
four-table storage (:func:`repro.tgm.storage.save_graph`) persists the
instance graph's ``edges`` table with indexes on ``type_name`` /
``source_id`` / ``target_id``, which is exactly the access path one delta
join needs.

:class:`PushdownContext` owns one lazily-loaded SQLite image of the graph
(rebuilt whenever the graph's mutation version moves) and translates a
single delta-join step into SQL:

* the prefix relation's probe column ships into a temp table as
  ``(row index, node id)`` pairs;
* the traversal becomes a two-arm ``UNION ALL`` over the ``edges`` table —
  a forward arm (``source_id = probe``) and, when the traversal's reverse
  twin exists, a reverse arm (``target_id = probe``, emitting
  ``source_id``) — because an adjacency list interleaves edges stored
  under either twin's name;
* the candidate set (computed in Python exactly as the kernel does, index
  set evaluation and condition-set store included) becomes an ``IN`` filter over a second temp
  table;
* ``ORDER BY (prefix row index, edge id)`` reproduces the kernel's output
  order *exactly*: adjacency lists append in global ``add_edge`` order,
  which is the ``edges`` table's ``id`` order — so the pushed join is
  bit-identical to :func:`repro.core.planner._delta_join` and the
  differential fuzzer can hold ``engine="pushdown"`` in lockstep with the
  naive oracle.

The **cost rule** is a per-join decision driven by
:class:`~repro.tgm.instance_graph.GraphStatistics`: push when the
estimated intermediate, ``|prefix| × avg_degree(traversal)``, reaches
``min_rows`` (default :data:`DEFAULT_MIN_PUSHDOWN_ROWS`, overridable via
``REPRO_PUSHDOWN_MIN_ROWS``). Small joins stay in the Python kernel, whose
constant factors win below the threshold; the fuzzer forces ``min_rows=0``
so every join exercises the SQL path.
"""

from __future__ import annotations

import os
import threading
from typing import Iterable
from weakref import WeakKeyDictionary

from repro.analysis.runtime import assert_locked
from repro.relational.backends.sqlite_backend import SqliteBackend
from repro.tgm.graph_relation import GraphAttribute, GraphRelation
from repro.tgm.instance_graph import InstanceGraph

# NOT imported at module level: ``repro.tgm.storage`` imports
# ``repro.relational.database``, whose package init imports this backends
# package — a cycle when ``repro.tgm`` loads first.

# Below this many *estimated intermediate rows* a delta join stays in the
# Python kernel: shipping the prefix into SQLite and fetching the result
# back costs two O(rows) copies, which only pays off once the join's own
# probe-and-expand work dominates them.
DEFAULT_MIN_PUSHDOWN_ROWS = 8192


def resolve_min_pushdown_rows(min_rows: int | None) -> int:
    """``None`` means auto: ``REPRO_PUSHDOWN_MIN_ROWS`` or the default."""
    if min_rows is None:
        env = os.environ.get("REPRO_PUSHDOWN_MIN_ROWS")
        min_rows = int(env) if env else DEFAULT_MIN_PUSHDOWN_ROWS
    return max(0, int(min_rows))


class PushdownContext:
    """A per-graph SQL engine for oversized delta joins.

    One context owns one lazily-built :class:`SqliteBackend` holding the
    four-table storage image of ``graph``, the cost rule deciding which
    joins it answers, and the observability counters the service's
    ``stats_payload`` exposes. The image is version-bound: a graph
    mutation invalidates it, and the next pushed join reloads from the
    mutated graph — stale edges can never be served.

    Thread-safe: the load and every pushed join run under one lock (the
    SQLite connection is shared across the service's request threads), and
    the relation materialization happens outside it.
    """

    def __init__(
        self, graph: InstanceGraph, min_rows: int | None = None
    ) -> None:
        self.graph = graph
        self.min_rows = resolve_min_pushdown_rows(min_rows)
        self._lock = threading.Lock()
        self._backend: SqliteBackend | None = None  # guarded-by: self._lock
        self._loaded_version: int | None = None  # guarded-by: self._lock
        self.loads = 0  # guarded-by: self._lock
        self.pushed_joins = 0  # guarded-by: self._lock
        self.rows_in = 0  # guarded-by: self._lock
        self.rows_out = 0  # guarded-by: self._lock

    # ------------------------------------------------------------------
    # Cost rule
    # ------------------------------------------------------------------
    def should_push(self, rows: int, traversal: str) -> bool:
        """Route this join to SQL? ``rows`` is the prefix height.

        The estimated intermediate is ``rows × avg_degree(traversal)``
        from the graph's degree statistics — the same estimate the planner
        itself joins on — compared against ``min_rows``.
        """
        if rows < 1:
            return False
        stats = self.graph.statistics()
        fanout = max(1.0, stats.edge_type_stats(traversal).avg_degree)
        return rows * fanout >= self.min_rows

    # ------------------------------------------------------------------
    # Backend lifecycle
    # ------------------------------------------------------------------
    def _ensure_backend(self) -> SqliteBackend:  # requires-lock
        """(Re)load the SQLite image when the graph version moved."""
        assert_locked(self._lock, "PushdownContext._lock")
        from repro.tgm.storage import save_graph

        version = self.graph.version
        if self._backend is None or self._loaded_version != version:
            if self._backend is not None:
                self._backend.close()
            backend = SqliteBackend(check_same_thread=False)
            backend.load(save_graph(self.graph.schema, self.graph))
            connection = backend.connection
            assert connection is not None
            # The storage schema indexes each FK column alone; a delta
            # join's access path is the *pair* (edge type, probe side).
            connection.execute(
                'CREATE INDEX IF NOT EXISTS "idx_edges_type_source" '
                'ON "edges" ("type_name", "source_id")'
            )
            connection.execute(
                'CREATE INDEX IF NOT EXISTS "idx_edges_type_target" '
                'ON "edges" ("type_name", "target_id")'
            )
            self._backend = backend
            self._loaded_version = version
            self.loads += 1
        return self._backend

    def close(self) -> None:
        """Release the SQLite connection (the context may push again)."""
        with self._lock:
            if self._backend is not None:
                self._backend.close()
                self._backend = None
                self._loaded_version = None

    # ------------------------------------------------------------------
    # The pushed join
    # ------------------------------------------------------------------
    def delta_join(
        self,
        relation: GraphRelation,
        left_key: str,
        traversal_edge: str,
        new_key: str,
        new_type: str,
        candidate_set: Iterable[int] | None,
    ) -> GraphRelation:
        """One delta join on the SQL backend; bit-identical to the kernel.

        Same signature and semantics as
        :func:`repro.core.planner._delta_join`: ``candidate_set=None``
        means the new node is unconditioned (adjacency lists — and the
        per-type ``edges`` rows — are type-homogeneous, so every neighbor
        qualifies).
        """
        position = relation.position(left_key)
        columns = relation.columns_view()
        source_column = columns[position]
        edge_type = self.graph.schema.edge_type(traversal_edge)
        with self._lock:
            connection = self._ensure_backend().connection
            assert connection is not None
            cursor = connection.cursor()
            cursor.execute(
                "CREATE TEMP TABLE IF NOT EXISTS pushdown_prefix "
                "(idx INTEGER NOT NULL, node INTEGER NOT NULL)"
            )
            # Without this index SQLite's planner may nest the *unindexed*
            # prefix table inside the edges scan — O(|edges| × |prefix|).
            cursor.execute(
                "CREATE INDEX IF NOT EXISTS temp.pushdown_prefix_node "
                "ON pushdown_prefix (node, idx)"
            )
            cursor.execute("DELETE FROM pushdown_prefix")
            cursor.executemany(
                "INSERT INTO pushdown_prefix VALUES (?, ?)",
                enumerate(source_column),
            )
            filter_sql = ""
            if candidate_set is not None:
                cursor.execute(
                    "CREATE TEMP TABLE IF NOT EXISTS pushdown_candidates "
                    "(node INTEGER PRIMARY KEY)"
                )
                cursor.execute("DELETE FROM pushdown_candidates")
                cursor.executemany(
                    "INSERT OR IGNORE INTO pushdown_candidates VALUES (?)",
                    ((node_id,) for node_id in candidate_set),
                )
                filter_sql = (
                    " WHERE dst IN (SELECT node FROM pushdown_candidates)"
                )
            # An adjacency list under ``traversal_edge`` interleaves edges
            # stored under that name (probe = source) with edges stored
            # under its reverse twin (probe = target), in global insertion
            # order — hence the two indexed arms and the edge-id rank.
            arms = [
                'SELECT p.idx AS idx, e."target_id" AS dst, e."id" AS rank '
                'FROM pushdown_prefix p JOIN "edges" e '
                'ON e."source_id" = p.node AND e."type_name" = ?'
            ]
            arm_params = [traversal_edge]
            if edge_type.reverse_name is not None:
                arms.append(
                    'SELECT p.idx AS idx, e."source_id" AS dst, e."id" AS rank '
                    'FROM pushdown_prefix p JOIN "edges" e '
                    'ON e."target_id" = p.node AND e."type_name" = ?'
                )
                arm_params.append(edge_type.reverse_name)
            sql = (
                "SELECT idx, dst FROM ("
                + " UNION ALL ".join(arms)
                + ")"
                + filter_sql
                + " ORDER BY idx, rank"
            )
            pairs = cursor.execute(sql, arm_params).fetchall()
            self.pushed_joins += 1
            self.rows_in += len(source_column)
            self.rows_out += len(pairs)
        selected = [pair[0] for pair in pairs]
        new_column = [pair[1] for pair in pairs]
        out = [[column[index] for index in selected] for column in columns]
        out.append(new_column)
        attributes = list(relation.attributes) + [
            GraphAttribute(new_key, new_type)
        ]
        return GraphRelation.from_columns(attributes, out)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats_payload(self) -> dict:
        """Counters for the service's ``/v1/stats`` (JSON-able)."""
        with self._lock:
            return {
                "min_rows": self.min_rows,
                "loads": self.loads,
                "pushed_joins": self.pushed_joins,
                "rows_in": self.rows_in,
                "rows_out": self.rows_out,
            }


# ----------------------------------------------------------------------
# Process-wide shared contexts (mirrors planner.parallel_context)
# ----------------------------------------------------------------------
_CONTEXTS: "WeakKeyDictionary[InstanceGraph, dict[int, PushdownContext]]" = (
    WeakKeyDictionary()
)
_CONTEXTS_LOCK = threading.Lock()


def pushdown_context(
    graph: InstanceGraph, min_rows: int | None = None
) -> PushdownContext:
    """The process-wide shared context for ``(graph, threshold)``.

    Sharing matters: the SQLite image of a graph is the expensive part,
    and every session/executor pushing joins over the same graph should
    reuse one. Keyed weakly by graph, so the image dies with it.
    """
    resolved = resolve_min_pushdown_rows(min_rows)
    with _CONTEXTS_LOCK:
        per_graph = _CONTEXTS.get(graph)
        if per_graph is None:
            per_graph = {}
            _CONTEXTS[graph] = per_graph
        context = per_graph.get(resolved)
        if context is None:
            context = PushdownContext(graph, min_rows=resolved)
            per_graph[resolved] = context
        return context
