"""Planner + prefix-reuse speedup over a replayed incremental session.

The paper's interactivity claim (Section 7) rests on re-executing the query
after *every* user action; Section 9's future-work item #2 asks for
"accelerating the execution speed of updated queries (e.g., by reusing
intermediate results)". This bench replays a Figure 1-style 10-action
incremental browsing session three ways over the largest
``bench_scalability.py`` corpus size:

* ``naive``    — the reference BFS matcher, re-run from scratch per action;
* ``planned``  — the cost-based planner (set-at-a-time condition
                 evaluation, selectivity-ordered joins, semi-join
                 pruning), still no reuse;
* ``parallel`` — the planner with partitioned delta joins across worker
                 processes (no reuse; worker scaling is measured separately
                 in ``bench_planner_parallel.py``);
* ``reuse``    — planner + CachingExecutor (whole-pattern + prefix-level
                 intermediate reuse, memoized condition sets);
* ``incremental`` — the action-delta engine: refinement actions answered
                 from the previous ETable's relation (per-action latency is
                 measured separately in ``bench_action_latency.py``);
* ``pushdown`` — the planner with oversized delta joins routed to an
                 indexed SQLite image of the graph (cost rule at its
                 default threshold).

A second, targeted measurement isolates the pushdown claim: the corpus's
*largest-intermediate* delta join (the ``(source count × avg degree)``
argmax over the schema's edge types) runs through the Python kernel and
through the warm SQL backend, bit-identical output required, and the SQL
path must win by ``REPRO_PUSHDOWN_MIN_SPEEDUP`` (default 1.1x). Like the
parallel bench's floor, the bar self-gates on the host: it is enforced
only with >= 2 usable cores (or ``REPRO_PUSHDOWN_ENFORCE=1``), because a
loaded single-core container times both sides too noisily to compare.

It asserts all six produce identical ETables at every step, requires the
fastest reuse strategy (the incremental action-delta engine) to beat naive
by ``REPRO_PLANNER_MIN_SPEEDUP`` (default 3x) and the prefix-reuse engine
by ``REPRO_PLANNER_MIN_REUSE_SPEEDUP`` (default 2.5x — the naive baseline's
wall time varies ~25% with machine load between runs, so the prefix floor
carries head-room; its absolute time and cache counters are the stable
regression signal), requires the cold ``planned`` replay — no cache of
any kind, so every action re-evaluates its conditions — to beat naive by
``REPRO_PLANNER_MIN_COLD_SPEEDUP`` (default 3x: set-at-a-time condition
evaluation is the whole difference between the two), and saves
``results/planner_speedup.json``. Both secondary floors are capped by
``REPRO_PLANNER_MIN_SPEEDUP``, so relaxing that one relaxes all three.

Env knobs: ``REPRO_PLANNER_BENCH_PAPERS`` overrides the corpus size (the CI
smoke run uses a small corpus and a relaxed speedup floor);
``REPRO_PLANNER_BENCH_WORKERS`` sets the parallel replay's worker count.
"""

import os
import time

from repro.bench import banner, format_table, report, save_result
from repro.core.session import EtableSession
from repro.tgm.conditions import AttributeCompare, AttributeLike, NeighborSatisfies

from bench_scalability import SIZES

PAPERS = int(os.environ.get("REPRO_PLANNER_BENCH_PAPERS", str(max(SIZES))))
MIN_SPEEDUP = float(os.environ.get("REPRO_PLANNER_MIN_SPEEDUP", "3.0"))
MIN_REUSE_SPEEDUP = float(
    os.environ.get("REPRO_PLANNER_MIN_REUSE_SPEEDUP", "2.5")
)
MIN_COLD_SPEEDUP = float(
    os.environ.get("REPRO_PLANNER_MIN_COLD_SPEEDUP", "3.0")
)
WORKERS = int(os.environ.get("REPRO_PLANNER_BENCH_WORKERS", "4"))
PUSHDOWN_MIN_SPEEDUP = float(
    os.environ.get("REPRO_PUSHDOWN_MIN_SPEEDUP", "1.1")
)
ACTION_COUNT = 10
PUSHDOWN_ROUNDS = 5


def _build_corpus():
    from repro.datasets.academic import (
        AcademicConfig,
        default_categorical_attributes,
        default_label_overrides,
        generate_academic,
    )
    from repro.translate import translate_database

    db, _ = generate_academic(AcademicConfig(papers=PAPERS, seed=7))
    return translate_database(
        db,
        categorical_attributes=default_categorical_attributes(),
        label_overrides=default_label_overrides(),
    )


ROW_LIMIT = 50  # the interface paginates; matching is always complete


def _replay_session(tgdb, use_cache, engine="planned", workers=None):
    """The 10-action incremental script (Figure 1 style).

    Every action triggers a full re-execution of the current pattern, as
    the paper's interface does (with its pagination: ``ROW_LIMIT`` rows are
    *presented*, matching itself is complete so counts stay exact); the
    tail mixes filters, pivots, and reverts — the access pattern prefix
    reuse is built for.
    """
    session = EtableSession(
        tgdb.schema, tgdb.graph, row_limit=ROW_LIMIT,
        use_cache=use_cache, engine=engine, workers=workers,
    )
    session.open("Papers")                                               # 1
    session.filter(NeighborSatisfies("Papers->Paper_Keywords",
                                     AttributeLike("keyword", "%user%")))  # 2
    session.filter(AttributeCompare("year", ">", 2006))                  # 3
    session.pivot("Papers->Authors")                                     # 4
    session.pivot("Authors->Institutions")                               # 5
    session.filter(AttributeLike("name", "%Univ%"))                      # 6
    session.revert(3)  # back to the Authors pivot (verbatim re-execution) 7
    session.pivot("Authors->Papers")                                     # 8
    session.filter(AttributeCompare("year", ">", 2010))                  # 9
    session.revert(5)  # back to the institution-filtered state           10
    return session


def _timed_replay(tgdb, use_cache, engine="planned", workers=None):
    start = time.perf_counter()
    session = _replay_session(tgdb, use_cache, engine, workers)
    return time.perf_counter() - start, session


def _largest_intermediate_join(tgdb):
    """The corpus's biggest delta join: argmax of |source| × avg_degree."""
    graph = tgdb.graph
    stats = graph.statistics()
    best = None
    for edge_type in graph.schema.edge_types:
        sources = len(graph.node_ids_of_type(edge_type.source))
        estimate = sources * stats.edge_type_stats(edge_type.name).avg_degree
        if best is None or estimate > best[0]:
            best = (estimate, edge_type)
    assert best is not None
    return best


def _bench_pushdown_join(tgdb):
    """Kernel vs warm SQL backend on the largest-intermediate join."""
    from repro.core.planner import _delta_join
    from repro.relational.backends import PushdownContext
    from repro.tgm.graph_relation import base_relation

    estimate, edge_type = _largest_intermediate_join(tgdb)
    prefix = base_relation(tgdb.graph, edge_type.source, key="src")
    context = PushdownContext(tgdb.graph, min_rows=0)
    args = ("src", edge_type.name, "dst", edge_type.target, None)
    pushed = context.delta_join(prefix, *args)  # warm load, untimed
    kernel = _delta_join(prefix, tgdb.graph, *args)
    assert pushed.tuples == kernel.tuples, (
        f"pushed join diverged from kernel on {edge_type.name}"
    )
    kernel_seconds = min(
        _timed(_delta_join, prefix, tgdb.graph, *args)
        for _ in range(PUSHDOWN_ROUNDS)
    )
    pushed_seconds = min(
        _timed(context.delta_join, prefix, *args)
        for _ in range(PUSHDOWN_ROUNDS)
    )
    context.close()
    return {
        "edge_type": edge_type.name,
        "estimated_intermediate": round(estimate),
        "output_rows": len(kernel),
        "kernel_ms": round(kernel_seconds * 1000, 2),
        "pushed_ms": round(pushed_seconds * 1000, 2),
        "speedup": round(kernel_seconds / pushed_seconds, 2),
    }


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _etable_signature(etable):
    return [
        (
            row.node_id,
            tuple(
                (key, tuple(ref.node_id for ref in row.cells[key]))
                for key in sorted(row.cells)
            ),
        )
        for row in etable.rows
    ]


def test_planner_speedup(benchmark):
    tgdb = _build_corpus()
    # Graph statistics are built once per graph (a service builds or loads
    # them at boot), not per action: build them before timing any engine,
    # so the first planner-backed replay does not pay them for all others.
    tgdb.graph.statistics()

    naive_seconds, naive_session = _timed_replay(
        tgdb, use_cache=False, engine="naive"
    )
    planned_seconds, planned_session = _timed_replay(
        tgdb, use_cache=False, engine="planned"
    )
    # Warm the shared worker pool outside the timed replay: interactive
    # services pay process startup once, not per action.
    _replay_session(tgdb, use_cache=False, engine="parallel", workers=WORKERS)
    parallel_seconds, parallel_session = _timed_replay(
        tgdb, use_cache=False, engine="parallel", workers=WORKERS
    )
    reuse_seconds, reuse_session = _timed_replay(tgdb, use_cache=True)
    incremental_seconds, incremental_session = _timed_replay(
        tgdb, use_cache=False, engine="incremental"
    )
    # Warm the shared SQLite image outside the timed replay, like the
    # worker pool above: the service builds it once, not per action.
    _replay_session(tgdb, use_cache=False, engine="pushdown")
    pushdown_seconds, pushdown_session = _timed_replay(
        tgdb, use_cache=False, engine="pushdown"
    )

    # Equivalence: the six engines replay to identical tables.
    assert (
        _etable_signature(naive_session.current)
        == _etable_signature(planned_session.current)
        == _etable_signature(parallel_session.current)
        == _etable_signature(reuse_session.current)
        == _etable_signature(incremental_session.current)
        == _etable_signature(pushdown_session.current)
    )
    assert (
        naive_session.history_lines()
        == planned_session.history_lines()
        == parallel_session.history_lines()
        == reuse_session.history_lines()
        == incremental_session.history_lines()
        == pushdown_session.history_lines()
    )
    assert len(naive_session.history) == ACTION_COUNT

    pushdown_join = _bench_pushdown_join(tgdb)

    executor = reuse_session._executor
    assert executor is not None
    stats = executor.stats

    planned_speedup = naive_seconds / planned_seconds
    parallel_speedup = naive_seconds / parallel_seconds
    reuse_speedup = naive_seconds / reuse_seconds
    incremental_speedup = naive_seconds / incremental_seconds
    pushdown_speedup = naive_seconds / pushdown_seconds

    report(banner(
        f"Planner + reuse speedup: {ACTION_COUNT}-action session, "
        f"{PAPERS} papers"
    ))
    report(format_table(
        ["strategy", "session time", "speedup vs naive"],
        [
            ["naive (BFS re-execution)", f"{naive_seconds * 1000:.0f} ms", "1.0x"],
            ["planned (no reuse)", f"{planned_seconds * 1000:.0f} ms",
             f"{planned_speedup:.1f}x"],
            [f"parallel ({WORKERS} workers, no reuse)",
             f"{parallel_seconds * 1000:.0f} ms",
             f"{parallel_speedup:.1f}x"],
            ["planned + prefix reuse", f"{reuse_seconds * 1000:.0f} ms",
             f"{reuse_speedup:.1f}x"],
            ["incremental (action deltas)",
             f"{incremental_seconds * 1000:.0f} ms",
             f"{incremental_speedup:.1f}x"],
            ["pushdown (SQL delta joins)",
             f"{pushdown_seconds * 1000:.0f} ms",
             f"{pushdown_speedup:.1f}x"],
        ],
    ))
    report(
        f"cache: {stats.hits} whole-pattern hits, {stats.prefix_hits} prefix "
        f"hits reusing {stats.reused_nodes} joined nodes, "
        f"{stats.delta_joins} delta joins"
    )
    report(
        f"largest-intermediate join ({pushdown_join['edge_type']}, "
        f"~{pushdown_join['estimated_intermediate']} rows est.): "
        f"kernel {pushdown_join['kernel_ms']} ms, "
        f"SQL {pushdown_join['pushed_ms']} ms "
        f"({pushdown_join['speedup']}x)"
    )

    save_result("planner_speedup", {
        "papers": PAPERS,
        "actions": ACTION_COUNT,
        "naive_ms": round(naive_seconds * 1000, 1),
        "planned_ms": round(planned_seconds * 1000, 1),
        "parallel_ms": round(parallel_seconds * 1000, 1),
        "parallel_workers": WORKERS,
        "reuse_ms": round(reuse_seconds * 1000, 1),
        "incremental_ms": round(incremental_seconds * 1000, 1),
        "pushdown_ms": round(pushdown_seconds * 1000, 1),
        "planned_speedup": round(planned_speedup, 2),
        "parallel_speedup": round(parallel_speedup, 2),
        "reuse_speedup": round(reuse_speedup, 2),
        "incremental_speedup": round(incremental_speedup, 2),
        "pushdown_speedup": round(pushdown_speedup, 2),
        "pushdown_join": pushdown_join,
        "min_speedup_required": MIN_SPEEDUP,
        "min_reuse_speedup_required": MIN_REUSE_SPEEDUP,
        "min_cold_speedup_required": MIN_COLD_SPEEDUP,
        "min_pushdown_join_speedup_required": PUSHDOWN_MIN_SPEEDUP,
        "cache": {
            "hits": stats.hits,
            "misses": stats.misses,
            "prefix_hits": stats.prefix_hits,
            "reused_nodes": stats.reused_nodes,
            "delta_joins": stats.delta_joins,
        },
        "equivalent_output": True,
    })

    # The acceptance bar: the best reuse strategy (incremental action
    # deltas) makes the replayed session at least MIN_SPEEDUP x faster
    # end-to-end than the naive path, and the prefix-reuse engine stays
    # above its own regression floor.
    assert incremental_speedup >= MIN_SPEEDUP, (
        f"incremental replay only {incremental_speedup:.2f}x faster than "
        f"naive (required {MIN_SPEEDUP}x)"
    )
    assert reuse_speedup >= min(MIN_SPEEDUP, MIN_REUSE_SPEEDUP), (
        f"planning+reuse replay only {reuse_speedup:.2f}x faster than naive "
        f"(required {min(MIN_SPEEDUP, MIN_REUSE_SPEEDUP)}x)"
    )
    # The cold-path bar: without any cache, the planner's set-at-a-time
    # condition evaluation alone must make the session MIN_COLD_SPEEDUP x
    # faster than the naive per-node evaluation.
    assert planned_speedup >= min(MIN_SPEEDUP, MIN_COLD_SPEEDUP), (
        f"cold planned replay only {planned_speedup:.2f}x faster than "
        f"naive (required {min(MIN_SPEEDUP, MIN_COLD_SPEEDUP)}x)"
    )
    # The pushdown bar: the SQL backend must beat the Python kernel on
    # the largest-intermediate join. Self-gated like the parallel bench's
    # floor — single-core (or explicitly waived) hosts only check
    # equivalence, which asserted above unconditionally.
    try:
        usable_cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable_cores = os.cpu_count() or 1
    if os.environ.get("REPRO_PUSHDOWN_ENFORCE") == "1" or usable_cores >= 2:
        assert pushdown_join["speedup"] >= PUSHDOWN_MIN_SPEEDUP, (
            f"SQL pushdown only {pushdown_join['speedup']:.2f}x faster than "
            f"the Python kernel on {pushdown_join['edge_type']} "
            f"(required {PUSHDOWN_MIN_SPEEDUP}x)"
        )

    benchmark.pedantic(
        _replay_session, args=(tgdb, True), rounds=3, iterations=1
    )
