"""Span arithmetic of the traced benchmark run.

    python3 -m pytest perfbench/test_perfbench_spans.py -q
"""

import random
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import (  # noqa: E402
    END, NAME, PARENT, REQUEST, ROOT, SPAN_ID, START, Tracer, covered,
    layer_totals, roots_by_request, self_times,
)


def _random_tree(rng: random.Random) -> list[tuple]:
    """Spans of one request: nested, non-overlapping siblings per parent."""
    spans, ids = [], iter(range(1, 10_000))

    def grow(parent, request, start, end, depth):
        span_id = next(ids)
        request = request or span_id
        spans.append((span_id, f"layer{depth}", parent, request, start, end,
                      None))
        cursor = start
        while depth < 4 and rng.random() < 0.7:
            lo = cursor + rng.uniform(0, (end - cursor) / 3)
            hi = lo + rng.uniform(0, (end - lo) / 2)
            if hi <= lo:
                break
            grow(span_id, request, lo, hi, depth + 1)
            cursor = hi
        return span_id

    grow(None, None, 0.0, rng.uniform(1.0, 5.0), 0)
    return spans


def _check_tree(spans: list[tuple]) -> None:
    own = self_times(spans)
    by_id = {span[SPAN_ID]: span for span in spans}
    child_time: dict[int, float] = {}
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] = (child_time.get(span[PARENT], 0.0)
                                        + span[END] - span[START])
    for span_id, total in child_time.items():
        parent = by_id[span_id]
        assert total <= parent[END] - parent[START] + 1e-9
    for span in spans:
        assert own[span[SPAN_ID]] >= -1e-9
    root = next(span for span in spans if span[PARENT] is None)
    assert abs(sum(own.values()) - (root[END] - root[START])) < 1e-9


def test_self_times_of_random_trees_sum_to_the_root():
    rng = random.Random(7)
    for _ in range(200):
        _check_tree(_random_tree(rng))


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert covered([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_layer_totals_split_self_and_total_time():
    spans = [
        (1, ROOT, None, 1, 0.0, 10.0, "s"),
        (2, "core.cache.match", 1, 1, 1.0, 5.0, None),
        (3, "core.planner.candidate_ids", 2, 1, 2.0, 4.0, None),
        (4, "core.transform", 1, 1, 6.0, 9.0, 120),
    ]
    totals = layer_totals(spans)
    assert totals[ROOT]["total_s"] == 10.0
    assert totals[ROOT]["self_s"] == 3.0
    assert totals["core.cache.match"]["self_s"] == 2.0
    assert totals["core.transform"]["value"] == 120
    assert sum(entry["self_s"] for entry in totals.values()) == 10.0


def test_tracer_records_a_nested_tree_per_request():
    module = types.SimpleNamespace()

    def leaf():
        time.sleep(0.001)

    def middle():
        module.leaf()
        module.leaf()

    def handle(manager, request):
        module.middle()
        return "ok"

    module.leaf, module.middle = leaf, middle
    manager = types.SimpleNamespace(handle_request=handle)
    tracer = Tracer()
    tracer.wrap(module, "leaf", "leaf")
    tracer.wrap(module, "middle", "middle")
    tracer.wrap(manager, "handle_request", ROOT,
                lambda args, result: args[1].session_id)
    request = types.SimpleNamespace(session_id="s1", params={})
    for _ in range(3):
        assert manager.handle_request(None, request) == "ok"
    tracer.wrap(module, "absent", "absent")
    assert len(tracer.missing) == 1

    spans = tracer.spans
    assert len(spans) == 12
    roots = roots_by_request(spans)
    assert sorted(roots) == [("s1", 0), ("s1", 1), ("s1", 2)]
    for root in roots.values():
        tree = [span for span in spans if span[REQUEST] == root[REQUEST]]
        assert [span[NAME] for span in tree].count("leaf") == 2
        _check_tree(tree)
