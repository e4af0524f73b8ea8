"""In-memory layer spans for the traced benchmark run, and their arithmetic.

:class:`Tracer` replaces public functions of the service with wrappers
that record one span per call: ``(span_id, name, parent_id, request_id,
start, end, value)``. The parent is the innermost traced call still open
on the same thread, and every span of one request shares the request id
of its root span. ``value`` carries one number or string the layer metric
needs (rows fed to ``transform``, bytes a journal write appended, the
session id of a request). Spans stay in a list until the server stops.

A function is wrapped at the name its *caller* looks up: ``cache.py``
imports ``transform`` by name, so the span sits on
``repro.core.cache.transform``; patching ``repro.core.transform.transform``
would record nothing.

The arithmetic half (:func:`self_times`, :func:`layer_totals`) is pure and
is what ``test_perfbench_spans.py`` checks: children never cover more than their
parent, and the self times of a tree add up to its root's duration.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

# Field positions in a span tuple.
SPAN_ID, NAME, PARENT, REQUEST, START, END, VALUE = range(7)

ROOT = "service.manager.handle_request"


def _request_session(args: tuple, result: Any) -> str | None:
    request = args[1]
    return request.session_id or request.params.get("session_id")


def _relation_rows(args: tuple, result: Any) -> int:
    return len(args[1])


def _journal_size(args: tuple, result: Any) -> int:
    try:
        return args[0].path.stat().st_size
    except OSError:
        return 0


# (module, class or None, attribute, span name, value hook, size-delta).
# A size-delta hook is evaluated before and after the call and the span
# keeps the difference: the bytes an append added to the journal file.
TARGETS: tuple[tuple[str, str | None, str, str, Callable | None, bool], ...] = (
    ("repro.service.manager", "SessionManager", "handle_request", ROOT,
     _request_session, False),
    ("repro.service.manager", "SessionManager", "resume_session",
     "service.manager.resume_session", None, False),
    ("repro.service.manager", None, "replay_records",
     "service.journal.replay_records", None, False),
    ("repro.service.journal", "ActionJournal", "record_action",
     "service.journal.record_action", _journal_size, True),
    ("repro.service.journal", "ActionJournal", "checkpoint",
     "service.journal.checkpoint", _journal_size, False),
    ("repro.service.protocol", None, "etable_to_json",
     "service.protocol.etable_to_json", None, False),
    ("repro.core.cache", "CachingExecutor", "match",
     "core.cache.match", None, False),
    ("repro.core.cache", None, "build_plan",
     "core.planner.build_plan", None, False),
    ("repro.core.cache", None, "execute_plan",
     "core.planner.execute_plan", None, False),
    ("repro.core.planner", None, "candidate_ids",
     "core.planner.candidate_ids", None, False),
    ("repro.core.cache", None, "restore_reference_order",
     "core.cache.restore_reference_order", None, False),
    ("repro.core.cache", None, "transform",
     "core.transform", _relation_rows, False),
)


class Tracer:
    """Records spans around wrapped functions; thread-safe under the GIL."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: Any, attr: str, name: str,
             value: Callable | None = None, delta: bool = False) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent_id, request_id = stack[-1] if stack else (None, span_id)
            before = value(args, None) if delta else 0
            stack.append((span_id, request_id))
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                measured = value(args, result) if value else None
                if delta:
                    measured -= before
                tracer.spans.append((span_id, name, parent_id, request_id,
                                     start, end, measured))

        setattr(owner, attr, traced)

    def install(self, targets: Iterable[tuple] = TARGETS) -> "Tracer":
        for module_name, class_name, attr, name, value, delta in targets:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            self.wrap(owner, attr, name, value, delta)
        return self

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "missing": self.missing}, handle)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def covered(intervals: Iterable[tuple[float, float]], start: float,
            end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[tuple]) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[SPAN_ID]: (span[END] - span[START])
        - covered(children.get(span[SPAN_ID], ()), span[START], span[END])
        for span in spans
    }


def layer_totals(spans: Iterable[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and the value sum."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0.0}
    )
    for span in spans:
        entry = totals[span[NAME]]
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own[span[SPAN_ID]]
        if isinstance(span[VALUE], (int, float)):
            entry["value"] += span[VALUE]
    return dict(totals)


def roots_by_request(spans: Iterable[tuple]) -> dict[tuple[str, int], tuple]:
    """Root spans keyed by (session id, per-session sequence number).

    Each benchmark session is driven by one connection, one request at a
    time, so the order of a session's root spans is the order in which the
    client sent its requests; the client numbers them the same way.
    """
    roots = sorted((span for span in spans if span[PARENT] is None
                    and span[NAME] == ROOT and span[VALUE] is not None),
                   key=lambda span: span[START])
    seq: dict[str, int] = defaultdict(int)
    keyed = {}
    for span in roots:
        keyed[(span[VALUE], seq[span[VALUE]])] = span
        seq[span[VALUE]] += 1
    return keyed
