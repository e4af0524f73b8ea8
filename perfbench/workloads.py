"""The four workloads: who the users are, what they click, which server.

Every workload is one stream of users drawn from a ``random.Random``
seeded by the workload seed, so the same seed gives the same users in the
same order however fast the server answers. A user is one session and one
script of mutating actions; each action is followed by the page read a
Figure 9 client makes to render it.

* ``warm-browse`` replays a Zipf-weighted set of 12 scripts (the four
  browsing shapes of the service throughput bench x three years). Its
  working set fits the 256-entry result cache, so matching is mostly
  bypassed and format transformation plus serialization dominate.
* ``cold-explore`` draws fresh constants for every user (keyword LIKE
  through a neighbor condition, a year threshold, an author-name LIKE),
  then pivots and reverts. Shapes stay shared (plan-cache hits) while
  distinct patterns outgrow the result cache, so candidate evaluation in
  the planner dominates.
* ``resume-churn`` replays the warm scripts, but keeps 16 users active
  round-robin against ``--max-sessions 8`` with a journal directory:
  nearly every action resumes its session from its journal.
* ``warm-browse-threaded`` is ``warm-browse`` served by the default
  threaded frontend, so the HTTP frontend is the only difference.

``BENCHMARK.json`` lists only ``cold-explore`` and ``resume-churn``: two
workloads leave room for runs long enough to be steady on a shared
2-core host, and between them they reach every traced layer (the warm
path's transform and serialization run on every ``resume-churn`` step).
The other two run on request, and with ``--workload all``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator

Action = tuple[str, dict]

# Connections driving the service. With one, the client and the server
# take turns on the one CPU they are pinned to (see ``run.main``); a second
# connection would queue behind the first in the server and measure the
# scheduler, not the service.
CONNECTIONS = 1
# Sessions whose final table is checked against the naive engine, drawn
# from the first SAMPLE_FROM users.
SAMPLES = 8
SAMPLE_FROM = 24
# The service's result-cache capacity (CachingExecutor max_entries).
RESULT_CACHE_ENTRIES = 256

# Fragments the cold-explore users type into LIKE filters. Keyword
# fragments go through Papers->Paper_Keywords; name fragments filter
# Authors.name.
KEYWORD_FRAGMENTS = (
    "user", "data", "query", "graph", "min", "learn", "vis", "search",
    "stream", "design", "rank", "index", "join", "model", "base", "net",
    "spat", "temp", "clust", "class", "crowd", "priv", "sampl", "cach",
    "view", "top", "time", "seq", "link", "feat", "prob", "qual", "flow",
    "array", "column", "energy", "trans", "secur", "web", "text", "topic",
    "facet", "brows", "navig", "perf", "proc", "opt", "ana", "ion", "ing",
)
NAME_FRAGMENTS = (
    "an", "er", "ra", "ch", "ma", "ka", "to", "li", "ar", "sch", "ba",
    "ho", "ri", "mo", "ta", "en", "el", "on", "ng", "ey", "ya", "ur",
    "ol", "ad", "is", "ki", "ov", "ez", "wa", "al",
)


def _compare_year(year: int) -> dict:
    return {"kind": "compare", "attribute": "year", "op": ">", "value": year}


def _like(attribute: str, fragment: str) -> dict:
    return {"kind": "like", "attribute": attribute,
            "pattern": f"%{fragment}%", "negate": False}


def _warm_shape(shape: int, year: int, row: int) -> list[Action]:
    """The four browsing shapes of ``bench_service_throughput._script``."""
    compare = {"condition": _compare_year(year)}
    if shape == 0:  # drill into authors, then revert to the filter
        return [
            ("open", {"type": "Papers"}),
            ("filter", compare),
            ("pivot", {"column": "Papers->Authors"}),
            ("sort", {"column": "name"}),
            ("revert", {"index": 1}),
        ]
    if shape == 1:  # keyword-filtered papers, institutions via authors
        return [
            ("open", {"type": "Papers"}),
            ("filter", {"condition": {
                "kind": "neighbor", "edge_type": "Papers->Paper_Keywords",
                "inner": _like("keyword", "data")}}),
            ("filter", compare),
            ("pivot", {"column": "Papers->Authors"}),
            ("pivot", {"column": "Authors->Institutions"}),
        ]
    if shape == 2:  # conference-centric browsing with a seeall
        return [
            ("open", {"type": "Conferences"}),
            ("seeall", {"row": row, "column": "Papers"}),
            ("filter", compare),
            ("sort", {"column": "year", "descending": True}),
            ("hide", {"column": "page_end"}),
        ]
    return [  # author-centric browsing with a revert back to the start
        ("open", {"type": "Authors"}),
        ("pivot", {"column": "Authors->Papers"}),
        ("filter", compare),
        ("revert", {"index": 0}),
        ("pivot", {"column": "Authors->Institutions"}),
    ]


# Popularity rank order is fixed; the seed only drives the draws.
WARM_SCRIPTS = [_warm_shape(shape, year, index)
                for index, year in enumerate((2004, 2007, 2010))
                for shape in range(4)]
_WARM_WEIGHTS = [1.0 / rank for rank in range(1, len(WARM_SCRIPTS) + 1)]


def warm_scripts(rng: random.Random) -> Iterator[list[Action]]:
    while True:
        yield rng.choices(WARM_SCRIPTS, weights=_WARM_WEIGHTS)[0]


def cold_scripts(rng: random.Random) -> Iterator[list[Action]]:
    """Fresh constants per user, dealt from shuffled decks.

    Dealing each fragment list (and the year range) as a shuffled deck
    gives every run the same mix of cheap and expensive constants in a
    seed-dependent order and combination, so a short window does not
    happen to draw mostly selective or mostly broad filters.
    """
    def deck(values: tuple) -> Iterator:
        while True:
            yield from rng.sample(values, len(values))

    for keyword, year, name in zip(deck(KEYWORD_FRAGMENTS),
                                   deck(tuple(range(2000, 2013))),
                                   deck(NAME_FRAGMENTS)):
        yield [
            ("open", {"type": "Papers"}),
            ("filter", {"condition": {
                "kind": "neighbor", "edge_type": "Papers->Paper_Keywords",
                "inner": _like("keyword", keyword)}}),
            ("filter", {"condition": _compare_year(year)}),
            ("pivot", {"column": "Papers->Authors"}),
            ("filter", {"condition": _like("name", name)}),
            ("revert", {"index": 3}),
            ("pivot", {"column": "Authors->Institutions"}),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    papers: int
    frontend: str
    scripts: Callable[[random.Random], Iterator[list[Action]]]
    # Steps driven before the timed window: the caches fill, the resumed
    # sessions reach their round-robin, and peak RSS is read after them.
    warmup_steps: int
    # Users kept active, one step each in round-robin.
    width: int = 1
    max_sessions: int = 256
    journal: bool = False

    def server_args(self, journal_dir: str | None) -> list[str]:
        args = ["--dataset", "academic", "--papers", str(self.papers),
                "--frontend", self.frontend, "--engine", "planned",
                "--host", "127.0.0.1", "--port", "0",
                "--max-sessions", str(self.max_sessions), "--ttl", "86400"]
        if self.journal:
            args += ["--journal-dir", journal_dir]
        return args

    def users(self, seed: int) -> Iterator[tuple[str, list[Action]]]:
        """The users, in order: (session id, script)."""
        scripts = self.scripts(random.Random(f"{seed}:users"))
        for index, script in enumerate(scripts):
            yield f"s{seed}-u{index}", script

    def sampled(self, seed: int) -> set[str]:
        """Session ids whose final table is checked."""
        rng = random.Random(f"{seed}:sample")
        return {f"s{seed}-u{index}"
                for index in rng.sample(range(SAMPLE_FROM), SAMPLES)}


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("warm-browse", papers=1200, frontend="async",
                 scripts=warm_scripts, warmup_steps=200),
        Workload("cold-explore", papers=4800, frontend="async",
                 scripts=cold_scripts, warmup_steps=300),
        Workload("resume-churn", papers=1200, frontend="async",
                 scripts=warm_scripts, warmup_steps=200, width=16,
                 max_sessions=8, journal=True),
        Workload("warm-browse-threaded", papers=1200, frontend="threaded",
                 scripts=warm_scripts, warmup_steps=100),
    )
}


def traffic_properties(workload: Workload, seed: int,
                       steps: int = 2000) -> dict[str, float]:
    """Input properties of the first ``steps`` generated steps.

    They come from the generator alone, not from the server, so a later
    change to the service cannot make a cold workload look warm: the share
    of steps whose whole action prefix (constants included) repeats an
    earlier one, and how many distinct prefixes there are, an upper bound
    on the distinct patterns the result cache has to hold.
    """
    seen: set[str] = set()
    repeated = count = 0
    for _, script in workload.users(seed):
        for depth in range(1, len(script) + 1):
            key = json.dumps(script[:depth], sort_keys=True)
            repeated += key in seen
            seen.add(key)
            count += 1
            if count == steps:
                break
        if count == steps:
            break
    return {
        "traffic.repeated_prefix_share": repeated / count,
        "traffic.distinct_prefixes": len(seen),
        "traffic.distinct_prefixes_per_cache_entry":
            len(seen) / RESULT_CACHE_ENTRIES,
    }
