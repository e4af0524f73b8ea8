"""Service benchmark: per-action latency over HTTP, closed loop.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The service runs in its own process, booted
by ``examples/serve.py`` (through ``perfbench/server.py``) with the default
``planned`` engine; this process drives it over one loopback keep-alive
HTTP connection (see ``loadgen``). One step is one mutating action plus
the page read that renders it.

The benchmark and the server share one CPU (see ``main``).

``--trace 0`` boots the server five times (``setup_s`` is the median
time from spawn to the first healthy ``/healthz``), drives the last one
for the workload's warm-up steps (peak RSS is read after them) and then
for ``--seconds`` of measurement, and reports the end-to-end metrics.
``--trace 1`` measures once untraced and once with every layer in
``spans.TARGETS`` wrapped, and reports per-layer metrics, layer shares of
the client-observed time, and the tracing overhead.

Either way, outside the timed window, the final table and history of a
seeded sample of sessions is compared with a replay of the same actions
on an in-process ``naive``-engine session; any mismatch prints
``"correct": false`` and exits 1. The last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from loadgen import Client, HttpConnection, Record
from spans import (END, REQUEST, ROOT, START, TARGETS, layer_totals,
                   roots_by_request)
from workloads import CONNECTIONS, WORKLOADS, Workload, traffic_properties

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = REPO / ".perfbench_work"

SETUPS = 5  # server boots per untraced run; setup_s is their median
# steps_per_s is the median step rate over sub-windows of this length, so
# a passing stall of the host moves one sub-window, not the whole figure.
RATE_WINDOW_S = 2.0
ROW_LIMIT = 50  # --row-limit of the served sessions and of the oracle
BOOT_TIMEOUT_S = 60.0

END_TO_END = (
    ("action_p50_ms", "ms"), ("action_p95_ms", "ms"), ("read_p50_ms", "ms"),
    ("steps_per_s", "1/s"), ("setup_s", "s"), ("server_peak_rss_mb", "MB"),
    ("response_bytes_per_step", "bytes"),
)
# Spans whose self time is reported as a share of client-observed time.
LAYERS = tuple(target[3] for target in TARGETS)
PER_LAYER_UNITS = {
    "ms_per_request": "ms", "ms_per_step": "ms", "ms_per_call": "ms",
    "calls_per_step": "count", "bytes_per_action": "bytes",
    "rows_in_per_call": "rows", "overhead_ms": "ms", "overhead_per_s": "1/s",
}


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One service process; ``setup_s`` runs from spawn to healthy."""

    def __init__(self, workload: Workload, work: Path, index: int,
                 trace_out: Path | None = None) -> None:
        journal_dir = None
        if workload.journal:
            journal_dir = tempfile.mkdtemp(prefix="journals-", dir=work)
        command = [sys.executable, "-u", str(HERE / "server.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += workload.server_args(journal_dir)
        command += ["--row-limit", str(ROW_LIMIT)]
        self.log_path = work / f"server-{index}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=REPO, stdout=self._log,
                                     stderr=subprocess.STDOUT)
        try:
            self.host, self.port = self._await_address(started)
            self._await_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_address(self, started: float) -> tuple[str, int]:
        marker = "serving ETable navigation API at http://"
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                host, _, port = address.partition(":")
                return host, int(port)
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during boot:\n{text}")
            time.sleep(0.002)
        raise RuntimeError("server did not boot in time")

    def _await_healthy(self, started: float) -> None:
        http = HttpConnection(self.host, self.port, timeout=5.0)
        try:
            while time.perf_counter() - started < BOOT_TIMEOUT_S:
                try:
                    status, body, _ = http.request("GET", "/healthz")
                    if status == 200 and json.loads(body)["ok"]:
                        return
                except (OSError, ValueError):
                    pass
                time.sleep(0.002)
        finally:
            http.close()
        raise RuntimeError("server never became healthy")

    def get(self, path: str) -> tuple[int, dict]:
        http = HttpConnection(self.host, self.port)
        try:
            status, body, _ = http.request("GET", path)
            return status, json.loads(body)
        finally:
            http.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain and journal flush), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


# ----------------------------------------------------------------------
# One measured phase
# ----------------------------------------------------------------------
class Phase:
    """Warm-up steps, then a timed window of closed-loop traffic."""

    def __init__(self, server: Server, workload: Workload, seed: int,
                 seconds: float) -> None:
        self.seconds = seconds
        self.client = client = Client(workload, seed, server.host,
                                      server.port)
        # As timeit does, keep the client's own collector from pausing
        # inside a timed request; the server's collector runs as usual.
        gc.disable()
        try:
            started = time.perf_counter()
            for _ in range(workload.warmup_steps):
                client.step()
            self.warmup_s = time.perf_counter() - started
            self.rss_mb = server.peak_rss_mb()
            self.stats_before = server.get("/v1/stats")[1]["result"]
            self.t0 = time.perf_counter()
            self.t1 = self.t0 + seconds
            while time.perf_counter() < self.t1:
                client.step()
            self.stats_after = server.get("/v1/stats")[1]["result"]
        finally:
            gc.enable()
            client.close()

    def window_steps(self) -> list[tuple[Record, Record]]:
        """Answered steps whose action began and read ended in the window."""
        steps = []
        for action, read in self.client.steps:
            first, second = (self.client.records[action],
                             self.client.records[read])
            if (first.ok and second.ok and first.start >= self.t0
                    and second.end <= self.t1):
                steps.append((first, second))
        return steps

    def counts(self) -> tuple[int, int]:
        """(attempted, failed) requests over warm-up and window."""
        records = self.client.records
        return len(records), sum(not record.ok for record in records)

    def end_to_end(self) -> dict[str, float]:
        """End-to-end metrics; also sets ``samples``, ``tail``, ``tail_ms``
        and ``failed_ratio`` (failed over attempted requests in the
        window)."""
        steps = self.window_steps()
        if len(steps) < 20:
            raise RuntimeError(f"only {len(steps)} steps in the window")
        actions = sorted(a.end - a.start for a, _ in steps)
        reads = [r.end - r.start for _, r in steps]
        window = [record for record in self.client.records
                  if self.t0 <= record.start < self.t1]
        self.samples = len(actions)
        self.tail = tail_percentile(len(actions))
        self.tail_ms = nearest_rank(actions, self.tail) * 1000
        self.failed_ratio = sum(not record.ok for record in window) / len(window)
        return {
            "action_p50_ms": statistics.median(actions) * 1000,
            "action_p95_ms": nearest_rank(actions, 95) * 1000,
            "read_p50_ms": statistics.median(reads) * 1000,
            "steps_per_s": self.step_rate([r.end for _, r in steps]),
            "server_peak_rss_mb": self.rss_mb,
            "response_bytes_per_step":
                sum(a.wire + r.wire for a, r in steps) / len(steps),
        }

    def step_rate(self, ends: list[float]) -> float:
        """Median over RATE_WINDOW_S sub-windows of steps completed per
        second, each sub-window's rate taken between its first and last
        completion."""
        buckets: dict[int, list[float]] = {}
        for end in ends:
            buckets.setdefault(int((end - self.t0) // RATE_WINDOW_S),
                               []).append(end)
        rates = [(len(times) - 1) / (times[-1] - times[0])
                 for times in buckets.values() if len(times) > 2]
        return statistics.median(rates)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile (at most 99) with >= 10 samples beyond."""
    return max(50, min(99, math.floor(100 * (1 - 10 / samples))))


def nearest_rank(ordered: list[float], percentile: int) -> float:
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def fetch_finals(server: Server, phase: Phase) -> dict[str, object]:
    finals = {}
    for session in sorted(phase.client.applied):
        status, body = server.get(
            f"/v1/sessions/{session}/etable?include_history=1")
        finals[session] = body.get("result") if status == 200 else None
    return finals


def check_outputs(workload: Workload, phase: Phase,
                  finals: dict[str, object]) -> list[str]:
    """Replay each sampled session on the naive engine; list mismatches."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "examples")]
    import serve
    from repro.core.session import EtableSession
    from repro.service import protocol

    tgdb = serve.build_tgdb("academic", workload.papers)
    mismatches = []
    for session_id, actions in sorted(phase.client.applied.items()):
        session = EtableSession(tgdb.schema, tgdb.graph,
                                row_limit=ROW_LIMIT, engine="naive")
        try:
            for action, params in actions:
                protocol.apply_action(session, action,
                                      json.loads(json.dumps(params)))
            expected = json.loads(json.dumps(protocol.apply_action(
                session, "etable", {"include_history": True}),
                default=str))
        except Exception as error:  # noqa: BLE001 - reported below
            expected = f"oracle raised {error!r}"
        if finals.get(session_id) != expected:
            mismatches.append(session_id)
    if not finals:
        mismatches.append("no sampled session was checked")
    return mismatches


# ----------------------------------------------------------------------
# Per-layer metrics from the traced run
# ----------------------------------------------------------------------
def per_layer(phase: Phase, spans: list, untraced: dict[str, float],
              traced: dict[str, float]) -> dict[str, float]:
    roots = roots_by_request(spans)
    steps = phase.window_steps()
    requests, client_s, frontend_s = set(), 0.0, []
    for pair in steps:
        for record in pair:
            root = roots.get((record.session, record.seq))
            if root is None:
                continue
            requests.add(root[REQUEST])
            latency = record.end - record.start
            client_s += latency
            frontend_s.append(latency - (root[END] - root[START]))
    if not requests:
        raise RuntimeError("no traced request matched a client request")
    count = len(steps)
    totals = layer_totals(s for s in spans if s[REQUEST] in requests)

    def layer(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    def per_call(name: str) -> float:
        calls = layer(name, "calls")
        return layer(name, "total_s") / calls * 1000 if calls else 0.0

    journal_writes = (layer("service.journal.record_action", "calls")
                      + layer("service.journal.checkpoint", "calls"))
    transforms = layer("core.transform", "calls")
    metrics = {
        "frontend.ms_per_request":
            statistics.fmean(frontend_s) * 1000 if frontend_s else 0.0,
        f"{ROOT}.self_ms_per_step": layer(ROOT, "self_s") / count * 1000,
        "server.busy_ms_per_step": layer(ROOT, "total_s") / count * 1000,
        "service.manager.resume_session.calls_per_step":
            layer("service.manager.resume_session", "calls") / count,
        "service.manager.resume_session.ms_per_call":
            per_call("service.manager.resume_session"),
        "service.journal.replay_records.ms_per_call":
            per_call("service.journal.replay_records"),
        "service.journal.record_action.ms_per_call":
            per_call("service.journal.record_action"),
        "service.journal.checkpoint.calls_per_step":
            layer("service.journal.checkpoint", "calls") / count,
        "service.journal.bytes_per_action": (
            (layer("service.journal.record_action", "value")
             + layer("service.journal.checkpoint", "value")) / journal_writes
            if journal_writes else 0.0),
        "service.protocol.etable_to_json.ms_per_call":
            per_call("service.protocol.etable_to_json"),
        "core.cache.match.ms_per_call": per_call("core.cache.match"),
        "core.cache.match.calls_per_step":
            layer("core.cache.match", "calls") / count,
        "core.planner.candidate_ids.ms_per_call":
            per_call("core.planner.candidate_ids"),
        "core.planner.candidate_ids.calls_per_step":
            layer("core.planner.candidate_ids", "calls") / count,
        "core.planner.build_plan.ms_per_call":
            per_call("core.planner.build_plan"),
        "core.cache.restore_reference_order.ms_per_call":
            per_call("core.cache.restore_reference_order"),
        "core.transform.ms_per_call": per_call("core.transform"),
        "core.transform.calls_per_step": transforms / count,
        "core.transform.rows_in_per_call": (
            layer("core.transform", "value") / transforms
            if transforms else 0.0),
    }
    metrics.update(cache_ratios(phase.stats_before, phase.stats_after))
    # Shares of the client-observed time of the window's requests: the
    # frontend plus the self time of every server layer adds up to 1.
    metrics["frontend.share"] = sum(frontend_s) / client_s
    for name in LAYERS:
        metrics[f"{name}.share"] = layer(name, "self_s") / client_s
        metrics[f"{name}.inclusive_share"] = layer(name, "total_s") / client_s
    for name in ("action_p50_ms", "read_p50_ms"):
        metrics[f"tracing.{name[:-3]}.overhead_ms"] = traced[name] - untraced[name]
    metrics["tracing.steps.overhead_per_s"] = (traced["steps_per_s"]
                                               - untraced["steps_per_s"])
    return metrics


def cache_ratios(before: dict, after: dict) -> dict[str, float]:
    """Result, plan and prefix hit ratios over the window (stats deltas)."""
    def delta(*path: str) -> float:
        low, high = before["cache"], after["cache"]
        for key in path:
            low, high = low[key], high[key]
        return high - low

    hits, misses = delta("hits"), delta("misses")
    plan_hits, plan_misses = (delta("plan_cache", "hits"),
                              delta("plan_cache", "misses"))
    return {
        "core.cache.result_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "core.cache.plan_hit_ratio": (plan_hits / (plan_hits + plan_misses)
                                      if plan_hits + plan_misses else 0.0),
        "core.cache.prefix_hit_ratio":
            delta("prefix_hits") / misses if misses else 0.0,
    }


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ratio"


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def configuration(workload: Workload, args: argparse.Namespace) -> dict:
    return {
        "usable_cores": args.usable_cores,
        "pinned_to_cpu": args.cpu,
        "python": platform.python_version(),
        "workload": workload.name,
        "papers": workload.papers,
        "frontend": workload.frontend,
        "engine": "planned",
        "max_sessions": workload.max_sessions,
        "journal": "per-run directory, OS flush (no fsync)"
                   if workload.journal else "off",
        "connections": CONNECTIONS,
        "active_users": workload.width,
        "warmup_steps": workload.warmup_steps,
        "seconds": args.seconds,
        "seed": args.seed,
    }


def measure(workload: Workload, work: Path, seed: int, seconds: float,
            boots: int, trace_out: Path | None = None):
    """Boot ``boots`` servers and drive the last one.

    Returns its phase, its end-to-end metrics (``setup_s`` is the median
    over the boots) and the final tables of the sampled sessions.
    """
    setups, server = [], None
    for index in range(boots):
        if server is not None:
            server.stop()
        server = Server(workload, work, index, trace_out)
        setups.append(server.setup_s)
    assert server is not None
    try:
        phase = Phase(server, workload, seed, seconds)
        metrics = phase.end_to_end()
        finals = fetch_finals(server, phase)
    finally:
        server.stop()
    metrics["setup_s"] = statistics.median(setups)
    return phase, metrics, finals


def print_end_to_end(label: str, metrics: dict, phase: Phase) -> None:
    print(f"{label}: {phase.samples} steps in {phase.seconds:g} s; "
          f"action p{phase.tail} (the highest percentile with 10 samples "
          f"beyond it) {phase.tail_ms:.4f} ms; "
          f"failed_ratio {phase.failed_ratio:.6f}; "
          f"warm-up {phase.warmup_s:.1f} s")
    for name, unit in END_TO_END:
        print(f"  {name:28s} {metrics[name]:12.4f} {unit}")


def run(args: argparse.Namespace, work: Path) -> tuple[dict, int]:
    workload = WORKLOADS[args.workload]
    print("config: " + json.dumps(configuration(workload, args)))
    properties = traffic_properties(workload, args.seed)
    print("traffic: " + json.dumps(properties))
    if not args.trace:
        phase, metrics, finals = measure(workload, work, args.seed,
                                         args.seconds, SETUPS)
        print_end_to_end("end-to-end", metrics, phase)
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in END_TO_END}
        phases = [phase]
    else:
        plain, untraced, _ = measure(workload, work, args.seed,
                                     args.seconds, 1)
        trace_out = work / "spans.json"
        phase, traced, finals = measure(workload, work, args.seed,
                                        args.seconds, 1, trace_out)
        dump = json.loads(trace_out.read_text())
        for missing in dump["missing"]:
            print(f"trace: {missing} not found; its metrics read 0")
        metrics = per_layer(phase, dump["spans"], untraced, traced)
        print_end_to_end("untraced", untraced, plain)
        print_end_to_end("traced", traced, phase)
        print("tracing overhead (traced - untraced): " + ", ".join(
            f"{name} {traced[name] - untraced[name]:+.4f} {unit}"
            for name, unit in END_TO_END))
        print("per-layer (traced window):")
        for name in sorted(metrics):
            print(f"  {name:52s} {metrics[name]:12.4f} "
                  f"{per_layer_unit(name)}")
        shares = sorted(((value, name[:-len(".share")])
                         for name, value in metrics.items()
                         if name.endswith(".share")), reverse=True)
        print("self-time shares of client-observed time: " + ", ".join(
            f"{name} {value:.3f}" for value, name in shares[:5]))
        result = {name: {"value": value, "unit": per_layer_unit(name)}
                  for name, value in sorted(metrics.items())}
        phases = [plain, phase]
    started = time.perf_counter()
    mismatches = check_outputs(workload, phase, finals)
    print(f"output check: {len(finals)} sampled sessions vs naive engine, "
          f"{len(mismatches)} mismatched {mismatches} "
          f"({time.perf_counter() - started:.1f} s)")
    attempted, failed = (sum(counts) for counts in zip(
        *(measured.counts() for measured in phases)))
    return {"correct": not mismatches, "attempted": attempted,
            "failed": failed, "metrics": result}, 1 if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "repro").is_dir() or not (
            REPO / "examples" / "serve.py").is_file():
        print(f"error: {REPO} holds no repro checkout (src/repro, "
              f"examples/serve.py); run from the repository root",
              file=sys.stderr)
        return 2
    # One CPU for this process and the server it spawns: every request
    # hands control between them (and between the server's loop and
    # worker threads), and a hand-off to a CPU that went idle waits for
    # the hypervisor to wake it, which on a shared host varies from run
    # to run by more than the work itself.
    # A SIGTERM unwinds through the ``finally`` blocks that stop the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    usable = sorted(os.sched_getaffinity(0))
    args.usable_cores, args.cpu = len(usable), usable[-1]
    os.sched_setaffinity(0, {args.cpu})
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    worst = 0
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            result, code = run(argparse.Namespace(**{**vars(args),
                                                     "workload": name}), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps(result))
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
