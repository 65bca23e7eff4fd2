"""Workload ``sim-paper``: regenerate the experiments behind the paper
scorecard and score them.

One round runs ``run_fig3``, ``run_fig4``, ``run_fig5`` and ``run_fig7``
at the scales ``validate_all`` uses, exactly as the program's own
validation does, and scores the results with ``build_targets()``.  A
probe around ``run_trace`` (the harness call every figure replays its
trace through) notes each replay's queries, hits, misses, cost and the
wall time of every workload step, which gives the throughput, the
per-step latency and the inputs of the oracles.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

from common import SRC, Phase, end_to_end, median, vm_hwm_mb, wall_clock_layers
from oracles import lru_static_hits

#: wall seconds one round takes on the reference host; a run does
#: ``max(1, round(seconds / ROUND_S))`` rounds
ROUND_S = 23.0

SCALES = {"full": ("scaled", "full"), "smoke": ("mini", "mini")}

IMPORTS = ("import repro.experiments.validate, repro.experiments.fig3, "
           "repro.experiments.fig4, repro.experiments.fig5, "
           "repro.experiments.fig7")


def setup_seconds(reps: int = 3) -> float:
    """Median wall time of a fresh interpreter importing the simulator
    (the only set-up this workload has)."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); {IMPORTS}"
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], check=True)
        times.append(time.perf_counter() - t0)
    return median(times)


class ReplayProbe:
    """Wraps ``run_trace`` in the figure modules and records each replay."""

    def __init__(self, recorder=None) -> None:
        import repro.experiments.fig3 as fig3
        import repro.experiments.fig5 as fig5
        import repro.experiments.fig7 as fig7

        self.modules = (fig3, fig5, fig7)
        self.recorder = recorder
        self.replays: list[dict] = []
        self._original = fig3.run_trace

    def __enter__(self) -> "ReplayProbe":
        for mod in self.modules:
            mod.run_trace = self._probe
        return self

    def __exit__(self, *exc) -> None:
        for mod in self.modules:
            mod.run_trace = self._original

    def _probe(self, bundle, trace, *args, **kwargs):
        coordinator = bundle.coordinator
        real_end_step = coordinator.end_step
        steps: list[float] = []
        last = [time.perf_counter()]

        def end_step(**kw):
            real_end_step(**kw)
            now = time.perf_counter()
            steps.append(now - last[0])
            last[0] = now

        coordinator.end_step = end_step
        try:
            metrics = self._original(bundle, trace, *args, **kwargs)
        finally:
            del coordinator.end_step
        if self.recorder is not None:
            self.recorder.fold()
        cache = bundle.cache
        gba = getattr(cache, "gba", None)
        infinite = not bundle.params.eviction.enabled
        self.replays.append({
            "name": bundle.params.name,
            "static_n": None if gba is not None else cache.node_count,
            "infinite_window": infinite,
            # the oracles replay only the infinite-window (Fig. 3) traces
            "keys": trace.keys.copy() if infinite else None,
            "per_node": (bundle.params.node_capacity_bytes
                         // bundle.params.record_footprint_bytes),
            "queries": trace.total_queries,
            "hits": int(metrics.series("hits").sum()),
            "misses": int(metrics.series("misses").sum()),
            "cost_usd": bundle.cloud.cost_so_far(),
            "splits": len(gba.split_events) if gba is not None else 0,
            "moved": (sum(e.records_moved for e in gba.split_events)
                      if gba is not None else 0),
            "step_s": steps,
        })
        return metrics


def play_round(seed: int, size: str, recorder=None) -> tuple[dict, list[dict]]:
    """One scorecard round; returns the figure results and the replays."""
    from repro.experiments.fig3 import run_fig3
    from repro.experiments.fig4 import run_fig4
    from repro.experiments.fig5 import run_fig5
    from repro.experiments.fig7 import run_fig7

    scale34, scale567 = SCALES[size]
    with ReplayProbe(recorder) as probe:
        results = {
            "fig3": run_fig3(scale34, seed),
            "fig4": run_fig4(scale34, seed),
            "fig5": run_fig5(scale567, seed),
            "fig7": run_fig7(scale567, seed),
        }
    return results, probe.replays


def score(results: dict) -> list[tuple[str, bool, str]]:
    """The paper scorecard over one round's results."""
    from repro.experiments.validate import build_targets

    rows = []
    for target in build_targets():
        try:
            ok, measured = target.check(results)
        except Exception as exc:  # noqa: BLE001 - a crashed check is a failed claim
            ok, measured = False, f"error: {exc}"
        rows.append((f"{target.figure} {target.claim}", ok, measured))
    return rows


def check(results: dict, replays: list[dict], size: str) -> list[str]:
    """Oracle failures for one round (empty when every check holds)."""
    problems = []
    for r in replays:
        if r["infinite_window"] and r["static_n"] is None:
            distinct = int(np.unique(r["keys"]).size)
            if r["misses"] != distinct:
                problems.append(f"{r['name']}: {r['misses']} misses, "
                                f"trace has {distinct} distinct keys")
        if r["static_n"] is not None:
            model = lru_static_hits(r["keys"], r["static_n"], r["per_node"])
            if r["hits"] != model:
                problems.append(f"{r['name']} static-{r['static_n']}: "
                                f"{r['hits']} hits, LRU model {model}")
    if size == "full":
        failed = [f"{claim} ({measured})" for claim, ok, measured in score(results)
                  if not ok]
        problems.extend(f"scorecard: {f}" for f in failed)
    return problems


def headline(results: dict, replays: list[dict]) -> tuple[float, float]:
    """Fig. 3 GBA speedup and the bill of the Fig. 3 GBA and Fig. 5 runs."""
    fig3 = results["fig3"]
    fig5_cost = sum(r["cost_usd"] for r in replays if r["name"].startswith("fig5-"))
    return fig3.final_speedup["gba"], fig3.cost_usd["gba"] + fig5_cost


def run(seed: int, seconds: int, trace: bool, size: str, log) -> dict:
    rounds = max(1, round(seconds / ROUND_S))
    setup_s = setup_seconds() if not trace else 0.0
    recorder = None
    if trace:
        base, base_replays, _ = timed_rounds(seed, size, rounds)
        from spans import SpanRecorder
        recorder = SpanRecorder()
        wrap_simulator(recorder)
    try:
        phase, replays, results = timed_rounds(seed, size, rounds, recorder)
    finally:
        if recorder is not None:
            recorder.unwrap_all()
    last_round = replays[-(len(replays) // rounds):]
    problems = check(results, last_round, size)
    queries = sum(r["queries"] for r in replays)
    log(f"sim-paper: {rounds} round(s), {len(replays)} replays, {queries} "
        f"queries in {phase.wall_s:.2f} s, host steal {phase.steal_s:.2f} s")
    result = {"correct": not problems, "attempted": queries, "failed": 0,
              "problems": problems}
    if not trace:
        result["metrics"] = end_to_end(queries, phase, setup_s, vm_hwm_mb())
        return result
    speedup, cost = headline(results, last_round)
    metrics = sim_layers(recorder, replays, phase, base.wall_s, speedup, cost)
    metrics.update(wall_clock_layers(
        queries, base, [s for r in base_replays for s in r["step_s"]]))
    result["metrics"] = metrics
    result["spans"] = recorder.table()
    return result


def timed_rounds(seed: int, size: str, rounds: int, recorder=None):
    """Play ``rounds`` scorecard rounds inside one timed phase."""
    replays: list[dict] = []
    with Phase() as phase:
        for _ in range(rounds):
            results, round_replays = play_round(seed, size, recorder)
            replays.extend(round_replays)
    return phase, replays, results


def wrap_simulator(rec) -> None:
    """Install the simulator spans (see README, per-layer table)."""
    import repro.experiments.fig3 as fig3
    import repro.experiments.fig5 as fig5
    import repro.experiments.fig7 as fig7
    from repro.btree.bplustree import BPlusTree
    from repro.core.contraction import Contractor
    from repro.core.coordinator import Coordinator
    from repro.core.elastic import ElasticCooperativeCache
    from repro.core.gba import GreedyBucketAllocator
    from repro.core.metrics import MetricsRecorder
    from repro.core.ring import ConsistentHashRing
    from repro.core.sliding_window import SlidingWindowEvictor
    from repro.core.static_cache import StaticCooperativeCache
    from repro.services.base import Service

    def on_window(r, batch):
        r.count("window.candidates", batch.candidates)
        r.count("window.evicted", len(batch.evicted_keys))

    def on_merge(r, event):
        if event is not None:
            r.count("contraction.merges")

    rec.wrap(Coordinator, "query", "sim.coordinator")
    rec.wrap(ConsistentHashRing, "bucket_for_hkey", "sim.ring.bucket")
    rec.wrap(ConsistentHashRing, "node_for_hkey", "sim.ring.node")
    for op in ("search", "insert", "delete"):
        rec.wrap(BPlusTree, op, f"sim.btree.{op}")
    rec.wrap(GreedyBucketAllocator, "insert", "sim.gba.insert")
    rec.wrap(SlidingWindowEvictor, "record", "sim.window.record")
    rec.wrap(SlidingWindowEvictor, "end_slice", "sim.window.end_slice", on_window)
    rec.wrap(ElasticCooperativeCache, "evict_keys", "sim.evict")
    rec.wrap(Contractor, "on_slice_expired", "sim.contraction", on_merge)
    rec.wrap(StaticCooperativeCache, "get", "sim.static.get")
    rec.wrap(StaticCooperativeCache, "put", "sim.static.put")
    rec.wrap(MetricsRecorder, "record_query", "sim.metrics.record_query")
    rec.wrap(MetricsRecorder, "end_step", "sim.metrics.end_step")
    rec.wrap(Service, "execute", "sim.service")
    for mod in (fig3, fig5, fig7):
        rec.wrap(mod, "make_trace", "sim.workload.make_trace")


def sim_layers(rec, replays, phase, base_wall, speedup, cost) -> dict:
    queries = rec.calls("sim.coordinator")
    candidates = rec.counts.get("window.candidates", 0)
    btree = ("sim.btree.search", "sim.btree.insert", "sim.btree.delete")
    return {
        "sim.coordinator.self_us": (rec.self_per_call_us("sim.coordinator"), "us/query"),
        "sim.ring.lookups_per_query": (rec.calls("sim.ring.bucket") / queries, "count"),
        "sim.ring.self_us": (rec.self_per_call_us("sim.ring.bucket", "sim.ring.node",
                                                  per="sim.ring.bucket"), "us/call"),
        "sim.btree.search_self_us": (rec.self_per_call_us("sim.btree.search"), "us/call"),
        "sim.btree.insert_self_us": (rec.self_per_call_us("sim.btree.insert"), "us/call"),
        "sim.btree.delete_self_us": (rec.self_per_call_us("sim.btree.delete"), "us/call"),
        "sim.btree.calls_per_query": (rec.calls(*btree) / queries, "count"),
        "sim.gba.insert_self_us": (rec.self_per_call_us("sim.gba.insert"), "us/call"),
        "sim.gba.splits": (sum(r["splits"] for r in replays), "count"),
        "sim.gba.migrated_records": (sum(r["moved"] for r in replays), "count"),
        "sim.window.record_self_us": (rec.self_per_call_us("sim.window.record"), "us/call"),
        "sim.window.end_slice_self_ms": (
            rec.self_per_call_us("sim.window.end_slice") / 1e3, "ms/call"),
        "sim.window.evicted_per_candidate": (
            rec.counts.get("window.evicted", 0) / candidates if candidates else 0.0,
            "ratio"),
        "sim.evict.self_us": (rec.self_per_call_us("sim.evict"), "us/call"),
        "sim.contraction.self_us": (rec.self_per_call_us("sim.contraction"), "us/call"),
        "sim.contraction.merges": (rec.counts.get("contraction.merges", 0), "count"),
        "sim.static.self_us": (rec.self_per_call_us("sim.static.get", "sim.static.put",
                                                    per="sim.static.get"), "us/query"),
        "sim.metrics.self_us": (rec.self_per_call_us(
            "sim.metrics.record_query", "sim.metrics.end_step",
            per="sim.metrics.record_query"), "us/query"),
        "sim.service.self_us": (rec.self_per_call_us("sim.service"), "us/call"),
        "sim.workload.trace_s": (rec.total_us("sim.workload.make_trace") / 1e6, "s"),
        "sim.speedup": (speedup, "x"),
        "sim.cost_usd": (cost, "USD"),
        "host.steal_s": (phase.steal_s, "s"),
        "trace.overhead_pct": ((phase.wall_s / base_wall - 1.0) * 100.0, "%"),
    }
