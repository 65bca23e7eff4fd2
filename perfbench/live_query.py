"""Workload ``live-query``: one closed-loop caller drives
``LiveCoordinator.query`` over a live TCP cluster that grows.

The schedule has the paper's phased shape (normal → intensive →
cooldown, rates 50/250/50 queries per step, step counts 1:2:3), one
sliding-window slice per step.  The cluster starts with one small
server; overflows grow it by live GBA splits onto servers from a pool
the host booted during set-up.  A miss computes a ~1 KiB payload from
the key; eviction deletes keys over the wire at each slice end.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from dataclasses import dataclass

import numpy as np

from common import Phase, end_to_end, median, vm_hwm_mb, wall_clock_layers
from live import RING, boot, import_live, live_layers, passes, server_counters
from oracles import WindowCacheModel


@dataclass(frozen=True)
class Config:
    keyspace: int      #: distinct keys, drawn from the whole ring
    unit_steps: int    #: normal phase steps; intensive 2x, cooldown 3x
    capacity: int      #: bytes per server
    pool: int          #: spare servers booted for growth
    window: int = 40   #: m, slices in the window
    alpha: float = 0.95
    threshold: float = 0.99 ** 39


#: queries per wall second on the reference host, used to size a run
#: from ``--seconds`` (a run's work is fixed, so every run of the same
#: length issues the same operations)
NOMINAL_QPS = 2500
RATES = (50, 250, 50)


def config(seconds: int, size: str) -> Config:
    if size == "smoke":
        return Config(keyspace=256, unit_steps=3, capacity=48 * 1024, pool=12,
                      window=4)
    unit = max(1, round(seconds * NOMINAL_QPS / (RATES[0] + 2 * RATES[1]
                                                 + 3 * RATES[2])))
    return Config(keyspace=3072, unit_steps=unit, capacity=320 * 1024, pool=24)


def payload(key: int) -> bytes:
    """The derived result a miss computes: 1 KiB determined by ``key``."""
    return hashlib.blake2b(key.to_bytes(8, "big"), digest_size=64).digest() * 16


def make_plan(seed: int, cfg: Config) -> list[list[int]]:
    """Per-step query keys: uniform picks over ``keyspace`` ring keys."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(RING, size=cfg.keyspace, replace=False)
    u = cfg.unit_steps
    rates = [RATES[0]] * u + [RATES[1]] * (2 * u) + [RATES[2]] * (3 * u)
    return [keys[rng.integers(0, cfg.keyspace, size=r)].tolist() for r in rates]


class _Pool:
    """Hands out pre-booted servers to the coordinator's growth path."""

    class Server:
        def __init__(self, address) -> None:
            self.address = address

        def stop(self) -> None:
            """The host stops every server at teardown."""

    def __init__(self, addresses) -> None:
        self.free = list(addresses)

    def spawn(self) -> "_Pool.Server":
        if not self.free:
            raise RuntimeError("growth pool exhausted")
        return self.Server(self.free.pop(0))


def one_pass(cfg: Config, plan, expected: dict, rec=None,
             setup_reps: int = 1) -> dict:
    """Set up (``setup_reps`` times, keeping the last), run the plan,
    check it, tear down."""
    from repro.core.config import EvictionConfig
    from repro.live.client import LiveClusterClient
    from repro.live.coordinator import LiveCoordinator

    setup_s, boots = [], []
    for rep in range(setup_reps):
        t0 = time.perf_counter()
        host, boot_s = boot(1 + cfg.pool, cfg.capacity, trace=rec is not None)
        try:
            cluster = LiveClusterClient([host.addresses[0]], ring_range=RING)
        except BaseException:
            host.close()
            raise
        coord = LiveCoordinator(
            cluster, compute=payload, spawn_server=_Pool(host.addresses[1:]).spawn,
            eviction=EvictionConfig(window_slices=cfg.window, alpha=cfg.alpha,
                                    threshold=cfg.threshold))
        setup_s.append(time.perf_counter() - t0)
        boots.append(boot_s)
        if rep < setup_reps - 1:
            cluster.close()
            host.close()

    latencies: list[float] = []
    wrong = 0
    try:
        if rec is not None:
            rec.reset()
            host.reset_spans()
        with Phase(peer_pid=host.pid) as phase:
            for step in plan:
                for key in step:
                    t0 = time.perf_counter()
                    value = coord.query(key)
                    latencies.append(time.perf_counter() - t0)
                    if value != expected[key]:
                        wrong += 1
                coord.end_slice()
                if rec is not None:
                    rec.fold()
        counters = server_counters(cluster)
        rss = vm_hwm_mb() + vm_hwm_mb(host.pid)
        retries = cluster.total_retries + cluster.batch_shard_failures
    finally:
        cluster.close()
        report = host.close()
    return {"phase": phase, "latencies": latencies, "wrong": wrong,
            "stats": coord.stats, "counters": counters, "rss": rss,
            "retries": retries, "report": report, "setup_s": setup_s,
            "boot_s": median(boots)}


def check(cfg: Config, plan, out: dict) -> list[str]:
    model = WindowCacheModel(cfg.window, cfg.alpha, cfg.threshold)
    for step in plan:
        for key in step:
            model.query(key)
        model.end_slice()
    stats, counters = out["stats"], out["counters"]
    problems = []
    if out["wrong"]:
        problems.append(f"{out['wrong']} queries returned a wrong payload")
    if stats.hits != model.hits:
        problems.append(f"{stats.hits} hits, window model {model.hits}")
    if counters["records"] != len(model.resident):
        problems.append(f"{counters['records']} records resident, "
                        f"window model {len(model.resident)}")
    if stats.evicted != model.evicted:
        problems.append(f"{stats.evicted} evicted, window model {model.evicted}")
    return problems


def failures(stats) -> int:
    """Queries that left the fast path (0 on a healthy cluster)."""
    return (stats.degraded_queries + stats.overloaded + stats.deadline_misses
            + stats.breaker_fastfails + stats.dropped_writes)


def run(seed: int, seconds: int, trace: bool, size: str, log) -> dict:
    import_s = import_live()
    cfg = config(seconds, size)
    plan = make_plan(seed, cfg)
    queries = sum(len(step) for step in plan)
    expected = {k: payload(k) for k in {k for step in plan for k in step}}

    out, base, rec = passes(
        functools.partial(one_pass, cfg, plan, expected), trace,
        lambda r: r.wrap(sys.modules[__name__], "payload", "live.compute"))
    phase, stats = out["phase"], out["stats"]
    problems = check(cfg, plan, out)
    log(f"live-query: {queries} queries in {phase.wall_s:.2f} s, "
        f"hit rate {stats.hit_rate:.3f}, {stats.grown_servers} growths, "
        f"{stats.migrated_records} migrated, {stats.evicted} evicted, "
        f"host steal {phase.steal_s:.2f} s")
    result = {"correct": not problems, "attempted": queries,
              "failed": failures(stats), "problems": problems}
    if not trace:
        result["metrics"] = end_to_end(queries, phase, import_s + median(out["setup_s"]),
                                       out["rss"])
        return result
    metrics = live_layers(rec, ops=queries, base=base["phase"], traced=phase,
                          counters=out["counters"], retries=out["retries"],
                          host_report=out["report"], boot_s=out["boot_s"],
                          fill_s=0.0)
    metrics.update({
        "live.coordinator.self_us": (rec.self_per_call_us("live.coordinator"), "us/query"),
        "live.coordinator.hit_rate": (stats.hit_rate, "ratio"),
        "live.compute_us": (rec.self_per_call_us("live.compute"), "us/call"),
        "live.cluster.get_self_us": (rec.self_per_call_us("live.cluster.get"), "us/call"),
        "live.cluster.put_self_us": (rec.self_per_call_us("live.cluster.put"), "us/call"),
        "live.cluster.delete_self_us": (rec.self_per_call_us("live.cluster.delete"),
                                        "us/call"),
        "live.cluster.add_server_ms": (
            rec.total_us("live.cluster.add_server")
            / max(rec.calls("live.cluster.add_server"), 1) / 1e3, "ms/call"),
        "live.cluster.grows": (stats.grown_servers, "count"),
        "live.cluster.migrated_records": (stats.migrated_records, "count"),
        "live.window.end_slice_ms": (
            rec.total_us("live.window.end_slice")
            / max(rec.calls("live.window.end_slice"), 1) / 1e3, "ms/call"),
        "live.window.evicted": (stats.evicted, "count"),
    })
    metrics.update(wall_clock_layers(queries, base["phase"], base["latencies"]))
    result["metrics"] = metrics
    result["spans"] = {"load": rec.table(), "host": out["report"].get("spans", {})}
    return result
