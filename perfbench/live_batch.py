"""Workload ``live-batch``: one closed-loop caller drives
``LiveClusterClient.get_many``/``put_many`` over two servers with buddy
replication.

About four reads per write, batches of 32 to 256 distinct keys drawn
from a keyspace spread over the whole ring and prefilled during set-up.
Every value carries its key and a version; the caller remembers the
last version it wrote, so every read can be checked, and after the run
each key's buddy copy is read back from the replica namespace.
"""

from __future__ import annotations

import functools
import struct
import time
from dataclasses import dataclass

import numpy as np

from common import Phase, end_to_end, median, vm_hwm_mb, wall_clock_layers
from live import RING, boot, import_live, live_layers, passes, server_counters


@dataclass(frozen=True)
class Config:
    keyspace: int
    batches: int
    min_batch: int = 32
    max_batch: int = 256
    read_share: float = 0.8
    value_bytes: int = 512
    servers: int = 2


#: batch calls per wall second on the reference host, used to size a run
#: from ``--seconds`` (a run's work is fixed, so every run of the same
#: length issues the same operations)
NOMINAL_BATCHES_PER_S = 180
FILL_CHUNK = 1024


def config(seconds: int, size: str) -> Config:
    if size == "smoke":
        return Config(keyspace=2048, batches=40)
    return Config(keyspace=16384, batches=max(1, seconds * NOMINAL_BATCHES_PER_S))


def value(key: int, version: int, size: int) -> bytes:
    return struct.pack(">QQ", key, version).ljust(size, b".")


def make_plan(seed: int, cfg: Config):
    """Keys, then per batch ``(is_read, keys)``."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(RING, size=cfg.keyspace, replace=False).tolist()
    batches = []
    for _ in range(cfg.batches):
        n = int(rng.integers(cfg.min_batch, cfg.max_batch + 1))
        picked = rng.choice(cfg.keyspace, size=n, replace=False)
        batches.append((bool(rng.random() < cfg.read_share),
                        [keys[i] for i in picked.tolist()]))
    return keys, batches


def one_pass(cfg: Config, keys, batches, rec=None, setup_reps: int = 1) -> dict:
    from repro.live.client import LiveClusterClient

    setup_s, boots, fills = [], [], []
    for rep in range(setup_reps):
        t0 = time.perf_counter()
        host, boot_s = boot(cfg.servers, 1 << 28, trace=rec is not None)
        try:
            cluster = LiveClusterClient(host.addresses, ring_range=RING,
                                        replication=True)
            t_fill = time.perf_counter()
            current = {k: value(k, 0, cfg.value_bytes) for k in keys}
            for i in range(0, len(keys), FILL_CHUNK):
                chunk = keys[i:i + FILL_CHUNK]
                cluster.put_many([(k, current[k]) for k in chunk], on_error="raise")
            fill_s = time.perf_counter() - t_fill
        except BaseException:
            host.close()
            raise
        setup_s.append(time.perf_counter() - t0)
        boots.append(boot_s)
        fills.append(fill_s)
        if rep < setup_reps - 1:
            cluster.close()
            host.close()

    latencies: list[float] = []
    failed = wrong = 0
    version = 0
    try:
        if rec is not None:
            rec.reset()
            host.reset_spans()
        with Phase(peer_pid=host.pid) as phase:
            for is_read, batch in batches:
                if is_read:
                    t0 = time.perf_counter()
                    found = cluster.get_many(batch)
                    latencies.append(time.perf_counter() - t0)
                    for k in batch:
                        v = found.get(k)
                        if v is None:
                            failed += 1
                        elif v != current[k]:
                            wrong += 1
                else:
                    version += 1
                    items = [(k, value(k, version, cfg.value_bytes)) for k in batch]
                    t0 = time.perf_counter()
                    stored = cluster.put_many(items)
                    latencies.append(time.perf_counter() - t0)
                    failed += len(items) - stored
                    current.update(items)
                if rec is not None:
                    rec.fold()
        counters = server_counters(cluster)
        rss = vm_hwm_mb() + vm_hwm_mb(host.pid)
        retries = cluster.total_retries + cluster.batch_shard_failures
        stale_buddies = check_buddies(cluster, current)
    finally:
        cluster.close()
        report = host.close()
    return {"phase": phase, "latencies": latencies, "failed": failed,
            "wrong": wrong, "stale_buddies": stale_buddies, "counters": counters,
            "rss": rss, "retries": retries, "report": report, "setup_s": setup_s,
            "boot_s": median(boots), "fill_s": median(fills)}


def check_buddies(cluster, current: dict) -> int:
    """Keys whose buddy copy does not hold the last written value."""
    by_buddy: dict = {}
    for k in current:
        by_buddy.setdefault(cluster.replica.buddy_address(k), []).append(k)
    stale = 0
    for addr, group in by_buddy.items():
        found = cluster.clients[addr].multi_get(group, replica=True)
        stale += sum(1 for k in group if found.get(k) != current[k])
    return stale


def check(cfg: Config, out: dict) -> list[str]:
    problems = []
    if out["wrong"]:
        problems.append(f"{out['wrong']} reads returned a value other than "
                        "the last one written")
    if out["stale_buddies"]:
        problems.append(f"{out['stale_buddies']} buddy copies are stale or missing")
    per_server = out["counters"]["per_server"]
    if len(per_server) != cfg.servers or min(per_server) < cfg.keyspace // (
            2 * cfg.servers):
        problems.append(f"records per server {per_server} are not spread")
    return problems


def run(seed: int, seconds: int, trace: bool, size: str, log) -> dict:
    import_s = import_live()
    cfg = config(seconds, size)
    keys, batches = make_plan(seed, cfg)
    ops = sum(len(b) for _, b in batches)

    out, base, rec = passes(functools.partial(one_pass, cfg, keys, batches), trace)
    phase = out["phase"]
    problems = check(cfg, out)
    log(f"live-batch: {len(batches)} batches, {ops} keys in {phase.wall_s:.2f} s, "
        f"records per server {out['counters']['per_server']}, "
        f"host steal {phase.steal_s:.2f} s")
    result = {"correct": not problems, "attempted": ops, "failed": out["failed"],
              "problems": problems}
    if not trace:
        result["metrics"] = end_to_end(ops, phase, import_s + median(out["setup_s"]),
                                       out["rss"])
        return result
    metrics = live_layers(rec, ops=ops, base=base["phase"], traced=phase,
                          counters=out["counters"], retries=out["retries"],
                          host_report=out["report"], boot_s=out["boot_s"],
                          fill_s=out["fill_s"])
    metrics.update({
        "live.cluster.get_many_self_us": (rec.self_per_call_us("live.cluster.get_many"),
                                          "us/call"),
        "live.cluster.put_many_self_us": (rec.self_per_call_us("live.cluster.put_many"),
                                          "us/call"),
        "live.replica.replicate_many_self_us": (
            rec.self_per_call_us("live.replica.replicate_many"), "us/call"),
    })
    metrics.update(wall_clock_layers(ops, base["phase"], base["latencies"]))
    result["metrics"] = metrics
    result["spans"] = {"load": rec.table(), "host": out["report"].get("spans", {})}
    return result
