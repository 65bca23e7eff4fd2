"""Pieces shared by the two live workloads: import timing, the cluster
spans, server counters and the live per-layer metrics."""

from __future__ import annotations

import time

from common import ServerHost, median

#: the hash line; the live cluster hashes in identity mode, so keys are
#: drawn from all of it to spread over every server
RING = 1 << 20


def import_live() -> float:
    """Import the live client stack; returns the seconds it took."""
    t0 = time.perf_counter()
    import repro.live.client  # noqa: F401
    import repro.live.coordinator  # noqa: F401
    return time.perf_counter() - t0


def boot(servers: int, capacity: int, trace: bool) -> tuple[ServerHost, float]:
    """Start the server host; returns it and its boot seconds."""
    t0 = time.perf_counter()
    host = ServerHost(servers, capacity, trace=trace)
    return host, time.perf_counter() - t0


def passes(one_pass, trace: bool, wrap_extra=None):
    """Run a live workload's passes; returns ``(out, base, recorder)``.

    Untraced: one pass, set up three times (the median set-up is
    reported).  Traced: an untraced pass for reference, then a traced
    pass with the live spans (plus ``wrap_extra``) installed.
    """
    if not trace:
        return one_pass(setup_reps=3), None, None
    from spans import SpanRecorder
    base = one_pass()
    rec = SpanRecorder()
    wrap_live(rec)
    if wrap_extra is not None:
        wrap_extra(rec)
    try:
        out = one_pass(rec=rec)
    finally:
        rec.unwrap_all()
    return out, base, rec


def wrap_live(rec) -> None:
    """Install the load-generator spans of the live stack."""
    import repro.live.client as client_mod
    from repro.live.client import LiveCacheClient, LiveClusterClient
    from repro.live.coordinator import LiveCoordinator
    from repro.live.protocol import FrameReader
    from repro.live.replica import ReplicaManager

    rec.wrap(LiveCoordinator, "query", "live.coordinator")
    rec.wrap(LiveCoordinator, "end_slice", "live.window.end_slice")
    for op in ("get", "put", "delete", "get_many", "put_many", "add_server"):
        rec.wrap(LiveClusterClient, op, f"live.cluster.{op}")
    rec.wrap(ReplicaManager, "replicate_many", "live.replica.replicate_many")
    for op in ("get", "put", "delete", "multi_get", "multi_put"):
        rec.wrap(LiveCacheClient, op, "live.client.call")
    rec.wrap(client_mod, "send_frame", "live.wire.send")
    rec.wrap(client_mod, "send_frames", "live.wire.send")
    rec.wrap(FrameReader, "recv_frame", "live.wire.recv")


def server_counters(cluster) -> dict[str, int]:
    """The ``stats`` op summed over the cluster's servers (peak queue
    depth: the largest), plus resident records per server."""
    totals = {"hits": 0, "misses": 0, "multi_ops": 0, "batched_keys": 0,
              "stripe_contention": 0, "peak_queue_depth": 0, "records": 0}
    per_server = []
    for client in cluster.clients.values():
        stats = client.stats()
        for name in totals:
            if name == "peak_queue_depth":
                totals[name] = max(totals[name], stats[name])
            else:
                totals[name] += stats[name]
        per_server.append(stats["records"])
    totals["per_server"] = per_server
    return totals


def live_layers(rec, *, ops: int, base, traced, counters: dict, retries: int,
                host_report: dict, boot_s: float, fill_s: float) -> dict:
    """Per-layer metrics common to both live workloads.

    ``base`` is the untraced pass's :class:`~common.Phase` (CPU split and
    wait come from it, untouched by tracing overhead); ``traced`` is the
    traced pass's.
    """
    host_spans = host_report.get("spans", {})

    def host_self_us(name: str) -> float:
        entry = host_spans.get(name)
        return entry["self_us"] / entry["calls"] if entry and entry["calls"] else 0.0

    client_cpu = base.cpu_s / ops * 1e6
    server_cpu = base.peer_cpu_s / ops * 1e6
    return {
        "live.client.call_us": (
            rec.total_us("live.client.call") / max(rec.calls("live.client.call"), 1),
            "us/call"),
        "live.wire.send_self_us": (rec.self_per_call_us("live.wire.send"), "us/call"),
        "live.wire.recv_self_us": (rec.self_per_call_us("live.wire.recv"), "us/call"),
        "live.server.send_self_us": (host_self_us("server.send"), "us/call"),
        "live.server.btree_self_us": (host_self_us("server.btree"), "us/call"),
        "live.client.cpu_us_per_op": (client_cpu, "us"),
        "live.server.cpu_us_per_op": (server_cpu, "us"),
        "live.wait_us_per_op": (base.wall_s / ops * 1e6 - client_cpu - server_cpu, "us"),
        "live.server.hits": (counters["hits"], "count"),
        "live.server.misses": (counters["misses"], "count"),
        "live.server.multi_ops": (counters["multi_ops"], "count"),
        "live.server.batched_keys": (counters["batched_keys"], "count"),
        "live.server.stripe_contention": (counters["stripe_contention"], "count"),
        "live.server.peak_queue_depth": (counters["peak_queue_depth"], "count"),
        "live.client.retries": (retries, "count"),
        "live.setup.boot_s": (boot_s, "s"),
        "live.setup.fill_s": (fill_s, "s"),
        "live.server.stop_s": (median(host_report.get("stop_s") or [0.0]), "s"),
        "host.steal_s": (traced.steal_s, "s"),
        "trace.overhead_pct": ((traced.wall_s / base.wall_s - 1.0) * 100.0, "%"),
    }
