"""Shared helpers: /proc readers, percentiles, the server-host handle."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: where traced runs write their span tables (ignored by git)
OUT_DIR = ROOT / ".perfbench"

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU seconds of a process, all threads (``/proc``)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_steal_s() -> float:
    """Steal seconds summed over all CPUs since boot (``/proc/stat``)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / _TICK


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values) -> float:
    return float(statistics.median(values))


class Phase:
    """Wall, own-CPU, peer-CPU and steal deltas over a timed phase."""

    def __init__(self, peer_pid: int | None = None) -> None:
        self.peer_pid = peer_pid

    def __enter__(self) -> "Phase":
        self._steal = host_steal_s()
        self._peer = cpu_seconds(self.peer_pid) if self.peer_pid else 0.0
        self._cpu = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._cpu
        self.peer_cpu_s = (cpu_seconds(self.peer_pid) - self._peer
                           if self.peer_pid else 0.0)
        self.steal_s = host_steal_s() - self._steal

    @property
    def unstolen_s(self) -> float:
        """Wall seconds minus the steal the host reported meanwhile.

        Every workload keeps about one vCPU on its critical path (one
        closed-loop caller; the simulator is one thread), and a vCPU
        with nothing runnable accrues no steal, so the host's steal is
        time the workload was ready but not running.  The floor only
        guards the division on a host that stole nearly everything.
        """
        return max(self.wall_s - self.steal_s, 0.05 * self.wall_s)


def end_to_end(ops: int, phase: Phase, setup_s: float, rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run."""
    return {
        "throughput_ops_s": (ops / phase.unstolen_s, "1/s"),
        "cpu_us_per_op": ((phase.cpu_s + phase.peer_cpu_s) / ops * 1e6, "us"),
        "setup_s": (setup_s, "s"),
        "rss_mb": (rss_mb, "MiB"),
    }


def wall_clock_layers(ops: int, phase: Phase, latencies_s: list[float]) -> dict:
    """Wall-clock figures kept out of the end-to-end set because host
    steal moves them (see README), reported from the traced run's
    untraced pass."""
    lat_ms = [s * 1e3 for s in latencies_s]
    return {
        "e2e.throughput_wall_ops_s": (ops / phase.wall_s, "1/s"),
        "e2e.latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "e2e.latency_p99_ms": (percentile(lat_ms, 99), "ms"),
    }


class ServerHost:
    """Handle on ``host.py``: one child process holding every
    ``LiveCacheServer`` of a workload.

    The host prints one JSON line with the server addresses once they
    listen; :meth:`close` asks it to stop them and returns its report
    (per-server ``stop()`` seconds, and span totals in trace mode).
    """

    def __init__(self, servers: int, capacity_bytes: int,
                 trace: bool = False) -> None:
        cmd = [sys.executable, str(HERE / "host.py"),
               "--servers", str(servers), "--capacity", str(capacity_bytes)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=10)
            raise RuntimeError(f"server host exited with {self.proc.returncode}")
        self.addresses = [tuple(a) for a in json.loads(line)["addresses"]]
        self.report: dict | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def reset_spans(self) -> None:
        """Drop the host's spans so far; returns once the host did."""
        self.proc.stdin.write("reset\n")
        self.proc.stdin.flush()
        self.proc.stdout.readline()

    def close(self) -> dict:
        """Stop the servers, wait for the host to exit, return its report."""
        if self.report is not None:
            return self.report
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            self.report = json.loads(line) if line else {}
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        return self.report
