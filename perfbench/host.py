"""Server host: every ``LiveCacheServer`` of one live workload, in one
process apart from the load generator.

Usage: ``python3 perfbench/host.py --servers N --capacity BYTES [--trace]``

Prints one JSON line ``{"addresses": [[host, port], ...]}`` once every
server listens, then waits on standard input.  A ``reset`` line drops
the spans recorded so far (set-up traffic) and is answered with
``{"reset": true}``.  A ``stop`` line (or end of input) stops the
servers, each ``stop()`` timed on its own thread so teardown costs one
stop rather than one per server, and prints one JSON line
``{"stop_s": [...], "spans": {...}}`` before exiting.

With ``--trace`` the server-side reply send and the B+-tree operations
are wrapped by the span recorder; their per-name totals come back in
``spans``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--servers", type=int, required=True)
    ap.add_argument("--capacity", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import repro.live.server as server_mod
    from repro.btree.bplustree import BPlusTree

    recorder = None
    if args.trace:
        from spans import SpanRecorder
        recorder = SpanRecorder()
        recorder.wrap(server_mod, "send_frame", "server.send")
        recorder.wrap(server_mod, "send_frames", "server.send")
        for op in ("search", "insert", "delete"):
            recorder.wrap(BPlusTree, op, "server.btree")

    servers = [server_mod.LiveCacheServer(capacity_bytes=args.capacity).start()
               for _ in range(args.servers)]
    print(json.dumps({"addresses": [list(s.address) for s in servers]}),
          flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if command == "reset":
            if recorder is not None:
                recorder.reset()
            print(json.dumps({"reset": True}), flush=True)

    stop_s = [0.0] * len(servers)

    def stop(i: int) -> None:
        t0 = time.perf_counter()
        servers[i].stop()
        stop_s[i] = time.perf_counter() - t0

    threads = [threading.Thread(target=stop, args=(i,))
               for i in range(len(servers))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    report = {"stop_s": stop_s}
    if recorder is not None:
        recorder.fold(drop_open=True)
        report["spans"] = recorder.table()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
