"""Benchmark command for the elastic cache reproduction.

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints information lines, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1``.  ``--size smoke`` shrinks every workload for the
benchmark's own tests; ``--out FILE`` also appends the result to FILE as
one JSON line.

Compare mode:
    python3 perfbench/run.py --compare BEFORE.jsonl AFTER.jsonl

prints, per workload and end-to-end metric, each side's median and
quartiles and whether the two agree within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = {"sim-paper": "sim_paper", "live-query": "live_query",
             "live-batch": "live_batch"}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def log(line: str) -> None:
    print(line, flush=True)


def collect(spec: dict, trace: bool, produced: dict) -> dict:
    """Order the workload's metrics as the spec lists them; per-layer
    metrics a workload does not exercise read 0."""
    listed = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in listed}
    unknown = sorted(set(produced) - names)
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for m in listed:
        if m["name"] in produced:
            value, unit = produced[m["name"]]
            if unit != m["unit"]:
                raise RuntimeError(f"{m['name']}: unit {unit}, spec says {m['unit']}")
        elif trace:
            value = 0
        else:
            raise RuntimeError(f"end-to-end metric {m['name']} not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    import importlib
    workload = importlib.import_module(WORKLOADS[args.workload])
    result = workload.run(args.seed, args.seconds, bool(args.trace), args.size, log)
    for problem in result.pop("problems"):
        log(f"CHECK FAILED: {problem}")
    spans = result.pop("spans", None)
    if spans is not None:
        from common import OUT_DIR
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans, indent=1))
        log(f"span totals written to {path}")
    result["metrics"] = collect(spec, bool(args.trace), result["metrics"])
    line = json.dumps(result)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, **result}) + "\n")
    print(line, flush=True)
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    """Print both sides per workload and metric; exit 1 on disagreement."""
    spec = load_spec()

    def read(path):
        rows: dict[str, list[dict]] = {}
        with open(path) as f:
            for line in f:
                row = json.loads(line)
                if not row["trace"]:
                    rows.setdefault(row["workload"], []).append(row)
        return rows

    a, b = read(path_a), read(path_b)
    ok = True
    print(f"{'workload':<11} {'metric':<17} {'A q1/med/q3':>30} {'B q1/med/q3':>30}"
          f" {'A sprd':>7} {'B sprd':>7} {'B vs A':>7} {'bound':>6}  verdict")
    for workload in sorted(set(a) & set(b)):
        for side in (a, b):
            shares = {r["failed"] / r["attempted"] for r in side[workload]}
            if len(shares) > 1:
                print(f"{workload}: failed share differs between runs: {shares}")
                ok = False
        share_a = a[workload][0]["failed"] / a[workload][0]["attempted"]
        share_b = b[workload][0]["failed"] / b[workload][0]["attempted"]
        if share_a != share_b:
            print(f"{workload}: failed share {share_a} vs {share_b}")
            ok = False
        for m in spec["end_to_end"]:
            qa = quartiles([r["metrics"][m["name"]]["value"] for r in a[workload]])
            qb = quartiles([r["metrics"][m["name"]]["value"] for r in b[workload]])
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if m["better"] == "lower" else -change
            agree = worse <= m["bound"] and (
                m["name"] == "setup_s" or max(spread_a, spread_b) <= m["bound"])
            ok = ok and agree
            print(f"{workload:<11} {m['name']:<17} "
                  f"{'/'.join(f'{v:.4g}' for v in qa):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in qb):>30} "
                  f"{spread_a:>7.3f} {spread_b:>7.3f} {change:>+7.3f} {m['bound']:>6}"
                  f"  {'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the elastic cache reproduction")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--out", help="append the result to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
