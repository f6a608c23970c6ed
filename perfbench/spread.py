"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads cold-dgfm3,eval-io --seeds 1-10 \
        --seconds 10 [--trace 1] [--out perfbench/baseline.json]

For every workload and end-to-end metric this prints the median over the
seeds and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to a third of
the metric's bound in BENCHMARK.json.  --out stores every value in a
JSON baseline point, under trace0 or trace1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, seconds, args.trace) for s in seeds(args.seeds)]
        values = {}
        for _, result in runs:
            ok &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry = {"seeds": seeds(args.seeds), "values": values, "median": {}, "spread": {}}
        for name, vals in values.items():
            med, spr = spread(vals) if len(vals) > 1 else (vals[0], 0.0)
            entry["median"][name], entry["spread"][name] = med, spr
            limit = bounds.get(name)
            flag = ""
            if limit is not None and name != "setup_s" and not spr < limit / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"{workload:18s} {name:36s} median {med:<14.6g} spread {spr:7.4f}"
                  + (f"  (bound/3 {limit / 3:.4f}){flag}" if limit is not None else ""))  # fmt: skip
        entry["env"] = runs[0][0]["environment"]
        point["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        # traced and untraced sets of one baseline live side by side
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {}
        doc[f"trace{args.trace}"] = point
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print("all runs correct" if ok else "SOME RUNS FAILED A CHECK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
