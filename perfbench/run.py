"""End-to-end and per-layer benchmark of mpxmbo.

Run from the repository root:

    python3 perfbench/run.py --workload cold-dgfm3 --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py for sizes and why each was chosen):
cold-dgfm3, warm-mpbtv, eval-io, oracle-exhaustive.  The inputs are
generated from --seed into a scratch directory under the checkout, which
is removed afterwards; mpxmbo only ever sees those files.

With --trace 0 the last stdout line holds the end-to-end metrics:
wall_s (wall time of one command, cli.main entry to return: the median
over batches of about 3 s of the batch's mean),
setup_s (median over fresh processes of `import mpxmbo`, plus the cold
detect that fills the cache on warm-mpbtv), peak_rss_mb (peak resident
memory of the process that ran the timed commands), modularity and nmi.
With --trace 1 it holds the per-layer metrics of the traced commands.
The line before it is a JSON report with every sample, the tail
percentile, the checks, error_rate, the tracing overhead and the
environment.  Every process is pinned to one BLAS thread; warm-mpbtv's
run pool adds a second thread, so no workload uses more than two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0  # every run must end within 180 s

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = {"warm-mpbtv": 3}
DEFAULT_SETUP_REPEATS = 7


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11], "samples": n}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(plan_path, args, deadline):
    """Run one worker phase in a fresh process; return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), *args]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def source_record():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mpxmbo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="input scale; 'tiny' is for the smoke test")  # fmt: skip
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "mpxmbo" / "__init__.py").is_file():
        print(f"perfbench: no mpxmbo package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = workloads.make(args.workload, args.seed, str(work), args.size)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        setups = []
        if not args.trace:
            repeats = SETUP_REPEATS.get(args.workload, DEFAULT_SETUP_REPEATS)
            setups = [run_worker(plan_path, ["setup"], deadline) for _ in range(repeats)]
        result = run_worker(
            plan_path, ["measure", repr(args.seconds), str(args.trace)], deadline
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    argv = plan["argv"]
    threads = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1
    failed = result["failed"] + sum(1 for s in setups if not s["ok"])
    attempted = result["attempted"] + len(setups)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "threads": threads,
        "wall_s_tail": tail(result["walls"]),
        "setup_samples": setups,
        "error_rate": failed / attempted,
        **result,
    }
    report["environment"].update(source_record())
    print(json.dumps({"report": report}))

    if args.trace:
        metrics = {key: {"value": value, "unit": unit_of(key)} for key, value in result["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(result["batch_means"]), "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "modularity": {"value": result["modularity"], "unit": "1"},
            "nmi": {"value": result["nmi"], "unit": "1"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))  # fmt: skip
    return 0


def unit_of(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_bytes"):
        return "B"
    if key.endswith(("_frac", "_residual", "cache_hits")):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
