"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

Checks that the generator is deterministic (same seed, byte-identical
files; another seed, other files), that every workload runs with and
without tracing, passes its correctness checks and emits exactly the
metrics BENCHMARK.json names, each with its unit, and that run.py fails
without printing a result where there is no mpxmbo source.  Exits 0 when
all hold.  Takes about a minute.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "smoke"


def digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
        if p.suffix in (".mpx", ".tsv")
    }


def generate(name, seed, tag):
    work = SCRATCH / f"{name}-{tag}"
    work.mkdir(parents=True)
    workloads.make(name, seed, str(work), "tiny")
    return digests(work)


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
        for name in workloads.WORKLOADS:
            first, again, other = generate(name, 7, "a"), generate(name, 7, "b"), generate(name, 8, "c")
            if first != again:
                problems.append(f"{name}: same seed gave different files")
            if first["net.mpx"] == other["net.mpx"]:
                problems.append(f"{name}: another seed gave the same network")
            for trace in (0, 1):
                proc = run(["--workload", name, "--seed", "3", "--seconds", "1",
                            "--trace", str(trace), "--size", "tiny"])  # fmt: skip
                label = f"{name} --trace {trace}"
                if proc.returncode != 0:
                    problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"{label}: result keys {sorted(result)}")
                if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                    problems.append(f"{label}: not correct: {proc.stdout.splitlines()[-2][:2000]}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"{label}: metrics {sorted(set(got) ^ set(expected[trace]))} "
                                    "missing or extra, or units differ")  # fmt: skip
                print(f"{label}: ok" if not problems else f"{label}: checked", flush=True)

        bare = SCRATCH / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "eval-io", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)  # fmt: skip
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py without mpxmbo source did not fail cleanly")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for problem in problems:
        print("FAIL:", problem)
    print("smoke test passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
