"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [workload ...]

For each workload, makes two traced runs of one seed (each in its own
interpreter) and checks that both are correct and that their deterministic
results are identical: the `counters` and `span_counters` of the record
(digests, structure counts, call counts, Dixon prime, cache hits).  Then
checks that a directory holding only BENCHMARK.json and this directory
makes `run.py` exit non-zero without printing a result.  Exits 1 on any
mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def run(cwd: Path, workload: str, seed: int, seconds: float):
    proc = subprocess.run(
        [sys.executable, str(Path(HERE.name) / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return proc


def deterministic(stdout: str) -> tuple[dict, bool]:
    lines = stdout.splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    return {"counters": record["counters"],
            "span_counters": record["span_counters"]}, result["correct"]


def check_workload(workload: str, seed: int, seconds: float) -> list[str]:
    runs = []
    for _ in range(2):
        proc = run(ROOT, workload, seed, seconds)
        if proc.returncode:
            return [f"{workload}: exit code {proc.returncode}: {proc.stderr.strip()}"]
        runs.append(deterministic(proc.stdout))
    (first, ok1), (second, ok2) = runs
    problems = []
    if not (ok1 and ok2):
        problems.append(f"{workload}: a run was not correct")
    for part in ("counters", "span_counters"):
        a, b = first[part], second[part]
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if diff:
            problems.append(f"{workload}: {part} differ between runs: {diff}")
    return problems


def check_without_sources() -> list[str]:
    bare = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "tables", 1, 1)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit code {proc.returncode}, "
                f"stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", help="default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {sorted(unknown)}")
    problems = check_without_sources()
    for workload in args.workloads or list(WORKLOADS):
        found = check_workload(workload, args.seed, args.seconds)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
