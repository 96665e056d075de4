"""isoprod benchmark: one workload per invocation, in a fresh interpreter.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from `src/`
of that checkout (nothing is installed).  Set-up -- a fresh import of the
package plus building the workload's inputs from the seed -- is done
SETUP_REPEATS times and its median reported as `setup_s`.  The workload's
op list (one pass) is then repeated while the next pass is expected to end
within `--seconds`; at least MIN_PASSES passes are made.  All reported
times are scaled to a nominal host speed (see hostspeed.py).

With `--trace 0` the last line of standard output is the end-to-end
result.  With `--trace 1` the first half of the time runs untraced and the
second half traced, and the last line holds the per-layer metrics plus the
tracing overhead (traced minus untraced pass time).  The line before the
result is a `{"record": ...}` object with the seed, the interpreter, nproc,
the git commit, error details, deterministic counters and digests.

Every op's output is checked; a failed check or a raised exception counts
as a failed op.  The exit code is 0 when the run finished, whether or not
ops failed (the result then says `"correct": false`), and 2 without a
result when the run could not be made at all: the sources are missing, a
function the tracer wraps is missing, or a traced span that must be called
on this workload was never called.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
MODULES = ("cyclotomic", "groups", "chartab", "ramification", "surface",
           "structfile", "catalog", "cli")
SETUP_REPEATS = 7
# Every figure is a median over repeated passes, so a run makes at least two
# even when one pass (a search pass is 15-25 s) exceeds --seconds.
MIN_PASSES = 2
MAX_LOGGED_ERRORS = 5

import tracing  # noqa: E402  (sibling modules; they need nothing from the program)
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402


class BenchError(Exception):
    """The run cannot be made; no result is printed."""


def load_isoprod(work_dir: Path) -> types.SimpleNamespace:
    """Import isoprod afresh from this checkout's `src/`."""
    if not (SRC / "isoprod" / "__init__.py").is_file():
        raise BenchError(f"no isoprod sources under {SRC}")
    for name in [n for n in sys.modules if n == "isoprod" or n.startswith("isoprod.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"isoprod.{name}") for name in MODULES}
    pkg_file = Path(sys.modules["isoprod"].__file__).resolve()
    if SRC not in pkg_file.parents:
        raise BenchError(f"isoprod imported from {pkg_file}, not from {SRC}")
    return types.SimpleNamespace(**mods, data_dir=pkg_file.parent / "data",
                                 work_dir=work_dir)


def set_up(workload: str, seed: int, work_dir: Path, speed: HostSpeed):
    """Median scaled and unscaled set-up time over SETUP_REPEATS, and the
    last set-up's ops."""
    scaled, unscaled = [], []
    for _ in range(SETUP_REPEATS):
        started = speed.start()
        iso = load_isoprod(work_dir)
        ops = workloads.WORKLOADS[workload](iso, random.Random(seed))
        elapsed, factor = speed.stop(started)
        unscaled.append(elapsed)
        scaled.append(elapsed * factor)
    return statistics.median(scaled), statistics.median(unscaled), ops


class Runner:
    """Runs passes over one op list and keeps every op's outcome."""

    def __init__(self, ops, speed: HostSpeed):
        self.ops = ops
        self.speed = speed
        self.first_facts: list[dict | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_LOGGED_ERRORS:
            self.errors.append(f"{op.label}: {message}")

    def one_pass(self) -> tuple[list[float], list[float]]:
        """Unscaled latencies of one pass's ops, and their scale factors."""
        latencies, factors = [], []
        for i, op in enumerate(self.ops):
            self.attempted += 1
            started = self.speed.start()
            try:
                out = op.run()
            except Exception as exc:  # a failing op is counted, not fatal
                out, error = None, exc
            else:
                error = None
            elapsed, factor = self.speed.stop(started)
            latencies.append(elapsed)
            factors.append(factor)
            if error is not None:
                self._fail(op, f"raised {error!r}")
                continue
            try:
                facts, problems = op.check(out)
            except Exception as exc:
                self._fail(op, f"check raised {exc!r}")
                continue
            if self.first_facts[i] is None:
                self.first_facts[i] = facts
            elif facts != self.first_facts[i]:
                problems = problems + ["output differs from the first pass"]
            if problems:
                self._fail(op, "; ".join(problems))
        return latencies, factors

    def passes(self, seconds: float, at_least: int):
        """Yield whole passes, at least `at_least` of them, while the next
        one, at the mean pass time so far, is expected to end within
        `seconds`."""
        start = perf_counter()
        done = 0
        while True:
            yield self.one_pass()
            done += 1
            expected_end = (perf_counter() - start) * (done + 1) / done
            if done >= at_least and expected_end > seconds:
                return

    def counters(self) -> dict:
        """Deterministic results: the run digest and summed op facts."""
        facts = [f for f in self.first_facts if f is not None]
        totals: dict[str, int] = {}
        for f in facts:
            for key, value in f.items():
                if isinstance(value, int):
                    totals[key] = totals.get(key, 0) + value
        run_digest = hashlib.sha256(json.dumps(facts, sort_keys=True).encode())
        return {"ops_per_pass": len(self.ops), "digest": run_digest.hexdigest()[:16],
                **totals}


def tail(samples: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank `percentile` of the samples and how many lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _figures(passes: list[list[float]], setup_s: float, percentile: float) -> dict:
    pooled = [t for p in passes for t in p]
    return {"ops_per_s": statistics.median(len(p) / sum(p) for p in passes),
            "op_ms_p50": statistics.median(pooled) * 1e3,
            "op_ms_tail": tail(pooled, percentile)[0] * 1e3,
            "setup_s": setup_s}


def _scaled(latencies, factors) -> list[float]:
    return [t * f for t, f in zip(latencies, factors)]


def end_to_end(workload: str, passes, setup_scaled: float, setup_unscaled: float):
    """Metrics from passes of (unscaled latencies, scale factors); the
    unscaled figures go to the record."""
    pct = workloads.TAIL_PERCENTILE[workload]
    scaled = _figures([_scaled(lat, f) for lat, f in passes], setup_scaled, pct)
    unscaled = _figures([lat for lat, _ in passes], setup_unscaled, pct)
    units = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms", "setup_s": "s"}
    metrics = {name: metric(value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mib"] = metric(peak_rss_mib(), "MiB")
    samples = sum(len(lat) for lat, _ in passes)
    beyond = tail([t for lat, _ in passes for t in lat], pct)[1]
    return metrics, {"tail_percentile": pct, "samples": samples,
                     "samples_beyond_tail": beyond,
                     "scale_by_pass": [statistics.median(f) for _, f in passes],
                     "unscaled": unscaled}


def traced(workload: str, runner: Runner, seconds: float) -> tuple[dict, dict]:
    plain = [sum(_scaled(lat, f)) for lat, f in runner.passes(seconds / 2, 1)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pass_times, timings, counters, hit_ratio = [], [], None, 0.0
        for latencies, factors in runner.passes(seconds / 2, 1):
            pass_times.append(sum(_scaled(latencies, factors)))
            f = statistics.median(factors)
            timings.append({k: v * f for k, v in tracer.timings().items()})
            if counters is None:
                counters, hit_ratio = tracer.counters(), tracer.hit_ratio()
            tracer.reset()
    finally:
        tracer.uninstall()
    missing = tracing.missing_on_home(workload, counters)
    if missing:
        raise BenchError(f"traced spans with zero calls on {workload}: "
                         + ", ".join(missing))
    untraced_s = statistics.median(plain)
    traced_s = statistics.median(pass_times)
    values = {**counters, tracing.HIT_RATIO: hit_ratio,
              tracing.OVERHEAD_S: traced_s - untraced_s,
              tracing.OVERHEAD_PCT: 100 * (traced_s - untraced_s) / untraced_s}
    for name in timings[0]:
        values[name] = statistics.median(t[name] for t in timings)
    metrics = {name: metric(values[name], unit) for name, unit in tracing.metric_names()}
    return metrics, {"passes_untraced": len(plain), "passes_traced": len(pass_times),
                     "span_counters": counters}


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        with HostSpeed() as speed:
            setup_scaled, setup_unscaled, ops = set_up(args.workload, args.seed,
                                                       work_dir, speed)
            runner = Runner(ops, speed)
            if args.trace:
                metrics, info = traced(args.workload, runner, args.seconds)
            else:
                passes = list(runner.passes(args.seconds, MIN_PASSES))
                metrics, info = end_to_end(args.workload, passes, setup_scaled,
                                           setup_unscaled)
    except (BenchError, tracing.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "attempted": runner.attempted, "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted, "errors": runner.errors,
        "reference_s": statistics.median(speed.samples),
        "counters": runner.counters(), **info,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
