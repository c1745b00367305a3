"""symfusion benchmark: closed-loop CLI and library workloads, each op in a fresh process.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload construct|file_complement|search \
        --seed N --seconds S --trace 0|1

Load model: one client, one operation at a time.  Each operation runs in a new
worker process (perfbench/worker.py), so library caches start cold as on every
CLI call; the worker pins BLAS to one thread and times only the library call.
A run repeats whole rounds of the workload's pool, starting another only while
it is expected to end within --seconds (the first round always runs); it checks
every output and prints the end-to-end metrics (--trace 0).  With --trace 1 it then
runs round 0 again with every layer function wrapped and prints the per-layer
metrics instead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from analysis import layer_times, tail
from worker import CACHED, ROOT_SPAN, TRACED_NAMES
from workloads import WORKLOADS, Op, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
BLAS_THREADS = 1
OP_TIMEOUT_S = 60.0
# Leave room under the 180 s a run may take for the traced round and clean-up.
RUN_BUDGET_S = 150.0

UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# The metrics the result line carries.  op_p50_s and op_tail_s are printed but
# not among them: each is one order statistic of two or three rounds, and its
# spread across runs (IQR over median up to about 0.2 on a shared 2-core VM)
# is too close to the largest bound a metric may have.
END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(spec: dict, timeout: float) -> tuple[dict | None, float, str | None]:
    """Run one worker; (result, seconds from spawn to exit, failure reason)."""
    spawned = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=worker_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, time.perf_counter() - spawned, f"timed out after {timeout:.0f} s"
    except BaseException:  # interrupted or terminated: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter() - spawned
    if proc.returncode != 0:
        tail_line = (err.strip().splitlines() or ["no output"])[-1]
        return None, elapsed, f"worker exit {proc.returncode}: {tail_line}"
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, elapsed, "worker printed no result"
    result["setup_s"] = result["imported"] - spawned
    return result, elapsed, None


class Runner:
    """Runs ops, checks them, and keeps every sample of the run."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def run_op(self, op: Op) -> dict:
        """Sample {latency, setup_s, maxrss_kb, result} of one op; failures are recorded."""
        self.attempted += 1
        timeout = min(OP_TIMEOUT_S, self.remaining())
        if timeout <= 0:
            self.failures.append((op.row, "not run: run time budget used up"))
            return {"latency": None}
        result, elapsed, reason = spawn(op.spec, timeout)
        sample = {"latency": elapsed, "result": result}
        if result is not None:
            sample.update(latency=result["end"] - result["start"],
                          setup_s=result["setup_s"], maxrss_kb=result["maxrss_kb"])
            try:
                reason = self.workload.check(op, result)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is not None:
            self.failures.append((op.row, reason))
        for path in op.files:
            path.unlink(missing_ok=True)
        return sample

    def measure(self, seconds: float) -> tuple[list[tuple[str, dict]], int]:
        """Whole rounds, starting another while the longest round so far still fits in ``seconds``.

        A run then lasts at most ``seconds`` (or one round), so the run length can
        be raised to the time budget without a final round overrunning it.
        """
        samples: list[tuple[str, dict]] = []
        begun = time.perf_counter()
        longest = 0.0
        k = 0
        while k == 0 or (time.perf_counter() - begun + longest <= seconds and self.remaining() > 0):
            round_start = time.perf_counter()
            for op in self.workload.round_ops(k, self.seed, self.work):
                samples.append((op.row, self.run_op(op)))
            longest = max(longest, time.perf_counter() - round_start)
            k += 1
        return samples, k

    def traced_round(self) -> list[tuple[str, dict]]:
        samples = []
        for op_id, op in enumerate(self.workload.round_ops(0, self.seed, self.work)):
            op.spec.update(trace=True, op_id=op_id)
            samples.append((op.row, self.run_op(op)))
        return samples


def wall_seconds(samples, rows) -> float:
    """Time to all verdicts of one pass over the pool: the sum of each row's median latency."""
    by_row = defaultdict(list)
    for row, s in samples:
        if s["latency"] is not None:
            by_row[row].append(s["latency"])
    return sum(statistics.median(by_row[r]) for r in rows if by_row[r])


def end_to_end(samples, rows) -> tuple[dict, str]:
    latencies = [s["latency"] for _, s in samples if s["latency"] is not None]
    setups = [s["setup_s"] for _, s in samples if "setup_s" in s]
    rss = [s["maxrss_kb"] for _, s in samples if "maxrss_kb" in s]
    tail_value, tail_label = tail(latencies)
    values = {
        "wall_s": wall_seconds(samples, rows),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "peak_rss_mb": max(rss) / 1024 if rss else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
    }
    return values, tail_label


def per_layer(traced, untraced_wall: float, rows) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced round, as {name: (value, unit)}, and absent names."""
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    counters = defaultdict(int)
    absent: set[str] = set()
    op_time = unattributed = 0.0
    for _, s in traced:
        report = (s.get("result") or {}).get("trace")
        if report is None:
            continue
        times = layer_times(report["names"], report["spans"])
        for name, (calls, self_s, total_s) in times.items():
            rec = totals[name]
            rec[0] += calls
            rec[1] += self_s
            rec[2] += total_s
        op_time += times[ROOT_SPAN][2]
        unattributed += times[ROOT_SPAN][1] + times.get("cli.main", (0, 0.0, 0.0))[1]
        for key, value in report["counters"].items():
            counters[key] += value
        absent.update(report["absent"])

    out = {}
    for name in TRACED_NAMES:
        calls, self_s, total_s = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.total_s"] = (total_s, "s")
    for name in CACHED:
        out[f"{name}.cache_hits"] = (counters[f"{name}.cache_hits"], "count")
        out[f"{name}.cache_misses"] = (counters[f"{name}.cache_misses"], "count")
    for name, unit in (("tableaux.tableaux_enumerated", "count"), ("permutations.word_letters", "count"),
                       ("symrep.orbit_bytes_computed", "B"), ("fusion.cross_gram.flops_computed", "flop"),
                       ("ensemble_io.bytes_written", "B"), ("ensemble_io.bytes_read", "B")):
        out[name] = (counters[name], unit)
    pairs = counters["certify_pairs"]
    out["fusion.cross_grams_per_pair"] = (counters["certify_cross_grams"] / pairs if pairs else 0.0, "count/pair")
    out["fusion.svds_per_pair"] = (counters["certify_svds"] / pairs if pairs else 0.0, "count/pair")
    traced_wall = wall_seconds(traced, rows)
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1 if untraced_wall else 0.0, "ratio")
    out["trace.unattributed_share"] = (unattributed / op_time if op_time else 0.0, "ratio")
    return out, sorted(absent)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "symfusion" / "__init__.py").is_file():
        print(f"no symfusion sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, WORKLOADS[args.workload](), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def run(args, workload: Workload, work: Path) -> int:
    gen_start = time.perf_counter()
    prep, _elapsed, reason = spawn(dict(workload.prep_request(args.seed, work), kind="prep"), OP_TIMEOUT_S)
    if prep is None or prep.get("rc") != 0:
        print(f"input generation failed: {reason or prep.get('error')}", file=sys.stderr)
        return 3
    workload.accept_prep(prep)
    gen_seconds = time.perf_counter() - gen_start

    runner = Runner(workload, args.seed, work)
    samples, rounds = runner.measure(args.seconds)
    values, tail_label = end_to_end(samples, workload.rows)
    traced = runner.traced_round() if args.trace else []

    env = {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": prep["numpy"], "blas": prep["blas"],
        "blas_threads": BLAS_THREADS, "commit": git_commit(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "rounds": rounds,
        "ops": len(samples), "traced_ops": len(traced),
        "input_generation_s": round(gen_seconds, 3),
    }
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in values.items():
        print(f"{name:<12} {value:12.6f} {UNITS[name]}")
    print(f"{'op_tail':<12} is {tail_label}")
    fail_ratio = len(runner.failures) / runner.attempted
    print(f"{'fail_ratio':<12} {fail_ratio:12.6f} ({len(runner.failures)} failed of {runner.attempted} attempted)")
    for row, reason in runner.failures:
        print(f"FAILED {row}: {reason}")

    if args.trace:
        layers, absent = per_layer(traced, values["wall_s"], workload.rows)
        for name, (value, unit) in layers.items():
            print(f"{name:<52} {value:>16.6g} {unit}")
        if absent:
            print("absent (reported as 0): " + ", ".join(absent))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in END_TO_END}
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
