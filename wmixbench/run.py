"""Benchmark of the ``wmix`` command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 wmixbench/run.py --workload analyze_sweep --seed 1 --seconds 34 --trace 0
    python3 wmixbench/run.py --self-test

The runner generates the workload's inputs from the seed, computes numpy
references for them, then starts one child interpreter that calls
``wmix.cli.main(argv)`` in a closed loop (one client, next op after the
previous returns) and checks every output. Interpreter start-up plus
``import wmix.cli`` is timed separately, in fresh interpreters, as
``setup_s``. The child runs with OpenBLAS pinned to one thread.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries per-layer calls, self times and computed
byte counts from a traced pass, plus the tracing overhead against an
untraced pass over the same ops. The line before it is the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".wmixbench"
MIN_OPS = 100
# setup_s samples per batch; one batch runs before the timed loop and one
# after it, so their median spans the run's machine conditions, not a few
# seconds of them
SETUP_REPEATS = 5
TRACE_ROUNDS = {"analyze_sweep": 4, "analyze_wide": 2, "verify_oracle": 4}
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_frac": "fraction",
}
PER_LAYER_UNITS = {
    **{f"{label}.calls": "count" for label in tracing.LABELS},
    **{f"{label}.self_s": "s" for label in tracing.LABELS},
    "statefile.bytes_in": "B",
    "statefile.bytes_out": "B",
    "oracle.dense_dim_max": "count",
    "oracle.dense_bytes": "B",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


def child_env(root: str) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_setup(root: str, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import ``wmix.cli`` and exit.

    One untimed start first writes any missing bytecode caches. The wait
    blocks in waitpid: ``Popen.wait(timeout)`` polls in steps of up to
    50 ms, which would quantize the samples, so a timer enforces the limit.
    """
    env = child_env(root)
    argv = [sys.executable, "-c", "import wmix.cli"]
    samples = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=root)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
    return samples[1:]


def git_sha(root: str):
    """HEAD commit read from ``.git`` without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def openblas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        return None


def run_child(root: str, workdir: str, plan: dict) -> dict:
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"), plan_path, result_path],
                   env=child_env(root), cwd=root, check=True, timeout=CHILD_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def failures_by_input(failures: list[dict]) -> dict:
    grouped: dict[str, dict] = {}
    for failure in failures:
        entry = grouped.setdefault(failure["input"], {
            "count": 0, "reason": failure["reason"], "stderr": failure["stderr"]})
        entry["count"] += 1
    return grouped


def quantile_ms(latencies: list[float], q: int) -> float:
    """q-th percentile (q in 1..99), interpolated as statistics.quantiles."""
    return statistics.quantiles(latencies, n=100)[q - 1] * 1e3


def round_quantile_ms(round_latencies: list[list[float]], q: int) -> float:
    """q-th percentile of each round's successful ops, averaged over rounds.

    Every round holds the same ops, so each round's percentile falls on the
    same op. On a shared host the op runs at a fast or a slow speed for
    seconds at a time; the percentile of the pooled run jumps between the
    two as the slow share crosses its rank, while the mean over rounds
    moves in proportion to it.
    """
    return statistics.fmean(quantile_ms(latencies, q) for latencies in round_latencies)


def end_to_end(outcome: dict, setup: list[float], maxrss_kb: int) -> dict:
    rounds = outcome["round_latencies_s"]
    successes = sum(len(latencies) for latencies in rounds)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": successes / outcome["timed_s"],
        "op_p50_ms": round_quantile_ms(rounds, 50),
        "op_p90_ms": round_quantile_ms(rounds, 90),
        "peak_rss_mb": maxrss_kb / 1024.0,
        "success_frac": successes / outcome["attempted"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(result: dict) -> dict:
    values = {f"{label}.calls": result["calls"][label] for label in tracing.LABELS}
    values.update({f"{label}.self_s": result["self_s"][label] for label in tracing.LABELS})
    values.update(result["counts"])
    values["trace.traced_s"] = result["traced"]["timed_s"]
    values["trace.overhead_s"] = result["traced"]["timed_s"] - result["untraced"]["timed_s"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, select=None,
        extra_ops=()) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record).

    ``select`` makes a quick run for the self-test: one round of the ops
    it picks from the workload's round, plus ``extra_ops``.
    """
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wmix", "cli.py")):
        raise FileNotFoundError("src/wmix/cli.py not found: run from the root of a wmix checkout")
    quick = select is not None
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(root), "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "openblas": openblas_version(), "child_env": CHILD_ENV,
        "loadavg_start": os.getloadavg(),
    }
    setup_repeats = 0 if trace else 1 if quick else SETUP_REPEATS
    setup = time_setup(root, setup_repeats) if setup_repeats else []
    workdir = os.path.join(root, OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.build(workload, seed, workdir)
        if quick:
            ops = select(ops) + list(extra_ops)
        plan = {
            "ops": ops, "seconds": 0 if quick else seconds,
            "min_ops": 0 if quick else MIN_OPS, "trace": trace,
            "trace_rounds": 1 if quick else TRACE_ROUNDS[workload],
            "op_seed_base": seed * 1_000_000,
            "spans_path": os.path.join(root, OUT_DIR, f"spans-{workload}.npz"),
        }
        result = run_child(root, workdir, plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup_repeats:
        setup += time_setup(root, setup_repeats)

    outcome = result["traced"] if trace else result["pass"]
    failed = len(outcome["failures"])
    record.update({
        "blas_threads_child": result["blas_threads"], "blas_config_child": result["blas_config"],
        "ops_per_round": len(ops), "rounds": outcome["rounds"],
        "attempted": outcome["attempted"], "failed": failed,
        "failed_frac": failed / outcome["attempted"],
        "rejected_outputs": outcome["rejected"],
        "failures_by_input": failures_by_input(outcome["failures"]),
        "timed_s": outcome["timed_s"], "setup_samples_s": setup,
        "loadavg_end": os.getloadavg(),
    })
    if trace:
        record["tracing_overhead_s"] = result["traced"]["timed_s"] - result["untraced"]["timed_s"]
        record["untraced_s"] = result["untraced"]["timed_s"]
        record["classify_calls_by_n"] = result["classify_calls_by_n"]
        record["spans_file"] = os.path.relpath(plan["spans_path"], root)
        metrics = per_layer(result)
    else:
        metrics = end_to_end(outcome, setup, result["maxrss_kb"])
    rejected = outcome["rejected"] + (result["untraced"]["rejected"] if trace else 0)
    line = {"correct": rejected == 0, "attempted": outcome["attempted"],
            "failed": failed, "metrics": metrics}
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="quick runs of every workload that check the benchmark itself")
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, subprocess.SubprocessError, statistics.StatisticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"run_record": record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
