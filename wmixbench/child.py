"""One client driving ``wmix.cli.main`` in-process, in a closed loop.

Usage: python3 child.py PLAN_JSON RESULT_JSON

Each op is one CLI invocation with its stdout and stderr captured. Only
the ``main`` call is timed; the output check runs after it. The loop
repeats whole rounds of the plan's ops. Untraced, it stops at the first
round end after ``seconds`` of timed ops and ``min_ops`` ops. Traced, it
runs a fixed number of rounds, each once untraced and then once traced,
so call and byte counts repeat exactly for a seed and the difference of
the two passes' wall times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
import tracing

LOOP_WALL_CAP_S = 120.0
WARM_UP_SEED_OFFSET = 999_999  # beyond the op seeds any run reaches


def blas_info():
    """OpenBLAS thread count and build string, as loaded by numpy."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_threads(), get_config().decode()
    return None, None


def materialize(op: dict, op_seed: int) -> list[str]:
    argv = list(op["argv"])
    if op["check"]["type"] == "verify":
        argv += ["--seed", str(op_seed)]
    return argv


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op, not a harness failure
            code = "crash: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Pass:
    """Outcomes of a sequence of ops."""

    def __init__(self):
        self.latencies: list[float] = []   # successful ops only
        self.timed_s = 0.0                 # every op, failed ones included
        self.attempted = 0
        self.failures: list[dict] = []
        self.rejected = 0                  # exit 0 with wrong output
        self.rounds = 0
        self.round_latencies: list[list[float]] = []  # successful ops, per round
        self.op_n: list[int] = []

    def record(self, op, argv, elapsed, code, stdout, stderr) -> None:
        self.attempted += 1
        self.timed_s += elapsed
        self.op_n.append(op["check"].get("n", 0))
        reason, rejected = checks.check(op, argv, code, stdout)
        if reason is None:
            self.latencies.append(elapsed)
            return
        self.rejected += rejected
        message = stderr.strip().splitlines()[0] if stderr.strip() else ""
        self.failures.append({"input": op["label"], "argv": argv,
                              "reason": reason, "stderr": message[:300]})

    def end_round(self, successes_before: int) -> None:
        self.rounds += 1
        self.round_latencies.append(self.latencies[successes_before:])

    def to_dict(self) -> dict:
        return {"round_latencies_s": self.round_latencies, "timed_s": self.timed_s,
                "attempted": self.attempted, "failures": self.failures,
                "rejected": self.rejected, "rounds": self.rounds}


def run_round(cli, plan, result: Pass, round_index: int, tracer=None) -> None:
    """All ops of the plan once; verify ops get seeds unique to the round."""
    ops = plan["ops"]
    successes_before = len(result.latencies)
    for i, op in enumerate(ops):
        argv = materialize(op, plan["op_seed_base"] + round_index * len(ops) + i)
        if tracer is not None:
            tracer.op_index = result.attempted
        result.record(op, argv, *run_op(cli, argv))
    result.end_round(successes_before)


def run_timed(cli, plan) -> Pass:
    """Whole rounds until ``seconds`` of timed ops and ``min_ops`` ops."""
    result = Pass()
    began = time.perf_counter()
    while True:
        run_round(cli, plan, result, result.rounds)
        if result.timed_s >= plan["seconds"] and result.attempted >= plan["min_ops"]:
            return result
        if time.perf_counter() - began > LOOP_WALL_CAP_S:
            return result


def run_traced(cli, plan, tracer) -> tuple[Pass, Pass]:
    """Each round once untraced, then once traced with the same argv, so
    both passes see the same ops under the same machine conditions."""
    untraced, traced = Pass(), Pass()
    for round_index in range(plan["trace_rounds"]):
        run_round(cli, plan, untraced, round_index)
        tracer.install()
        try:
            run_round(cli, plan, traced, round_index, tracer)
        finally:
            tracer.uninstall()
    return untraced, traced


def warm_up(cli, plan) -> None:
    """One untimed op of each check type, so lazy imports and first-call
    set-up are paid before timing, as a long-lived caller would."""
    seen = set()
    for op in plan["ops"]:
        if op["check"]["type"] not in seen:
            seen.add(op["check"]["type"])
            run_op(cli, materialize(op, plan["op_seed_base"] + WARM_UP_SEED_OFFSET))


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    from wmix import cli

    threads, config = blas_info()
    warm_up(cli, plan)
    result = {"blas_threads": threads, "blas_config": config}
    if plan["trace"]:
        tracer = tracing.Tracer()
        untraced, traced = run_traced(cli, plan, tracer)
        tracer.save(plan["spans_path"])
        classify_by_n: dict[str, int] = {}
        for n, count in zip(traced.op_n, tracer.calls_by_op("closed_form.classify")):
            classify_by_n[str(n)] = classify_by_n.get(str(n), 0) + int(count)
        result.update(untraced=untraced.to_dict(), traced=traced.to_dict(),
                      calls=tracer.calls, counts=tracer.counts,
                      self_s=tracer.self_seconds(), classify_calls_by_n=classify_by_n)
    else:
        result["pass"] = run_timed(cli, plan).to_dict()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
