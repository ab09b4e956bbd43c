"""Quick self-test of the benchmark itself (``run.py --self-test``).

For every workload it makes quick runs (one round of a few ops) on the
default seed and on a held-out seed, traced and untraced, and checks:

- every metric BENCHMARK.json names is emitted, with its unit;
- every output check passes, so the checks do not depend on one seed;
- each failed op is either the known false "violation" on a dephased
  input or a ``wmix verify --self-test-corrupt`` op, which must fail;
- call and byte counts repeat exactly between two traced runs of a seed.
"""

from __future__ import annotations

import json
import statistics

import run
import workloads

SEEDS = (1, 90210)  # the default seed and one held out from tuning
CORRUPT_OP = {
    "label": "verify_self_test_corrupt",
    "argv": ["verify", "--n", "3", "--count", "1", "--self-test-corrupt"],
    "check": {"type": "verify"},
}
EXACT_SUFFIXES = (".calls", ".bytes_in", ".bytes_out", ".dense_dim_max", ".dense_bytes")


def quick_ops(ops: list[dict]) -> list[dict]:
    """The first op of each (check type, register size) in the round."""
    chosen = {}
    for op in ops:
        chosen.setdefault((op["check"]["type"], op["check"].get("n", 0)), op)
    return list(chosen.values())


def check_run(line: dict, record: dict, units: dict, with_corrupt: bool) -> list[str]:
    problems = []
    emitted = {name: metric["unit"] for name, metric in line["metrics"].items()}
    if emitted != units:
        problems.append(f"metrics {sorted(set(emitted) ^ set(units))} or their units "
                        "differ from BENCHMARK.json")
    if not line["correct"]:
        problems.append("an output check rejected a completed op")
    failures = record["failures_by_input"]
    for label, failure in failures.items():
        known = (label == CORRUPT_OP["label"]
                 or (label.startswith("dephased_") and failure["stderr"].startswith("violation")))
        if not known:
            problems.append(f"unexpected failure on {label}: {failure['reason']}")
    if with_corrupt and CORRUPT_OP["label"] not in failures:
        problems.append("the --self-test-corrupt op was not counted as failed")
    if line["failed"] != sum(f["count"] for f in failures.values()):
        problems.append("failed count disagrees with the failures listed by input")
    return problems


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    units = {trace: {m["name"]: m["unit"] for m in bench[key]}
             for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    problems = []
    for workload in workloads.WORKLOADS:
        extra = [CORRUPT_OP] if workload == "verify_oracle" else []
        counts = []
        for seed in SEEDS:
            for trace in (False, True, True) if seed == SEEDS[0] else (False, True):
                where = f"{workload} seed={seed} trace={int(trace)}"
                try:
                    line, record = run.run(workload, seed, 0, trace, select=quick_ops,
                                           extra_ops=extra)
                except statistics.StatisticsError:
                    problems.append(f"{where}: fewer than two ops succeeded")
                    continue
                problems += [f"{where}: {p}" for p in
                             check_run(line, record, units[trace], bool(extra))]
                print(f"{where}: {line['attempted']} ops, {line['failed']} failed",
                      flush=True)
                if trace and seed == SEEDS[0]:
                    counts.append({name: m["value"] for name, m in line["metrics"].items()
                                   if name.endswith(EXACT_SUFFIXES)})
        if len(counts) == 2 and counts[0] != counts[1]:
            changed = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            problems.append(f"{workload}: counts differ between two traced runs: {changed}")
    for problem in problems:
        print("FAIL", problem, flush=True)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
