"""Command-line surface: build state files, analyze them, run verification sweeps.

Reports go to standard output as canonical JSON (or CSV with
``--format csv``); human prose goes to the error stream only. Exit
codes: 0 ok, 1 verification violation, 2 bad input, 3 capacity
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import closed_form, monogamy, oracle
from .errors import CapacityError, ContractViolationError, WmixError
from .partitions import Bipartition, enumerate_bipartitions, parse_cut, parse_partition
from .sampler import SampleConfig, random_mixed
from .statefile import (
    dumps_canonical,
    dumps_state,
    fingerprint,
    load_state,
    state_to_dict,
)
from .states import (
    PureGeneralizedW,
    SystemShape,
    WMixedState,
    as_mixed_state,
    make_generalized_w,
    make_w_state,
    mix,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_CAPACITY = 3

ORACLE_DELTA_TOL = 1e-9
RESIDUAL_TOL = 1e-10
MAX_ENUMERATED_ANALYZE = 10


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ContractViolationError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (WmixError, ValueError, IndexError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmix",
        description="Entanglement analysis for vacuum + single-excitation mixed states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    make = sub.add_parser("make", help="write a state file")
    make_sub = make.add_subparsers(dest="what", required=True)

    make_w = make_sub.add_parser("w", help="uniform W state (as its mixed projector)")
    make_w.add_argument("--n", type=int, required=True, help="party count")
    make_w.add_argument("--d", type=int, default=2, help="local dimension (default 2)")
    make_w.add_argument("-o", "--output", help="output path (default: stdout)")
    make_w.set_defaults(handler=_cmd_make_w)

    make_pure = make_sub.add_parser("pure", help="pure state from amplitudes")
    make_pure.add_argument(
        "--amps", required=True,
        help="comma-separated complex amplitudes, or a path to a file holding them")
    make_pure.add_argument("--n", type=int, help="party count (default: inferred)")
    make_pure.add_argument("--d", type=int, default=2, help="local dimension (default 2)")
    make_pure.add_argument("-o", "--output", help="output path (default: stdout)")
    make_pure.set_defaults(handler=_cmd_make_pure)

    make_mix = make_sub.add_parser("mix", help="mixed state from an ensemble file")
    make_mix.add_argument(
        "--ensemble", required=True,
        help="JSON file: {n, d, states: [{weight, amp_re, amp_im}, ...]}")
    make_mix.add_argument("-o", "--output", help="output path (default: stdout)")
    make_mix.set_defaults(handler=_cmd_make_mix)

    analyze = sub.add_parser("analyze", help="full entanglement report for a state file")
    analyze.add_argument("state", help="state file to analyze")
    analyze.add_argument("--partition", help="grouped monogamy partition, e.g. 1,2|3|4")
    analyze.add_argument("--cut", help="extra bipartition to report, e.g. 1|2,3")
    analyze.add_argument("--format", choices=("json", "csv"), default="json")
    analyze.add_argument("--oracle", action="store_true",
                         help="cross-check closed forms against the dense oracle")
    analyze.add_argument("--budget", type=int, default=oracle.DENSE_BUDGET,
                         help="max dense dimension for oracle work (default 4096)")
    analyze.set_defaults(handler=_cmd_analyze)

    verify = sub.add_parser(
        "verify", help="sampled sweep comparing closed forms to the dense oracle")
    verify.add_argument("--n", type=int, required=True, help="party count")
    verify.add_argument("--d", type=int, default=2, help="local dimension (default 2)")
    verify.add_argument("--count", type=int, default=100, help="sample count (default 100)")
    verify.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
    verify.add_argument("--budget", type=int, default=oracle.DENSE_BUDGET,
                        help="max dense dimension (default 4096)")
    verify.add_argument("--self-test-corrupt", action="store_true",
                        help="perturb the closed-form values to prove the harness "
                             "flags violations (must exit 1)")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def _write_output(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_make_w(args) -> int:
    if args.d == 2:
        state = make_w_state(args.n)
    else:
        shape = SystemShape(args.n, args.d)
        amps = np.full(shape.n_labels, 1.0 / np.sqrt(shape.n_labels))
        state = make_generalized_w(amps, shape)
    _write_output(dumps_state(as_mixed_state(state)), args.output)
    return EXIT_OK


def _parse_amplitudes(text: str) -> np.ndarray:
    import os

    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    tokens = [tok.strip() for tok in text.replace("\n", ",").split(",") if tok.strip()]
    if not tokens:
        raise ValueError("no amplitudes given")
    try:
        return np.asarray([complex(tok) for tok in tokens])
    except ValueError as exc:
        raise ValueError(f"cannot parse amplitudes {text!r}: {exc}") from exc


def _cmd_make_pure(args) -> int:
    amps = _parse_amplitudes(args.amps)
    if args.n is not None:
        shape = SystemShape(args.n, args.d)
    else:
        if len(amps) % (args.d - 1):
            raise ValueError(
                f"{len(amps)} amplitudes do not fit local dimension {args.d}")
        shape = SystemShape(len(amps) // (args.d - 1), args.d)
    state = make_generalized_w(amps, shape)
    _write_output(dumps_state(state), args.output)
    return EXIT_OK


def _cmd_make_mix(args) -> int:
    with open(args.ensemble, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "states" not in data:
        raise ValueError("ensemble file must be an object with a 'states' list")
    shape = SystemShape(int(data["n"]), int(data.get("d", 2)))
    ensemble = []
    for entry in data["states"]:
        re = np.asarray(entry["amp_re"], dtype=float)
        im = np.asarray(entry.get("amp_im", np.zeros_like(re)), dtype=float)
        ensemble.append(
            (float(entry["weight"]), make_generalized_w(re + 1j * im, shape)))
    _write_output(dumps_state(mix(ensemble)), args.output)
    return EXIT_OK


def _cut_key(cut: Bipartition) -> str:
    return str(cut)


def _parties_key(parties) -> str:
    return ",".join(str(p) for p in parties)


def _report_dict(report: monogamy.MonogamyReport) -> dict:
    return {
        "focus": _parties_key(report.focus),
        "terms": [
            {"partner": _parties_key(partner), "value": value}
            for partner, value in report.terms
        ],
        "rhs": report.rhs,
        "residual": report.residual,
        "equality": report.equality_flag,
        "inferred_separability": (
            None if report.inferred_separability is None
            else [_cut_key(cut) for cut in report.inferred_separability]),
    }


def _analysis_report(state, mixed: WMixedState, args) -> dict:
    n = mixed.shape.n_parties
    report: dict = {
        "fingerprint": fingerprint(state),
        "kind": state_to_dict(state)["kind"],
        "n": n,
        "d": mixed.shape.local_dim,
        "vacuum": mixed.vacuum_weight,
    }
    if isinstance(state, PureGeneralizedW):
        report["genuine_rank"] = closed_form.genuine_rank_of_pure(state)

    report["single_cut_negativity"] = {
        str(p): closed_form.negativity_cut(mixed, Bipartition.single(p, n))
        for p in range(1, n + 1)
    }
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    report["pairwise_negativity"] = {
        f"{a},{b}": closed_form.pairwise_negativity(mixed, a, b) for a, b in pairs
    }
    report["pairwise_upper_bound"] = {
        f"{a},{b}": closed_form.pairwise_upper_bound(mixed, a, b) for a, b in pairs
    }

    verdict = (closed_form.classify(mixed)
               if n <= closed_form.MAX_ENUMERATED_PARTIES else None)
    cuts = list(verdict.per_cut) if n <= MAX_ENUMERATED_ANALYZE else []
    if cuts:
        report["bipartition_negativity"] = {
            _cut_key(cut): closed_form.negativity_cut(mixed, cut) for cut in cuts
        }
    if args.cut:
        cut = parse_cut(args.cut, n)
        report["requested_cut_negativity"] = {
            _cut_key(cut): closed_form.negativity_cut(mixed, cut)
        }

    if verdict is not None:
        report["verdicts"] = {
            "fully_separable": verdict.fully_separable,
            "genuine": verdict.genuine,
            "per_cut": {
                _cut_key(cut): ("separable" if sep else "entangled")
                for cut, sep in verdict.per_cut.items()
            },
        }
    else:
        report["verdicts"] = {
            "fully_separable": closed_form.is_fully_separable(mixed)}

    if n >= 3:
        report["monogamy_single"] = [
            _report_dict(monogamy.monogamy_single(mixed, focus))
            for focus in range(1, n + 1)
        ]
    else:
        report["monogamy_single"] = []
    if args.partition:
        blocks = parse_partition(args.partition, n)
        grouped = monogamy.monogamy_partition(mixed, blocks)
        report["monogamy_partition"] = dict(
            partition="|".join(_parties_key(b) for b in blocks),
            **_report_dict(grouped))

    if args.oracle:
        dense = oracle.embed_dense(mixed, budget=args.budget)
        check_cuts = cuts if cuts else [
            Bipartition.single(p, n) for p in range(1, n + 1)]
        max_delta = 0.0
        for cut in check_cuts:
            delta = abs(closed_form.negativity_cut(mixed, cut)
                        - oracle.negativity_dense(dense, cut))
            max_delta = max(max_delta, delta)
        report["oracle"] = {
            "cuts_checked": len(check_cuts), "max_abs_delta": max_delta}

    return report


def _analysis_csv(report: dict) -> str:
    from .statefile import format_float

    def fmt(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format_float(value)
        return str(value)

    lines = ["section,label,partner,value,rhs,residual,equality"]
    for label, value in report["single_cut_negativity"].items():
        lines.append(f"single_cut,{label},,{fmt(value)},,,")
    for label, value in report.get("bipartition_negativity", {}).items():
        lines.append(f"bipartition,{label},,{fmt(value)},,,")
    for label, value in report["pairwise_negativity"].items():
        lines.append(f"pairwise,{label},,{fmt(value)},,,")
    for label, value in report["pairwise_upper_bound"].items():
        lines.append(f"pairwise_bound,{label},,{fmt(value)},,,")
    for row in report["monogamy_single"]:
        for term in row["terms"]:
            lines.append(
                f"monogamy_single,{row['focus']},{term['partner']},{fmt(term['value'])},"
                f"{fmt(row['rhs'])},{fmt(row['residual'])},{fmt(row['equality'])}")
    grouped = report.get("monogamy_partition")
    if grouped:
        for term in grouped["terms"]:
            lines.append(
                f"monogamy_partition,{grouped['partition']},{term['partner']},"
                f"{fmt(term['value'])},{fmt(grouped['rhs'])},"
                f"{fmt(grouped['residual'])},{fmt(grouped['equality'])}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    state = load_state(args.state)
    mixed = state if isinstance(state, WMixedState) else as_mixed_state(state)
    report = _analysis_report(state, mixed, args)
    if args.format == "csv":
        sys.stdout.write(_analysis_csv(report))
    else:
        sys.stdout.write(dumps_canonical(report) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    shape = SystemShape(args.n, args.d)
    if shape.dense_dim > args.budget:
        raise CapacityError(
            f"dense dimension {shape.dense_dim} exceeds budget {args.budget}")
    config = SampleConfig(
        n_parties=args.n, local_dim=args.d, count=args.count,
        seed=args.seed, kind="mixed_ginibre")
    cuts = (enumerate_bipartitions(args.n)
            if args.n <= MAX_ENUMERATED_ANALYZE
            else [Bipartition.single(p, args.n) for p in range(1, args.n + 1)])
    corrupt = 1e-6 if args.self_test_corrupt else 0.0

    max_delta = 0.0
    min_residual = float("inf")
    violations: list[dict] = []
    for index, state in enumerate(random_mixed(config)):
        dense = oracle.embed_dense(state, budget=args.budget)
        for cut in cuts:
            spectrum = oracle.hermitian_spectrum(
                oracle.partial_transpose(dense, cut.right))
            closed = closed_form.negativity_cut(state, cut) + corrupt
            brute = oracle.negativity_from_spectrum(spectrum)
            delta = abs(closed - brute)
            max_delta = max(max_delta, delta)
            if delta > ORACLE_DELTA_TOL:
                violations.append({
                    "index": index, "seed": args.seed, "check": "negativity",
                    "cut": _cut_key(cut), "delta": delta})
            ppt_closed = closed_form.is_ppt_cut(state, cut)
            ppt_dense = bool(spectrum[0] >= -RESIDUAL_TOL)
            if ppt_closed != ppt_dense:
                violations.append({
                    "index": index, "seed": args.seed, "check": "ppt",
                    "cut": _cut_key(cut),
                    "closed": ppt_closed, "dense": ppt_dense})
        if args.n >= 3:
            for focus in range(1, args.n + 1):
                residual = monogamy.monogamy_single(state, focus).residual
                min_residual = min(min_residual, residual)
                if residual < -RESIDUAL_TOL:
                    violations.append({
                        "index": index, "seed": args.seed, "check": "monogamy",
                        "focus": str(focus), "residual": residual})

    summary = {
        "n": args.n, "d": args.d, "count": args.count, "seed": args.seed,
        "cuts_per_sample": len(cuts),
        "max_abs_delta": max_delta,
        "min_monogamy_residual": (None if min_residual == float("inf")
                                  else min_residual),
        "violations": violations,
        "ok": not violations,
    }
    sys.stdout.write(dumps_canonical(summary) + "\n")
    status = "ok" if not violations else f"{len(violations)} violation(s)"
    print(
        f"verified {args.count} samples at n={args.n}, d={args.d}: {status}; "
        f"max |closed - dense| = {max_delta:.3e}", file=sys.stderr)
    return EXIT_OK if not violations else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
