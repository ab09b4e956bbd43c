"""Output checks: each returns None for correct output, else the reason.

Analyze reports are flattened to ``{key: value}`` with the keys that
workloads.analyze_reference uses, from either output format, and compared
with the precomputed reference within TOL. Per-cut verdicts are checked
against the components each input was built with.
"""

from __future__ import annotations

import json

import numpy as np

TOL = 1e-9
CSV_PREFIXES = ("single:", "cut:", "pairwise:", "bound:", "mono:", "mono_rhs:",
                "mono_res:", "part:", "part_rhs", "part_res")


def flatten_json(report: dict) -> dict:
    flat = {"vacuum": report["vacuum"]}
    for section, prefix in (("single_cut_negativity", "single:"),
                            ("pairwise_negativity", "pairwise:"),
                            ("pairwise_upper_bound", "bound:"),
                            ("bipartition_negativity", "cut:"),
                            ("requested_cut_negativity", "requested:")):
        for key, value in report.get(section, {}).items():
            flat[prefix + key] = value
    for row in report["monogamy_single"]:
        for term in row["terms"]:
            flat[f"mono:{row['focus']}:{term['partner']}"] = term["value"]
        flat[f"mono_rhs:{row['focus']}"] = row["rhs"]
        flat[f"mono_res:{row['focus']}"] = row["residual"]
    grouped = report.get("monogamy_partition")
    if grouped:
        for term in grouped["terms"]:
            flat["part:" + term["partner"]] = term["value"]
        flat["part_rhs"] = grouped["rhs"]
        flat["part_res"] = grouped["residual"]
    return flat


def flatten_csv(text: str, partition_key) -> dict:
    """Labels may hold unquoted commas, so fields are taken from the right."""
    lines = text.splitlines()
    if not lines or lines[0] != "section,label,partner,value,rhs,residual,equality":
        raise ValueError("missing CSV header")
    flat = {}
    prefixes = {"single_cut": "single:", "bipartition": "cut:",
                "pairwise": "pairwise:", "pairwise_bound": "bound:"}
    for line in lines[1:]:
        fields = line.split(",")
        section = fields[0]
        if section in prefixes:
            flat[prefixes[section] + ",".join(fields[1:-5])] = float(fields[-4])
        elif section == "monogamy_single":
            focus, partner = fields[1], ",".join(fields[2:-4])
            flat[f"mono:{focus}:{partner}"] = float(fields[-4])
            flat[f"mono_rhs:{focus}"] = float(fields[-3])
            flat[f"mono_res:{focus}"] = float(fields[-2])
        elif section == "monogamy_partition":
            middle = ",".join(fields[1:-4])
            if not middle.startswith(partition_key + ","):
                raise ValueError(f"partition row {line!r} names another partition")
            flat["part:" + middle[len(partition_key) + 1:]] = float(fields[-4])
            flat["part_rhs"] = float(fields[-3])
            flat["part_res"] = float(fields[-2])
        else:
            raise ValueError(f"unknown CSV section {section!r}")
    return flat


def compare(flat: dict, ref: dict):
    if flat.keys() != ref.keys():
        missing = sorted(ref.keys() - flat.keys())[:3]
        extra = sorted(flat.keys() - ref.keys())[:3]
        return f"report keys differ: missing {missing}, unexpected {extra}"
    worst = max(ref, key=lambda k: abs(flat[k] - ref[k]))
    if abs(flat[worst] - ref[worst]) > TOL:
        return f"{worst}: got {flat[worst]!r}, reference {ref[worst]!r}"
    return None


def check_verdicts(report: dict, check: dict):
    n = check["n"]
    verdicts = report["verdicts"]
    if verdicts["fully_separable"] is not False:
        return "fully_separable should be false: every input has coherence"
    if n > 16:  # beyond the enumeration cap only the global flag is reported
        return None if set(verdicts) == {"fully_separable"} else "unexpected verdict keys"
    component = np.zeros(n + 1, dtype=int)
    for index, comp in enumerate(check["components"]):
        component[comp] = index
    if verdicts["genuine"] != (len(check["components"]) == 1):
        return f"genuine is {verdicts['genuine']} with {len(check['components'])} components"
    per_cut = verdicts["per_cut"]
    if len(per_cut) != 2 ** (n - 1) - 1:
        return f"{len(per_cut)} per-cut verdicts, expected {2 ** (n - 1) - 1}"
    for key, verdict in per_cut.items():
        left, right = key.split("|")
        left_comps = {component[int(p)] for p in left.split(",")}
        right_comps = {component[int(p)] for p in right.split(",")}
        expected = "entangled" if left_comps & right_comps else "separable"
        if verdict != expected:
            return f"cut {key}: {verdict}, expected {expected} from the components"
    return None


def check_analyze_json(check: dict, stdout: str):
    report = json.loads(stdout)
    if (report["kind"], report["n"], report["d"]) != (check["kind"], check["n"], check["d"]):
        return "kind, n or d differs from the input"
    if check["kind"] == "w_pure" and report["genuine_rank"] != check["n"]:
        return f"genuine_rank {report['genuine_rank']}, expected {check['n']}"
    return compare(flatten_json(report), check["ref"]) or check_verdicts(report, check)


def check_analyze_csv(check: dict, stdout: str):
    ref = {k: v for k, v in check["ref"].items() if k.startswith(CSV_PREFIXES)}
    return compare(flatten_csv(stdout, check["partition_key"]), ref)


def check_make_mix(check: dict):
    with open(check["output"], "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if (data["kind"], data["n"], data["d"], data["vacuum"]) != ("w_mixed", check["n"], check["d"], 0):
        return "written state has the wrong kind, shape or vacuum"
    got = np.asarray(data["coeff_re"]) + 1j * np.asarray(data["coeff_im"])
    want = np.asarray(check["coeff_re"]) + 1j * np.asarray(check["coeff_im"])
    delta = float(np.abs(got - want).max())
    return None if delta <= TOL else f"coefficients differ by {delta:.3e}"


def check_verify(check: dict, stdout: str, argv):
    summary = json.loads(stdout)
    seed = int(argv[argv.index("--seed") + 1])
    if summary["seed"] != seed or summary["ok"] is not True or summary["violations"]:
        return f"verify reported ok={summary['ok']} with {len(summary['violations'])} violation(s)"
    if not summary["max_abs_delta"] <= TOL:
        return f"max_abs_delta {summary['max_abs_delta']!r} exceeds {TOL}"
    return None


def check(op: dict, argv, code, stdout: str):
    """Judge one op: ``(None, False)`` if it succeeded with correct output.

    Otherwise ``(reason, rejected)``, where ``rejected`` is true when the
    program exited 0 but its output is wrong, and false when it exited
    non-zero.
    """
    if code != 0:
        return f"exit {code}", False
    spec = op["check"]
    kind = spec["type"]
    try:
        if kind == "analyze_json":
            reason = check_analyze_json(spec, stdout)
        elif kind == "analyze_csv":
            reason = check_analyze_csv(spec, stdout)
        elif kind == "make_mix":
            reason = check_make_mix(spec)
        else:
            reason = check_verify(spec, stdout, argv)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    return reason, reason is not None
