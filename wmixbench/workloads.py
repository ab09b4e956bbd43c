"""Inputs, numpy references and op lists for the benchmark workloads.

Everything here depends only on numpy and the workload seed. The program
under test sees nothing but the state files this module writes and the
argv of each op. References are computed here, before any op is timed,
from the paper's closed forms written directly against the coefficient
matrix: a cut's negativity is (sqrt(p0^2 + 4 B^2) - p0) / 2 with B^2 the
summed squared moduli of the coefficients linking its two sides.

Each workload is a fixed *round* of ops. child.py repeats whole rounds,
so the op mix, and with it every percentile, is the same on every seed;
the seed changes only the contents of the inputs and the verify seeds.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("analyze_sweep", "analyze_wide", "verify_oracle")

# analyze_sweep round: five inputs (one per kind) in each (N, d) cell, with
# N=6 and N=10 cells doubled, plus SWEEP_MIXES cheap ``make mix`` ops. Op
# latency grows with N, with the largest steps at N=8 -> 9 -> 10. In this
# mix p50 falls inside the N=6 ops and p90 inside the N=10 ops, each at
# least 5 % of the successful ops away from the next size.
SWEEP_CELLS = tuple((n, d) for n in range(3, 11) for d in (2, 3)) + (
    (6, 2), (6, 3), (10, 2), (10, 3))
SWEEP_MIXES = 12

# Dephasing scales 1e-1..1e-8, assigned to the sweep cells in order, so the
# scale of each cell, and which inputs hit the false "violation", does not
# depend on the seed.
DEPHASE_EXPONENTS = tuple(range(1, 9))

# analyze_wide round: (N, count). Sorted by latency the ops fall into
# clusters N=20 < 11 < 12 < 13 < 14 holding 10/20/40/10/20 % of the round,
# so p50 is the middle of the N=12 ops and p90 the middle of the N=14 ops.
WIDE_ROUND = ((20, 2), (11, 4), (12, 8), (13, 2), (14, 4))

# verify_oracle round: n=6 pairs < n=7 < d=3 n=5 hold 20/60/20 % of the
# ops, so p50 is the middle of the n=7 ops and p90 the middle of d=3 n=5.
VERIFY_ROUND = (
    (("--n", "6", "--count", "2"), 2),
    (("--n", "7", "--count", "1"), 6),
    (("--d", "3", "--n", "5", "--count", "1"), 2),
)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


# --------------------------------------------------------------- states

def label_parties(n: int, d: int) -> np.ndarray:
    """Party (1..N) owning each excitation label, in storage order.

    Labels are position-major, level-minor, with positions counted from
    the right end of the ket string, so party i holds position N + 1 - i.
    """
    positions = np.repeat(np.arange(1, n + 1), d - 1)
    return n + 1 - positions


def _ginibre(rng, k: int) -> np.ndarray:
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    coeff = g @ g.conj().T
    coeff = (coeff + coeff.conj().T) / 2.0
    return coeff / float(coeff.trace().real)


def _random_amplitudes(rng, k: int) -> np.ndarray:
    z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return z / np.linalg.norm(z)


class Input:
    """One generated state: vacuum weight, coefficients, known components."""

    def __init__(self, label, n, d, p0, coeff, components, amps=None):
        self.label = label
        self.n = n
        self.d = d
        self.p0 = float(p0)
        self.coeff = coeff
        self.components = [sorted(int(p) for p in comp) for comp in components]
        self.amps = amps  # set for pure states, written as kind w_pure

    def to_file_dict(self) -> dict:
        if self.amps is not None:
            return {"kind": "w_pure", "n": self.n, "d": self.d,
                    "amp_re": self.amps.real.tolist(),
                    "amp_im": self.amps.imag.tolist()}
        return {"kind": "w_mixed", "n": self.n, "d": self.d, "vacuum": self.p0,
                "coeff_re": self.coeff.real.tolist(),
                "coeff_im": self.coeff.imag.tolist()}


def make_ginibre(rng, label, n, d) -> Input:
    return Input(label, n, d, 0.0, _ginibre(rng, n * (d - 1)), [range(1, n + 1)])


def make_zero_row(rng, label, n, d) -> Input:
    """Ginibre with one party's whole label block zeroed: that party is an
    isolated component and the rest stays connected."""
    coeff = _ginibre(rng, n * (d - 1))
    party = int(rng.integers(1, n + 1))
    block = label_parties(n, d) == party
    coeff[block, :] = 0.0
    coeff[:, block] = 0.0
    coeff /= float(coeff.trace().real)
    rest = [p for p in range(1, n + 1) if p != party]
    return Input(label, n, d, 0.0, coeff, [[party], rest])


def make_pure(rng, label, n, d) -> Input:
    amps = _random_amplitudes(rng, n * (d - 1))
    return Input(label, n, d, 0.0, np.outer(amps, amps.conj()),
                 [range(1, n + 1)], amps=amps)


def make_reduced(rng, label, n, d) -> Input:
    """Ginibre on N + r parties with r random parties traced out (p0 > 0).

    Kept labels stay in storage order, which is the storage order of the
    reduced register because surviving positions keep their order.
    """
    full_n = n + int(rng.integers(1, 3))
    coeff = _ginibre(rng, full_n * (d - 1))
    traced = rng.choice(np.arange(1, full_n + 1), size=full_n - n, replace=False)
    keep = ~np.isin(label_parties(full_n, d), traced)
    p0 = float(coeff.diagonal().real[~keep].sum())
    return Input(label, n, d, p0, coeff[np.ix_(keep, keep)], [range(1, n + 1)])


def make_dephased(rng, label, n, d, scale) -> Input:
    """Ginibre with every coherence scaled by ``scale`` (stays PSD: a convex
    mix of the state and its diagonal)."""
    coeff = _ginibre(rng, n * (d - 1))
    diag = coeff.diagonal().copy()
    coeff = coeff * scale
    np.fill_diagonal(coeff, diag)
    return Input(label, n, d, 0.0, coeff, [range(1, n + 1)])


def make_blocks(rng, label, n, d, n_components) -> Input:
    """Independent Ginibre blocks on random groups of >= 2 parties, zero
    coherence between groups: the groups are exactly the components."""
    order = rng.permutation(np.arange(1, n + 1))
    cuts = sorted(rng.choice(np.arange(2, n - 1), size=n_components - 1, replace=False))
    while any(b - a < 2 for a, b in zip([0] + cuts, cuts + [n])):
        cuts = sorted(rng.choice(np.arange(2, n - 1), size=n_components - 1, replace=False))
    groups = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    owners = label_parties(n, d)
    coeff = np.zeros((len(owners), len(owners)), dtype=complex)
    for group in groups:
        idx = np.flatnonzero(np.isin(owners, group))
        coeff[np.ix_(idx, idx)] = _ginibre(rng, len(idx)) * rng.uniform(0.5, 1.5)
    coeff /= float(coeff.trace().real)
    return Input(label, n, d, 0.0, coeff, groups)


# ----------------------------------------------------------- references

def _negativity(p0: float, b2: float) -> float:
    return 0.5 * (math.hypot(p0, 2.0 * math.sqrt(max(b2, 0.0))) - p0)


def _key(parties) -> str:
    return ",".join(str(p) for p in sorted(parties))


def cut_key(left, n: int) -> str:
    right = [p for p in range(1, n + 1) if p not in set(left)]
    return _key(left) + "|" + _key(right)


def party_stats(state: Input):
    """(W, m): squared Frobenius norms of party-pair blocks, party masses."""
    owners = label_parties(state.n, state.d) - 1
    onehot = np.zeros((state.n, len(owners)))
    onehot[owners, np.arange(len(owners))] = 1.0
    w = onehot @ (np.abs(state.coeff) ** 2) @ onehot.T
    m = onehot @ state.coeff.diagonal().real
    return w, m


def analyze_reference(state: Input, cut_left, partition) -> dict:
    """Every number ``wmix analyze`` reports, keyed as in checks.flatten_*."""
    n, p0 = state.n, state.p0
    w, m = party_stats(state)
    ref: dict[str, float] = {"vacuum": p0}

    def cross(left, right) -> float:
        return float(w[np.ix_([p - 1 for p in left], [p - 1 for p in right])].sum())

    def pair(a, b) -> float:
        s = p0 + float(m.sum() - m[a - 1] - m[b - 1])
        return _negativity(s, float(w[a - 1, b - 1]))

    single = {}
    for p in range(1, n + 1):
        single[p] = _negativity(p0, float(w[p - 1].sum() - w[p - 1, p - 1]))
        ref[f"single:{p}"] = single[p]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            ref[f"pairwise:{a},{b}"] = pair(a, b)
            ref[f"bound:{a},{b}"] = math.sqrt(float(w[a - 1, b - 1]))
    if n <= 10:  # ``analyze`` lists every bipartition only up to N = 10
        masks = np.arange(2 ** (n - 1) - 1)
        left = np.ones((len(masks), n), dtype=bool)
        left[:, 1:] = (masks[:, None] >> np.arange(n - 1)) & 1
        b2 = ((left @ w) * ~left).sum(axis=1)
        for row, value in zip(left, b2):
            ref["cut:" + cut_key(np.flatnonzero(row) + 1, n)] = _negativity(p0, value)
    if cut_left is not None:
        right = [p for p in range(1, n + 1) if p not in cut_left]
        ref["requested:" + cut_key(cut_left, n)] = _negativity(p0, cross(cut_left, right))
    if n >= 3:
        for f in range(1, n + 1):
            terms = {p: pair(f, p) ** 2 for p in range(1, n + 1) if p != f}
            for p, value in terms.items():
                ref[f"mono:{f}:{p}"] = value
            ref[f"mono_rhs:{f}"] = single[f] ** 2
            ref[f"mono_res:{f}"] = single[f] ** 2 - sum(terms.values())
    if partition is not None:
        focus = partition[0]
        terms = []
        for partner in partition[1:]:
            kept = set(focus) | set(partner)
            outside = [p - 1 for p in range(1, n + 1) if p not in kept]
            value = _negativity(p0 + float(m[outside].sum()), cross(focus, partner)) ** 2
            ref["part:" + _key(partner)] = value
            terms.append(value)
        rest = [p for p in range(1, n + 1) if p not in focus]
        rhs = _negativity(p0, cross(focus, rest)) ** 2
        ref["part_rhs"] = rhs
        ref["part_res"] = rhs - sum(terms)
    return ref


# ---------------------------------------------------------------- plans

def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _analyze_op(state: Input, workdir: str, rng, with_args: bool, fmt: str) -> dict:
    path = os.path.join(workdir, state.label + ".state.json")
    _write_json(path, state.to_file_dict())
    argv = ["analyze", path]
    cut_left = partition = None
    if with_args:
        n = state.n
        order = [int(p) for p in rng.permutation(np.arange(1, n + 1))]
        cut_left = sorted(order[: int(rng.integers(1, n))])
        n_blocks = int(rng.integers(3, min(n, 4) + 1))
        bounds = sorted(rng.choice(np.arange(1, n), size=n_blocks - 1, replace=False))
        partition = [sorted(order[a:b]) for a, b in zip([0] + bounds, bounds + [n])]
        argv += ["--partition", "|".join(_key(b) for b in partition),
                 "--cut", cut_key(cut_left, n)]
    if fmt == "csv":
        argv += ["--format", "csv"]
    check = {
        "type": "analyze_" + fmt, "n": state.n, "d": state.d,
        "kind": "w_pure" if state.amps is not None else "w_mixed",
        "components": state.components,
        "partition_key": None if partition is None else "|".join(_key(b) for b in partition),
        "ref": analyze_reference(state, cut_left, partition),
    }
    return {"label": state.label, "argv": argv, "check": check}


def _make_mix_op(rng, workdir: str, index: int, n: int, d: int) -> dict:
    k = n * (d - 1)
    amps = [_random_amplitudes(rng, k) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    coeff = sum(float(wt) * np.outer(a, a.conj()) for wt, a in zip(weights, amps))
    coeff /= float(coeff.trace().real)
    label = f"mix{index}_n{n}_d{d}"
    ensemble = os.path.join(workdir, label + ".ensemble.json")
    _write_json(ensemble, {"n": n, "d": d, "states": [
        {"weight": float(wt), "amp_re": a.real.tolist(), "amp_im": a.imag.tolist()}
        for wt, a in zip(weights, amps)]})
    output = os.path.join(workdir, label + ".state.json")
    return {"label": label,
            "argv": ["make", "mix", "--ensemble", ensemble, "-o", output],
            "check": {"type": "make_mix", "n": n, "d": d, "output": output,
                      "coeff_re": coeff.real.tolist(), "coeff_im": coeff.imag.tolist()}}


def analyze_sweep(rng, workdir: str) -> list[dict]:
    """Small registers of every input kind, plus ``make mix`` writes."""
    ops = []
    for cell, (n, d) in enumerate(SWEEP_CELLS):
        scale = 10.0 ** -DEPHASE_EXPONENTS[cell % len(DEPHASE_EXPONENTS)]
        states = [
            make_ginibre(rng, f"ginibre_n{n}_d{d}_{cell}", n, d),
            make_zero_row(rng, f"zero_row_n{n}_d{d}_{cell}", n, d),
            make_pure(rng, f"pure_n{n}_d{d}_{cell}", n, d),
            make_reduced(rng, f"reduced_n{n}_d{d}_{cell}", n, d),
            make_dephased(rng, f"dephased_n{n}_d{d}_s{scale:.0e}_{cell}", n, d, scale),
        ]
        for i, state in enumerate(states):
            fmt = "csv" if (cell + i) % 4 == 3 else "json"
            ops.append(_analyze_op(state, workdir, rng, True, fmt))
    for index in range(SWEEP_MIXES):
        ops.append(_make_mix_op(rng, workdir, index, 3 + index % 8, 2 + index % 2))
    return ops


def analyze_wide(rng, workdir: str) -> list[dict]:
    """N = 11..14 (and 20) registers, connected or split into 2-3 blocks."""
    ops = []
    for n, count in WIDE_ROUND:
        for i in range(count):
            if i % 2 == 0:
                state = make_ginibre(rng, f"connected_n{n}_{i}", n, 2)
            else:
                comps = 2 + (i // 2) % 2
                state = make_blocks(rng, f"blocks{comps}_n{n}_{i}", n, 2, comps)
            ops.append(_analyze_op(state, workdir, rng, False, "json"))
    return ops


def verify_oracle(rng, workdir: str) -> list[dict]:
    """Dense-oracle sweeps; child.py gives each op its own --seed."""
    ops = []
    for args, count in VERIFY_ROUND:
        for _ in range(count):
            label = "verify_" + "_".join(a.lstrip("-") for a in args)
            n = int(args[args.index("--n") + 1])
            ops.append({"label": label, "argv": ["verify", *args],
                        "check": {"type": "verify", "n": n}})
    return ops


ROUND_OPS = {
    "analyze_sweep": analyze_sweep,
    "analyze_wide": analyze_wide,
    "verify_oracle": verify_oracle,
}


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the inputs of one round to ``workdir`` and return its ops,
    in a seeded order that every round repeats."""
    rng = rng_for(workload, seed)
    ops = ROUND_OPS[workload](rng, workdir)
    return [ops[i] for i in rng.permutation(len(ops))]
