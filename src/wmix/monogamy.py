"""Monogamy inequality evaluation and equality-case diagnosis.

Each report compares the squared negativity of a focus block against
the rest of the register (the right-hand side) with the sum of squared
negativities between the focus and each partner block (the terms).
For states in this family the residual rhs - sum(terms) is provably
nonnegative, and residual zero forces a structural zero block in the
coefficient matrix: some cut of the state is separable outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    is_separable_cut,
    negativity_cut,
    negativity_from_block,
    pairwise_negativity,
)
from .errors import ContractViolationError, PartitionError, ShapeError
from .oracle import (
    concurrence_pure,
    concurrence_two_qubit,
    embed_dense,
    partial_trace_dense,
)
from .partitions import Bipartition
from .states import PureGeneralizedW, WMixedState

EQUALITY_TOL = 1e-10


@dataclass(frozen=True)
class MonogamyReport:
    """One inequality instance: terms, right-hand side, and residual.

    ``terms`` holds (partner parties, squared negativity) pairs;
    ``residual`` is rhs - sum of terms; ``equality_flag`` marks residual
    at or below 1e-10; ``inferred_separability`` lists the structurally
    separable cuts found when equality holds (None otherwise).
    """

    focus: tuple[int, ...]
    terms: tuple[tuple[tuple[int, ...], float], ...]
    rhs: float
    residual: float
    equality_flag: bool
    inferred_separability: tuple[Bipartition, ...] | None = None


def _zero_block_cuts(state: WMixedState, focus: tuple[int, ...]) -> tuple[Bipartition, ...]:
    """Cuts whose cross block vanishes: all single-party cuts plus focus|rest.

    When a monogamy instance saturates, positivity of the coefficient
    matrix forces at least one of these to be separable, so this
    candidate set is sufficient for the diagnosis.
    """
    n = state.shape.n_parties
    candidates = [Bipartition.single(p, n) for p in range(1, n + 1)]
    if 1 < len(focus) < n:
        candidates.append(Bipartition.from_left(focus, n))
    return tuple(cut for cut in candidates if is_separable_cut(state, cut))


def equality_diagnosis(report: MonogamyReport, state: WMixedState) -> tuple[Bipartition, ...]:
    """Locate the zero blocks implied by a saturated inequality.

    Only callable on reports with the equality flag set. Verifies the
    structural condition on the coefficient matrix itself; finding no
    zero block despite equality is a contract violation and raises.
    """
    if not report.equality_flag:
        raise ValueError("equality diagnosis requires a saturated report")
    cuts = _zero_block_cuts(state, report.focus)
    if not cuts:
        raise ContractViolationError(
            "inequality saturated but no structural zero block exists; "
            "this should be impossible for states in the family")
    return cuts


def monogamy_single(state: WMixedState, focus: int) -> MonogamyReport:
    """One-party focus: pairwise terms against the one-vs-rest cut."""
    n = state.shape.n_parties
    if n < 3:
        raise ShapeError(f"single-focus monogamy needs at least 3 parties, got {n}")
    state.shape.check_party(focus)
    partners = [p for p in range(1, n + 1) if p != focus]
    terms = tuple(
        ((p,), pairwise_negativity(state, focus, p) ** 2) for p in partners
    )
    rhs = negativity_cut(state, Bipartition.single(focus, n)) ** 2
    return _build_report(state, (focus,), terms, rhs)


def monogamy_partition(state: WMixedState, partition) -> MonogamyReport:
    """Grouped focus: Eq-style terms over an ordered partition P_1..P_s.

    Each term is the squared negativity across P_1 | P_k of the state
    reduced to P_1 union P_k (Ou & Fan, PRA 75, 062308 (2007)); the
    right-hand side cuts P_1 against everything else. Reducing moves the
    traced diagonal mass into the vacuum and keeps the P_1 x P_k block,
    so the term comes from the party statistics without reducing:

        s = p0 + sum of m over parties outside P_1 union P_k
        B**2 = sum of W[a, b] over a in P_1, b in P_k
        term = ((sqrt(s**2 + 4 B**2) - s) / 2) ** 2

    Needs at least three disjoint blocks covering all parties.
    """
    n = state.shape.n_parties
    blocks = [tuple(sorted(set(int(p) for p in block))) for block in partition]
    if len(blocks) < 3:
        raise PartitionError(
            f"grouped monogamy needs at least 3 blocks, got {len(blocks)}")
    seen: set[int] = set()
    for block in blocks:
        if not block:
            raise PartitionError("partition blocks must be nonempty")
        if seen & set(block):
            raise PartitionError("partition blocks overlap")
        seen |= set(block)
    if seen != set(range(1, n + 1)):
        raise PartitionError(f"partition does not cover parties 1..{n}")

    focus = blocks[0]
    focus_idx = np.asarray(focus) - 1
    terms = []
    for partner in blocks[1:]:
        partner_idx = np.asarray(partner) - 1
        outside = np.ones(n, dtype=bool)
        outside[focus_idx] = outside[partner_idx] = False
        s = state.vacuum_weight + float(state.party_mass[outside].sum())
        b = math.sqrt(state.party_weight[np.ix_(focus_idx, partner_idx)].sum())
        terms.append((partner, negativity_from_block(s, b) ** 2))
    rhs = negativity_cut(state, Bipartition.from_left(focus, n)) ** 2
    return _build_report(state, focus, tuple(terms), rhs)


def _build_report(state, focus, terms, rhs) -> MonogamyReport:
    residual = rhs - sum(value for _, value in terms)
    equality = residual <= EQUALITY_TOL
    report = MonogamyReport(
        focus=focus, terms=terms, rhs=rhs,
        residual=residual, equality_flag=equality,
    )
    if equality:
        report = MonogamyReport(
            focus=focus, terms=terms, rhs=rhs,
            residual=residual, equality_flag=True,
            inferred_separability=equality_diagnosis(report, state),
        )
    return report


def ckw_concurrence_check(state: PureGeneralizedW, focus: int = 1) -> MonogamyReport:
    """Three-qubit concurrence monogamy for a pure family member.

    The right-hand side is the squared pure-state concurrence of the
    focus against the other two parties; the terms square the two-qubit
    mixed-state concurrences of the reduced pairs, obtained through the
    dense spin-flip construction. A residual below -1e-10 violates the
    inequality and raises.
    """
    shape = state.shape
    if shape.n_parties != 3 or shape.local_dim != 2:
        raise ShapeError("the concurrence check covers pure three-qubit states")
    shape.check_party(focus)
    partners = [p for p in range(1, 4) if p != focus]

    rhs = concurrence_pure(state, Bipartition.single(focus, 3)) ** 2
    dense = embed_dense(state)
    terms = []
    for partner in partners:
        spectator = next(p for p in range(1, 4) if p not in (focus, partner))
        pair = partial_trace_dense(dense, [spectator])
        terms.append(((partner,), concurrence_two_qubit(pair) ** 2))

    residual = rhs - sum(value for _, value in terms)
    if residual < -EQUALITY_TOL:
        raise ContractViolationError(
            f"concurrence monogamy violated: residual {residual}")
    return MonogamyReport(
        focus=(focus,), terms=tuple(terms), rhs=rhs,
        residual=residual, equality_flag=residual <= EQUALITY_TOL,
    )
