"""Closed-form entanglement quantities for the compact state family.

For vacuum + single-excitation states every partial transpose splits
into a positive semidefinite single-excitation sector plus one
indefinite arrowhead pairing the vacuum with double excitations, so
each bipartite negativity reduces to the Frobenius norm B of one
off-diagonal coefficient block:

    negativity = ( sqrt(p0**2 + 4 B**2) - p0 ) / 2

which is exactly B when the vacuum weight p0 vanishes. Separability
across a cut is equivalent to B = 0, an exact structural property of
the coefficient matrix. None of these routines call an eigensolver;
the dense oracle module recomputes the same quantities by brute force.

Every negativity, bound and cut verdict here reads the state only
through its party statistics (``WMixedState.party_mass`` m and
``party_weight`` W, plus p0); ``is_fully_separable`` alone reads the
coefficient matrix, because coherences between two levels of one party
do not enter W off its diagonal. A cut L | R has

    B**2 = sum of W[a, b] over a in L, b in R

summed over the pairs a < b in lexicographic order, the same order for
one cut and for all cuts at once, so ``classify`` and ``is_ppt_cut``
agree bit for bit. A party pair (a, b) sees the spectator mass
s = p0 + sum(m) - m[a] - m[b] and the block weight W[a, b].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ShapeError
from .partitions import Bipartition, enumerate_bipartitions, left_side_masks
from .states import PureGeneralizedW, WMixedState

SEPARABILITY_TOL = 1e-12
SUPPORT_TOL = 1e-12
MAX_ENUMERATED_PARTIES = 16


@dataclass(frozen=True)
class PtBlockSpectrum:
    """Nonzero eigenvalues +-B of the indefinite partial-transpose block.

    ``zeros`` is the kernel multiplicity of that block (its dimension
    minus the two nonzero eigenvalues), counted at zero vacuum weight.
    """

    plus: float
    minus: float
    zeros: int


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Per-cut separability map plus the two global flags."""

    per_cut: dict[Bipartition, bool]
    fully_separable: bool
    genuine: bool


def _check_cut(state: WMixedState, cut: Bipartition) -> None:
    if cut.n_parties != state.shape.n_parties:
        raise ShapeError(
            f"cut covers {cut.n_parties} parties, state has {state.shape.n_parties}")


def cross_block_norm(state: WMixedState, cut: Bipartition) -> float:
    """Frobenius norm of the coefficient block linking the cut's sides.

    B = sqrt(sum of W[a, b] over a in L, b in R); a cut and its
    ``flipped()`` give the same float.
    """
    _check_cut(state, cut)
    n = state.shape.n_parties
    side = np.zeros(n, dtype=bool)
    side[np.asarray(cut.left, dtype=np.intp) - 1] = True
    parties = np.arange(n)
    crossing = (side[:, None] != side) & (parties[:, None] < parties)
    # a running sum adds the crossing pairs a < b in the order classify does
    return math.sqrt(np.cumsum(state.party_weight[crossing])[-1])


def pt_block_eigenvalues(state: WMixedState, party: int) -> PtBlockSpectrum:
    """Spectrum of the indefinite block for the one-vs-rest transpose.

    B is the Frobenius norm of the focal party's off-diagonal row block
    (all levels at its position against every other label).
    """
    shape = state.shape
    b = cross_block_norm(state, Bipartition.single(party, shape.n_parties))
    levels = shape.local_dim - 1
    return PtBlockSpectrum(
        plus=b, minus=-b, zeros=levels * (shape.n_labels - levels) - 1)


def negativity_cut(state: WMixedState, cut: Bipartition) -> float:
    """Bipartite negativity of the state across ``cut``.

    Evaluates (sqrt(p0**2 + 4 B**2) - p0) / 2 with B the cross-block
    Frobenius norm; reduces to B for vanishing vacuum weight.
    """
    return negativity_from_block(state.vacuum_weight, cross_block_norm(state, cut))


def negativity_from_block(spectator: float, block_norm: float) -> float:
    """(sqrt(s**2 + 4 B**2) - s) / 2 for spectator mass s and block norm B."""
    return 0.5 * (math.hypot(spectator, 2.0 * block_norm) - spectator)


def _pair_index(state: WMixedState, party_a: int, party_b: int) -> tuple[int, int]:
    """Zero-based indices of two distinct, in-range parties."""
    if party_a == party_b:
        raise ValueError(f"parties must be distinct, got {party_a} twice")
    return state.shape.check_party(party_a) - 1, state.shape.check_party(party_b) - 1


def pairwise_negativity(state: WMixedState, party_a: int, party_b: int) -> float:
    """Negativity of the two-party reduced state, straight from the statistics.

    Uses s = p0 + sum(m) - m[a] - m[b], the vacuum weight plus all
    diagonal mass outside the two focal parties, and B**2 = W[a, b];
    equals the negativity of the explicitly reduced state, computed
    without reducing.
    """
    a, b = _pair_index(state, party_a, party_b)
    mass = state.party_mass
    s = state.vacuum_weight + float(mass.sum() - mass[a] - mass[b])
    return negativity_from_block(s, math.sqrt(state.party_weight[a, b]))


def pairwise_upper_bound(state: WMixedState, party_a: int, party_b: int) -> float:
    """The focal block norm sqrt(W[a, b]), an upper bound on pairwise negativity.

    Equality holds iff the spectator mass s vanishes or the block does.
    """
    a, b = _pair_index(state, party_a, party_b)
    return math.sqrt(state.party_weight[a, b])


def is_ppt_cut(state: WMixedState, cut: Bipartition) -> bool:
    """Positive partial transpose across ``cut`` (exact block criterion)."""
    return cross_block_norm(state, cut) <= SEPARABILITY_TOL


def is_separable_cut(state: WMixedState, cut: Bipartition) -> bool:
    """Separability across ``cut``; coincides with PPT for this family."""
    return is_ppt_cut(state, cut)


def is_fully_separable(state: WMixedState) -> bool:
    """True iff the coefficient matrix is diagonal (vacuum permitted)."""
    off = state.coeff - np.diag(state.coeff.diagonal())
    return float(np.abs(off).max()) <= SEPARABILITY_TOL if off.size else True


def classify(state: WMixedState) -> SeparabilityVerdict:
    """Evaluate separability on every bipartition (N <= 16).

    Each cut is separable iff B <= 1e-12, exactly as ``is_ppt_cut``
    decides it; all 2**(N-1) - 1 values of B**2 come from W in one pass
    over the party pairs. ``genuine`` means no cut is separable;
    ``fully_separable`` is the diagonal test.
    """
    n = state.shape.n_parties
    if n > MAX_ENUMERATED_PARTIES:
        raise CapacityError(
            f"exhaustive cut enumeration capped at {MAX_ENUMERATED_PARTIES} parties;"
            f" got {n} (pass explicit cuts instead)")
    masks = left_side_masks(n)
    # sides[a] marks the cuts whose left side holds party a + 1
    sides = [((masks >> (n - 1 - a)) & 1).astype(bool) for a in range(n)]
    squared = np.zeros(len(masks))
    weight = state.party_weight
    for a in range(n):
        for b in range(a + 1, n):
            if weight[a, b]:
                np.add(squared, weight[a, b], out=squared,
                       where=sides[a] != sides[b])
    separable = np.sqrt(squared) <= SEPARABILITY_TOL
    per_cut = dict(zip(enumerate_bipartitions(n), separable.tolist()))
    return SeparabilityVerdict(
        per_cut=per_cut,
        fully_separable=is_fully_separable(state),
        genuine=not separable.any(),
    )


def genuine_rank_of_pure(state: PureGeneralizedW) -> int:
    """Number of parties carrying amplitude (the entanglement rank t)."""
    shape = state.shape
    amps = state.amplitudes
    count = 0
    for position in range(1, shape.n_parties + 1):
        block = amps[shape.labels_at_positions([position])]
        if float(np.abs(block).max()) > SUPPORT_TOL:
            count += 1
    return count
