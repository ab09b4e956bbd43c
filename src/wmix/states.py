"""Compact representation of vacuum + single-excitation states.

The family lives on N parties with local dimension d. Every state is
supported on the vacuum ket |0...0> and the N(d-1) kets that excite
exactly one party to one level. A pure member is an amplitude vector
over those excitation kets; a mixed member is a vacuum weight plus a
Hermitian positive semidefinite coefficient matrix over them.

Index conventions
-----------------
Parties are numbered 1..N reading the ket string left to right.
Excitations are labelled by ``position`` 1..N counted from the RIGHT
end of the string (so party i holds excitation position N+1-i) and by
``level`` 1..d-1. Labels are ordered position-major, level-minor, and
that single bijection drives all index arithmetic in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInputError,
    NormalizationError,
    ShapeError,
    StateInvariantError,
)

NORM_TOL = 1e-12
RENORM_THRESHOLD = 1e-9
PSD_TOL = 1e-10


@dataclass(frozen=True)
class ExcitationLabel:
    """One excitation basis ket: ``position`` from the right, ``level`` >= 1."""

    position: int
    level: int = 1


@dataclass(frozen=True)
class SystemShape:
    """Party count and local dimension of a register.

    ``n_parties`` may be 1 only for reduced states produced by partial
    traces; user-facing constructors require at least two parties.
    """

    n_parties: int
    local_dim: int = 2

    def __post_init__(self):
        if self.n_parties < 1:
            raise ShapeError(f"need at least one party, got {self.n_parties}")
        if self.local_dim < 2:
            raise ShapeError(f"local dimension must be >= 2, got {self.local_dim}")

    @property
    def n_labels(self) -> int:
        """Number of excitation labels, N(d-1)."""
        return self.n_parties * (self.local_dim - 1)

    @property
    def dense_dim(self) -> int:
        """Full Hilbert-space dimension d**N."""
        return self.local_dim ** self.n_parties

    def check_party(self, party: int) -> int:
        if not 1 <= party <= self.n_parties:
            raise IndexError(f"party {party} out of range 1..{self.n_parties}")
        return int(party)

    def position_of_party(self, party: int) -> int:
        """Excitation position (from the right) held by ``party``."""
        return self.n_parties + 1 - self.check_party(party)

    def party_of_position(self, position: int) -> int:
        """Party (from the left) holding excitation ``position``."""
        if not 1 <= position <= self.n_parties:
            raise IndexError(
                f"position {position} out of range 1..{self.n_parties}")
        return self.n_parties + 1 - int(position)

    def label_index(self, position: int, level: int = 1) -> int:
        """Flat index of the label (position, level) in storage order."""
        if not 1 <= position <= self.n_parties:
            raise IndexError(
                f"position {position} out of range 1..{self.n_parties}")
        if not 1 <= level <= self.local_dim - 1:
            raise IndexError(
                f"level {level} out of range 1..{self.local_dim - 1}")
        return (position - 1) * (self.local_dim - 1) + (level - 1)

    def labels(self) -> list[ExcitationLabel]:
        """All labels in storage order (position ascending, level ascending)."""
        return [
            ExcitationLabel(position, level)
            for position in range(1, self.n_parties + 1)
            for level in range(1, self.local_dim)
        ]

    def labels_at_positions(self, positions) -> np.ndarray:
        """Flat indices of every label at the given positions, storage order."""
        idx = [
            self.label_index(position, level)
            for position in sorted(set(int(p) for p in positions))
            for level in range(1, self.local_dim)
        ]
        return np.asarray(idx, dtype=int)

    def labels_of_parties(self, parties) -> np.ndarray:
        """Flat indices of every label held by the given parties."""
        positions = [self.position_of_party(p) for p in parties]
        return self.labels_at_positions(positions)

    def basis_state_index(self, position: int, level: int = 1) -> int:
        """Computational-basis integer of the ket exciting (position, level).

        The ket string is read as a base-d number with the rightmost
        party least significant, so the index is level * d**(position-1).
        """
        if not 1 <= level <= self.local_dim - 1:
            raise IndexError(
                f"level {level} out of range 1..{self.local_dim - 1}")
        return level * self.local_dim ** (position - 1)

    def basis_indices(self) -> np.ndarray:
        """Computational-basis integers of all labels, storage order."""
        return np.asarray(
            [self.basis_state_index(lab.position, lab.level) for lab in self.labels()],
            dtype=int,
        )


@dataclass(frozen=True, eq=False)
class PureGeneralizedW:
    """Normalized amplitude vector over the excitation labels of ``shape``."""

    shape: SystemShape
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.shape.n_labels,):
            raise ShapeError(
                f"expected {self.shape.n_labels} amplitudes, got shape {amps.shape}")
        if not np.isfinite(amps).all():
            raise StateInvariantError("amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise NormalizationError(
                f"amplitude norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def amplitude(self, position: int, level: int = 1) -> complex:
        return complex(self.amplitudes[self.shape.label_index(position, level)])


@dataclass(frozen=True, eq=False)
class WMixedState:
    """Vacuum weight plus Hermitian PSD coefficient matrix over labels.

    ``vacuum_weight`` is zero for members of the core family and becomes
    positive only through partial traces, which move diagonal mass onto
    the |0...0><0...0| component.

    Every negativity and cut verdict depends on the state only through
    three party-level statistics, computed once here: the vacuum weight p0, the diagonal
    mass m held by each party, and W, the N x N matrix of squared
    Frobenius norms of the party-pair coefficient blocks. Both arrays are
    read-only and indexed by party minus one:

        party_mass[a - 1]        = sum of coeff[l, l] over labels l of party a
        party_weight[a - 1, b - 1] = sum of |coeff[l, l']|**2 over labels
                                     l of party a and l' of party b

    ``party_weight`` is bitwise symmetric, so any sum over a cut's L x R
    block is independent of which side is called left.
    """

    shape: SystemShape
    vacuum_weight: float
    coeff: np.ndarray
    party_mass: np.ndarray = field(init=False, repr=False)
    party_weight: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = self.shape.n_labels
        coeff = np.array(self.coeff, dtype=complex)
        if coeff.shape != (k, k):
            raise ShapeError(
                f"expected a {k}x{k} coefficient matrix, got shape {coeff.shape}")
        p0 = float(self.vacuum_weight)
        if not (math.isfinite(p0) and np.isfinite(coeff).all()):
            raise StateInvariantError(
                "vacuum weight and coefficient matrix must be finite")
        if p0 < 0.0:
            raise StateInvariantError(f"vacuum weight must be >= 0, got {p0!r}")
        if float(np.abs(coeff - coeff.conj().T).max()) > 1e-12:
            raise StateInvariantError(
                "coefficient matrix must be Hermitian within 1e-12")
        # (C + C~)/2 is bitwise Hermitian (float addition commutes), so the
        # stored matrix satisfies coeff[m,n] == conj(coeff[n,m]) exactly even
        # when the input carries one-ulp asymmetry from fused multiplies
        coeff = (coeff + coeff.conj().T) / 2.0
        trace = float(coeff.trace().real)
        if abs(p0 + trace - 1.0) > NORM_TOL:
            raise NormalizationError(
                f"vacuum weight + trace = {p0 + trace!r}, expected 1 within {NORM_TOL}")
        if k and float(np.linalg.eigvalsh(coeff)[0]) < -PSD_TOL:
            raise StateInvariantError(
                "coefficient matrix is not positive semidefinite within tolerance")
        coeff.setflags(write=False)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "vacuum_weight", p0)
        mass, weight = _party_statistics(self.shape, coeff)
        object.__setattr__(self, "party_mass", mass)
        object.__setattr__(self, "party_weight", weight)

    def diagonal(self) -> np.ndarray:
        return self.coeff.diagonal().real.copy()


def _party_statistics(shape: SystemShape, coeff: np.ndarray):
    """Per-party diagonal mass m and party-pair block weights W of ``coeff``.

    Labels are position-major, so each position's labels form one
    contiguous run and two ``reduceat`` passes sum every block. Position
    order is reversed party order. W is built from its upper triangle and
    mirrored, which makes it bitwise symmetric.
    """
    starts = np.arange(0, shape.n_labels, shape.local_dim - 1)
    squared = coeff.real ** 2 + coeff.imag ** 2
    blocks = np.add.reduceat(
        np.add.reduceat(squared, starts, axis=0), starts, axis=1)[::-1, ::-1]
    mass = np.add.reduceat(coeff.diagonal().real, starts)[::-1].copy()
    weight = np.triu(blocks) + np.triu(blocks, 1).T
    mass.setflags(write=False)
    weight.setflags(write=False)
    return mass, weight


def make_w_state(n: int) -> PureGeneralizedW:
    """The uniform single-excitation state on ``n`` qubits.

    All n amplitudes equal 1/sqrt(n).
    """
    if n < 2:
        raise ShapeError(f"need at least 2 parties, got {n}")
    shape = SystemShape(n, 2)
    return PureGeneralizedW(shape, np.full(n, 1.0 / math.sqrt(n), dtype=complex))


def make_generalized_w(amplitudes, shape: SystemShape) -> PureGeneralizedW:
    """Build a pure family member from an amplitude vector.

    The vector must have length N(d-1) in label storage order. Norm
    deviations up to 1e-9 are silently renormalized; anything larger is
    rejected. A zero vector is rejected outright.
    """
    if shape.n_parties < 2:
        raise ShapeError(f"need at least 2 parties, got {shape.n_parties}")
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (shape.n_labels,):
        raise ShapeError(
            f"expected {shape.n_labels} amplitudes for shape "
            f"(N={shape.n_parties}, d={shape.local_dim}), got {amps.shape}")
    norm = float(np.linalg.norm(amps))
    if norm <= NORM_TOL:
        raise DegenerateInputError("amplitude vector is zero")
    if abs(norm - 1.0) > RENORM_THRESHOLD:
        raise NormalizationError(
            f"amplitude norm {norm!r} deviates from 1 beyond {RENORM_THRESHOLD}")
    if abs(norm - 1.0) > NORM_TOL:
        amps = amps / norm  # silent fix inside the 1e-9 window only,
        # so already-normalized vectors round-trip bit-exactly
    return PureGeneralizedW(shape, amps)


def as_mixed_state(state: PureGeneralizedW) -> WMixedState:
    """Rank-1 projector of a pure member, as a WMixedState with no vacuum."""
    coeff = np.outer(state.amplitudes, state.amplitudes.conj())
    return WMixedState(state.shape, 0.0, coeff)


def mix(ensemble) -> WMixedState:
    """Mix pure family members: coeff = sum_k p_k a^(k) (a^(k))^dagger.

    Parameters
    ----------
    ensemble : list of (weight, PureGeneralizedW)
        Weights must be nonnegative and sum to 1 within 1e-9; all states
        must share one shape.
    """
    ensemble = list(ensemble)
    if not ensemble:
        raise DegenerateInputError("ensemble is empty")
    shape = ensemble[0][1].shape
    total = 0.0
    for weight, state in ensemble:
        if weight < 0:
            raise NormalizationError(f"ensemble weight {weight!r} is negative")
        if state.shape != shape:
            raise ShapeError(
                f"ensemble mixes shapes {shape} and {state.shape}")
        total += float(weight)
    if abs(total - 1.0) > RENORM_THRESHOLD:
        raise NormalizationError(
            f"ensemble weights sum to {total!r}, expected 1 within {RENORM_THRESHOLD}")
    coeff = np.zeros((shape.n_labels, shape.n_labels), dtype=complex)
    for weight, state in ensemble:
        coeff += float(weight) * np.outer(state.amplitudes, state.amplitudes.conj())
    # weight sums within the 1e-9 gate are absorbed here; real scalar
    # division preserves exact hermiticity
    coeff /= float(coeff.trace().real)
    return WMixedState(shape, 0.0, coeff)


def partial_trace(state: WMixedState, traced) -> WMixedState:
    """Trace out the given parties, staying inside the compact family.

    Diagonal mass at traced positions moves into the vacuum weight;
    coherences between traced and kept positions annihilate. The kept
    coefficient block is reindexed by the position bijection (surviving
    positions keep their relative order).
    """
    traced = set(int(p) for p in traced)
    if not traced:
        raise ValueError("tracing no parties is an identity no-op; refuse")
    for p in traced:
        state.shape.check_party(p)
    if len(traced) == state.shape.n_parties:
        raise ValueError("cannot trace out every party; no state left")

    shape = state.shape
    traced_positions = {shape.position_of_party(p) for p in traced}
    kept_positions = [
        pos for pos in range(1, shape.n_parties + 1) if pos not in traced_positions
    ]
    kept_idx = shape.labels_at_positions(kept_positions)
    traced_idx = shape.labels_at_positions(traced_positions)

    vacuum = state.vacuum_weight + float(
        state.coeff.diagonal().real[traced_idx].sum())
    coeff = state.coeff[np.ix_(kept_idx, kept_idx)]
    new_shape = SystemShape(len(kept_positions), shape.local_dim)
    return WMixedState(new_shape, vacuum, coeff)
