"""Dense brute-force ground truth.

Everything here works on explicit d**N x d**N matrices: embedding the
compact states into the full Hilbert space, partial transposes by index
manipulation, Hermitian spectra, negativities from negative eigenvalue
sums, dense partial traces, and two flavors of concurrence. None of it
shares a formula with the closed-form module, so agreement between the
two is a genuine cross-check.

Spectra are solved on the operator's nonzero support: the rows or
columns that hold any nonzero entry. That rests on one generic
linear-algebra fact, and it is the only thing the oracle adds to the
textbook dense computation: a Hermitian matrix whose other rows and
columns are zero has the spectrum of its support x support principal
submatrix plus one exact zero per zero row. A vacuum + single-excitation
state and its partial transposes are zero outside at most
1 + N(d-1) + |L||R|(d-1)**2 basis kets, so a d**N x d**N eigenproblem
shrinks to a few dozen rows without using any property of the family.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ContractViolationError, ShapeError, StateInvariantError
from .partitions import Bipartition
from .states import PureGeneralizedW, SystemShape, WMixedState

DENSE_BUDGET = 4096
HERM_TOL = 1e-12
TRACE_TOL = 1e-10
SPECTRUM_HERM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A Hermitian, trace-one operator on the full d**N Hilbert space.

    Partial-transpose outputs stay in this type: they keep unit trace
    and hermiticity but may fail positivity. ``support`` holds the
    ascending indices of the rows or columns with any nonzero entry.
    Every nonzero entry lies in the support x support submatrix, so the
    checks run there and are exactly as strict as on the full matrix.
    """

    shape: SystemShape
    matrix: np.ndarray
    support: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim = self.shape.dense_dim
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ShapeError(f"expected a {dim}x{dim} matrix, got {mat.shape}")
        support = _support(mat)
        sub = mat[support[:, None], support]
        if not np.isfinite(sub).all():
            raise StateInvariantError("dense operator has a non-finite entry")
        if _hermiticity_defect(sub) > HERM_TOL:
            raise StateInvariantError("dense operator is not Hermitian within 1e-12")
        if abs(float(sub.trace().real) - 1.0) > TRACE_TOL:
            raise StateInvariantError("dense operator trace deviates from 1 beyond 1e-10")
        mat.setflags(write=False)
        support.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "support", support)


def _support(mat: np.ndarray) -> np.ndarray:
    """Indices of the rows or columns of ``mat`` holding a nonzero entry."""
    return np.flatnonzero(mat.any(axis=0) | mat.any(axis=1))


def _hermiticity_defect(mat: np.ndarray) -> float:
    return float(np.abs(mat - mat.conj().T).max(initial=0.0))


def _check_budget(shape: SystemShape, budget: int) -> None:
    if shape.dense_dim > budget:
        raise CapacityError(
            f"dense dimension {shape.dense_dim} exceeds budget {budget}")


def dense_vector(state: PureGeneralizedW, budget: int = DENSE_BUDGET) -> np.ndarray:
    """Full statevector of a pure member (length d**N)."""
    _check_budget(state.shape, budget)
    vec = np.zeros(state.shape.dense_dim, dtype=complex)
    vec[state.shape.basis_indices()] = state.amplitudes
    return vec


def embed_dense(state, budget: int = DENSE_BUDGET) -> DenseOperator:
    """Expand a compact state into its full density matrix.

    Accepts either a WMixedState or a PureGeneralizedW. Entry placement
    follows the position-from-right convention: the label (position m,
    level j) occupies computational-basis integer j * d**(m-1), and the
    vacuum weight sits at (0, 0). Refuses dimensions above ``budget``.
    """
    if isinstance(state, PureGeneralizedW):
        vec = dense_vector(state, budget)
        return DenseOperator(state.shape, np.outer(vec, vec.conj()))
    if not isinstance(state, WMixedState):
        raise ShapeError(f"cannot embed object of type {type(state).__name__}")
    _check_budget(state.shape, budget)
    dim = state.shape.dense_dim
    basis = state.shape.basis_indices()
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = state.vacuum_weight
    mat[np.ix_(basis, basis)] = state.coeff
    return DenseOperator(state.shape, mat)


def partial_transpose(op: DenseOperator, parties) -> DenseOperator:
    """Transpose the row/column indices of the listed parties.

    A pure permutation of matrix entries, hence an exact involution.
    """
    parties = sorted(set(int(p) for p in parties))
    if not parties:
        raise ValueError("partial transpose needs at least one party")
    n = op.shape.n_parties
    d = op.shape.local_dim
    for p in parties:
        op.shape.check_party(p)
    tensor = op.matrix.reshape([d] * (2 * n))
    axes = list(range(2 * n))
    for p in parties:
        axes[p - 1], axes[n + p - 1] = axes[n + p - 1], axes[p - 1]
    swapped = tensor.transpose(axes).reshape(op.shape.dense_dim, op.shape.dense_dim)
    return DenseOperator(op.shape, swapped)


def hermitian_spectrum(op) -> np.ndarray:
    """Eigenvalues of a Hermitian operator, ascending, one per dimension.

    Accepts a DenseOperator or a raw square array; raw input must be
    finite and Hermitian within 1e-10 or the contract is violated.
    ``eigvalsh`` runs on the support x support principal submatrix only:
    a Hermitian matrix that is zero outside its support has that
    submatrix's eigenvalues plus one exact zero per remaining dimension,
    which are merged in at their ascending position.
    """
    if isinstance(op, DenseOperator):
        mat, support = op.matrix, op.support
    else:
        mat = np.asarray(op, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ContractViolationError(
                "hermitian_spectrum got a non-finite matrix entry")
        if _hermiticity_defect(mat) > SPECTRUM_HERM_TOL:
            raise ContractViolationError(
                "hermitian_spectrum got a non-Hermitian matrix")
        support = _support(mat)
    values = np.linalg.eigvalsh(mat[support[:, None], support])
    split = np.searchsorted(values, 0.0)
    zeros = np.zeros(mat.shape[0] - len(support))
    return np.concatenate((values[:split], zeros, values[split:]))


def negativity_from_spectrum(spectrum: np.ndarray) -> float:
    """Absolute sum of the negative eigenvalues of a unit-trace spectrum.

    The trace-norm identity (||PT|| - 1)/2 is recomputed as an internal
    self-check; disagreement beyond 1e-10 is a contract violation.
    """
    negativity = float(-spectrum[spectrum < 0].sum())
    via_trace_norm = (float(np.abs(spectrum).sum()) - 1.0) / 2.0
    if abs(negativity - via_trace_norm) > 1e-10:
        raise ContractViolationError(
            f"negative-sum {negativity} vs trace-norm {via_trace_norm} disagree")
    return negativity


def negativity_dense(op: DenseOperator, cut: Bipartition) -> float:
    """Absolute sum of negative partial-transpose eigenvalues across ``cut``."""
    if cut.n_parties != op.shape.n_parties:
        raise ShapeError(
            f"cut covers {cut.n_parties} parties, operator has {op.shape.n_parties}")
    return negativity_from_spectrum(
        hermitian_spectrum(partial_transpose(op, cut.right)))


def partial_trace_dense(op: DenseOperator, traced) -> DenseOperator:
    """Contract the listed parties out of a dense operator."""
    traced = set(int(p) for p in traced)
    if not traced:
        raise ValueError("tracing no parties is an identity no-op; refuse")
    for p in traced:
        op.shape.check_party(p)
    n = op.shape.n_parties
    if len(traced) == n:
        raise ValueError("cannot trace out every party; no state left")
    d = op.shape.local_dim

    letters = string.ascii_letters
    row = ""
    col = ""
    out_row = ""
    out_col = ""
    next_letter = 0
    for party in range(1, n + 1):
        if party in traced:
            row += letters[next_letter]
            next_letter += 1
        else:
            row += letters[next_letter]
            out_row += letters[next_letter]
            next_letter += 1
    for party in range(1, n + 1):
        if party in traced:
            col += row[party - 1]
        else:
            col += letters[next_letter]
            out_col += letters[next_letter]
            next_letter += 1

    tensor = op.matrix.reshape([d] * (2 * n))
    reduced = np.einsum(row + col + "->" + out_row + out_col, tensor)
    kept = n - len(traced)
    new_shape = SystemShape(kept, d)
    return DenseOperator(new_shape, reduced.reshape(d ** kept, d ** kept))


def concurrence_pure(state: PureGeneralizedW, cut: Bipartition,
                     budget: int = DENSE_BUDGET) -> float:
    """Bipartite pure-state concurrence sqrt(2 (1 - tr rho_left^2))."""
    if cut.n_parties != state.shape.n_parties:
        raise ShapeError(
            f"cut covers {cut.n_parties} parties, state has {state.shape.n_parties}")
    d = state.shape.local_dim
    vec = dense_vector(state, budget)
    tensor = vec.reshape([d] * state.shape.n_parties)
    perm = [p - 1 for p in cut.left] + [p - 1 for p in cut.right]
    block = tensor.transpose(perm).reshape(d ** len(cut.left), d ** len(cut.right))
    rho_left = block @ block.conj().T
    purity = float(np.trace(rho_left @ rho_left).real)
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - purity))))


_SPIN_FLIP = np.array(
    [[0, 0, 0, -1],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [-1, 0, 0, 0]], dtype=float)


def concurrence_two_qubit(op: DenseOperator) -> float:
    """Mixed-state concurrence of a two-qubit operator via the spin flip.

    Standard background construction, not specific to this state family:
    with flip = sigma_y (x) sigma_y and rho_tilde = flip conj(rho) flip,
    the concurrence is max(0, l1 - l2 - l3 - l4) where l_i are the
    descending square roots of the eigenvalues of
    sqrt(rho) rho_tilde sqrt(rho).
    """
    if op.shape.n_parties != 2 or op.shape.local_dim != 2:
        raise ShapeError("two-qubit concurrence needs a 2-party qubit operator")
    rho = op.matrix
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam_sq = np.linalg.eigvalsh(sqrt_rho @ rho_tilde @ sqrt_rho)
    lam = np.sqrt(np.clip(lam_sq, 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
