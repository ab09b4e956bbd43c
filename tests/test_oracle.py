"""Dense ground-truth machinery: PT, spectra, negativity, concurrence."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wmix
from wmix import (
    Bipartition,
    ContractViolationError,
    ShapeError,
    SystemShape,
    as_mixed_state,
    embed_dense,
    hermitian_spectrum,
    make_generalized_w,
    make_w_state,
    negativity_dense,
    partial_trace_dense,
    partial_transpose,
)


class TestPartialTranspose:
    def test_diagonal_matrix_unchanged(self, diagonal_state):
        dense = embed_dense(diagonal_state)
        for parties in ({1}, {2}, {1, 3}):
            assert np.array_equal(
                partial_transpose(dense, parties).matrix, dense.matrix)

    def test_involution_is_exact(self, w3_mixed):
        dense = embed_dense(w3_mixed)
        twice = partial_transpose(partial_transpose(dense, {3}), {3})
        assert np.array_equal(twice.matrix, dense.matrix)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    def test_involution_on_random_states(self, seed, n):
        state = next(iter(wmix.random_mixed(
            wmix.SampleConfig(n_parties=n, count=1, seed=seed))))
        dense = embed_dense(state)
        parties = {1 + (seed % n)}
        twice = partial_transpose(partial_transpose(dense, parties), parties)
        assert np.array_equal(twice.matrix, dense.matrix)

    def test_w3_min_eigenvalue(self, w3_mixed):
        pt = partial_transpose(embed_dense(w3_mixed), {1})
        assert abs(hermitian_spectrum(pt)[0] + np.sqrt(2) / 3) <= 1e-12

    def test_out_of_range_party(self, w3_mixed):
        with pytest.raises(IndexError):
            partial_transpose(embed_dense(w3_mixed), {4})

    def test_preserves_trace_and_hermiticity(self, w3_mixed):
        pt = partial_transpose(embed_dense(w3_mixed), {2})
        assert abs(pt.matrix.trace().real - 1) <= 1e-14
        assert np.array_equal(pt.matrix, pt.matrix.conj().T)


class TestHermitianSpectrum:
    def test_scaled_identity(self):
        spectrum = hermitian_spectrum(np.eye(8) / 8)
        np.testing.assert_allclose(spectrum, np.full(8, 1 / 8), atol=1e-14)

    def test_pure_projector_spectrum(self, w3_mixed):
        spectrum = hermitian_spectrum(embed_dense(w3_mixed))
        np.testing.assert_allclose(spectrum[:7], np.zeros(7), atol=1e-12)
        assert abs(spectrum[7] - 1) <= 1e-12

    def test_w3_pt_contains_block_eigenvalues(self, w3_mixed):
        spectrum = hermitian_spectrum(
            partial_transpose(embed_dense(w3_mixed), {1}))
        b = np.sqrt(2) / 3
        assert abs(spectrum[0] + b) <= 1e-12
        assert np.abs(spectrum - b).min() <= 1e-12
        assert np.abs(spectrum).min() <= 1e-12

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ContractViolationError):
            hermitian_spectrum(bad)

    def test_non_finite_rejected(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[1, 2] = np.nan
        with pytest.raises(ContractViolationError):
            hermitian_spectrum(bad)

    def test_full_support_operator(self):
        op = wmix.DenseOperator(SystemShape(3), np.eye(8) / 8)
        assert np.array_equal(op.support, np.arange(8))
        np.testing.assert_allclose(
            hermitian_spectrum(op), np.full(8, 1 / 8), atol=1e-14)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
           d=st.sampled_from([2, 3]),
           kind=st.sampled_from(
               ["mixed_ginibre", "structured_zero_row", "reduced", "pure"]),
           data=st.data())
    def test_support_spectrum_matches_full_solve(
            self, seed, n, d, kind, data, family_state):
        right = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))
        state = family_state(kind, n, d, seed)
        pt = partial_transpose(embed_dense(state), right)
        spectrum = hermitian_spectrum(pt)
        full = np.linalg.eigvalsh(pt.matrix)
        assert spectrum.shape == full.shape == (d ** n,)
        assert np.all(np.diff(spectrum) >= 0)
        assert np.abs(spectrum - full).max() <= 1e-12

    def test_spectrum_sums_to_trace_and_residuals_small(self):
        state = next(iter(wmix.random_mixed(
            wmix.SampleConfig(n_parties=5, count=1, seed=99))))
        dense = partial_transpose(embed_dense(state), {2, 4})
        mat = dense.matrix
        spectrum = hermitian_spectrum(dense)
        assert abs(spectrum.sum() - mat.trace().real) <= 1e-10
        w, v = np.linalg.eigh(mat)
        scale = np.linalg.norm(mat)
        for k in range(len(w)):
            assert np.linalg.norm(mat @ v[:, k] - w[k] * v[:, k]) <= 1e-10 * scale


class TestNegativityDense:
    def test_separable_diagonal_is_zero(self, diagonal_state):
        dense = embed_dense(diagonal_state)
        for cut in wmix.enumerate_bipartitions(3):
            assert negativity_dense(dense, cut) <= 1e-12

    def test_w3_single_cut(self, w3_mixed):
        value = negativity_dense(embed_dense(w3_mixed), Bipartition.single(1, 3))
        assert abs(value - np.sqrt(2) / 3) <= 1e-12

    def test_w4_single_cut(self):
        dense = embed_dense(as_mixed_state(make_w_state(4)))
        value = negativity_dense(dense, Bipartition.single(1, 4))
        assert abs(value - np.sqrt(3) / 4) <= 1e-12

    def test_side_swap_invariance(self):
        state = next(iter(wmix.random_mixed(
            wmix.SampleConfig(n_parties=4, count=1, seed=7))))
        dense = embed_dense(state)
        for cut in wmix.enumerate_bipartitions(4):
            assert abs(negativity_dense(dense, cut)
                       - negativity_dense(dense, cut.flipped())) <= 1e-10


class TestPartialTraceDense:
    def test_w3_reduction_matches_compact(self, w3_mixed):
        reduced = partial_trace_dense(embed_dense(w3_mixed), {3})
        coeff = np.full((2, 2), 1 / 3, dtype=complex)
        compact = wmix.WMixedState(SystemShape(2), 1 / 3, coeff)
        np.testing.assert_allclose(
            reduced.matrix, embed_dense(compact).matrix, atol=1e-12)

    def test_reduce_diagonal_to_one_party(self, diagonal_state):
        reduced = partial_trace_dense(embed_dense(diagonal_state), {2, 3})
        # party 1 holds position 3; its excitation weight is 0.5
        np.testing.assert_allclose(
            reduced.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_product_state_reduction(self):
        state = make_generalized_w([1, 0, 0], SystemShape(3))
        reduced = partial_trace_dense(embed_dense(state), {1})
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |01> projector on parties 2,3
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-14)

    def test_trace_preserved(self):
        state = next(iter(wmix.random_mixed(
            wmix.SampleConfig(n_parties=5, count=1, seed=13))))
        reduced = partial_trace_dense(embed_dense(state), {1, 4})
        assert abs(reduced.matrix.trace().real - 1) <= 1e-12


class TestConcurrencePure:
    def test_w3_one_vs_rest(self, w3):
        value = wmix.concurrence_pure(w3, Bipartition.single(1, 3))
        assert abs(value - np.sqrt(8) / 3) <= 1e-12

    def test_product_state_has_none(self):
        state = make_generalized_w([1, 0, 0], SystemShape(3))
        for cut in wmix.enumerate_bipartitions(3):
            assert wmix.concurrence_pure(state, cut) <= 1e-12

    def test_w2_is_maximally_entangled(self):
        value = wmix.concurrence_pure(make_w_state(2), Bipartition.single(1, 2))
        assert abs(value - 1) <= 1e-12


class TestConcurrenceTwoQubit:
    def test_bell_state(self):
        # (|01> + |10>)/sqrt(2) is the two-qubit uniform state
        dense = embed_dense(as_mixed_state(make_w_state(2)))
        assert abs(wmix.concurrence_two_qubit(dense) - 1) <= 1e-12

    def test_product_state(self):
        coeff = np.diag(np.array([1.0, 0.0], dtype=complex))
        dense = embed_dense(wmix.WMixedState(SystemShape(2), 0.0, coeff))
        assert wmix.concurrence_two_qubit(dense) <= 1e-12

    def test_vacuum_plus_pair_formula(self):
        # for p|00><00| + excitation block the concurrence is exactly
        # twice the off-diagonal magnitude: check against that by hand;
        # tolerance sits at the sqrt-of-eigenvalue-noise floor of the
        # spin-flip construction (zero modes contribute ~sqrt(1e-16))
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z /= np.linalg.norm(z)
            p = rng.uniform(0.05, 0.9)
            coeff = (1 - p) * np.outer(z, z.conj())
            state = wmix.WMixedState(SystemShape(2), p, coeff)
            got = wmix.concurrence_two_qubit(embed_dense(state))
            assert abs(got - 2 * abs(coeff[0, 1])) <= 2e-8

    def test_wrong_shape_rejected(self, w3_mixed):
        with pytest.raises(ShapeError):
            wmix.concurrence_two_qubit(embed_dense(w3_mixed))


class TestDenseOperatorInvariants:
    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex)
        mat[0, 1] = 0.5
        with pytest.raises(wmix.StateInvariantError):
            wmix.DenseOperator(SystemShape(2), mat)

    def test_rejects_one_sided_entry_off_support(self):
        # rows 2 and 3 are zero except for (2, 3): still not Hermitian
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1.0
        mat[2, 3] = 1e-6
        with pytest.raises(wmix.StateInvariantError):
            wmix.DenseOperator(SystemShape(2), mat)

    def test_rejects_non_finite(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[1, 2] = np.nan
        with pytest.raises(wmix.StateInvariantError):
            wmix.DenseOperator(SystemShape(2), mat)

    def test_support_covers_nonzero_rows_and_columns(self, w3_mixed):
        dense = embed_dense(w3_mixed)
        assert list(dense.support) == [1, 2, 4]
        # party 1 is the leading digit: |100><010| moves to |000><110|,
        # filling the 1 + N(d-1) + |L||R|(d-1)^2 = 6 kets of the bound
        assert list(partial_transpose(dense, {1}).support) == [0, 1, 2, 4, 5, 6]

    def test_rejects_bad_trace(self):
        with pytest.raises(wmix.StateInvariantError):
            wmix.DenseOperator(SystemShape(2), np.eye(4, dtype=complex))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ShapeError):
            wmix.DenseOperator(SystemShape(3), np.eye(4, dtype=complex) / 4)
