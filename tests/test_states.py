"""Constructors, mixing, partial trace, and the index bijection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wmix
from wmix import (
    Bipartition,
    DegenerateInputError,
    NormalizationError,
    ShapeError,
    SystemShape,
    as_mixed_state,
    make_generalized_w,
    make_w_state,
    mix,
    partial_trace,
)


class TestSystemShape:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ShapeError):
            SystemShape(0, 2)
        with pytest.raises(ShapeError):
            SystemShape(3, 1)

    def test_label_count(self):
        assert SystemShape(3, 2).n_labels == 3
        assert SystemShape(3, 4).n_labels == 9
        assert SystemShape(5, 3).n_labels == 10

    @given(n=st.integers(2, 16), party=st.integers(1, 16))
    def test_party_position_bijection_is_involution(self, n, party):
        shape = SystemShape(n, 2)
        if party > n:
            with pytest.raises(IndexError):
                shape.position_of_party(party)
            return
        assert shape.party_of_position(shape.position_of_party(party)) == party
        assert shape.position_of_party(party) == n + 1 - party

    def test_label_order_is_position_major(self):
        shape = SystemShape(2, 3)
        labels = shape.labels()
        assert [(lab.position, lab.level) for lab in labels] == [
            (1, 1), (1, 2), (2, 1), (2, 2)]
        assert shape.label_index(2, 2) == 3

    def test_basis_index_follows_position_from_right(self):
        shape = SystemShape(3, 2)
        assert [shape.basis_state_index(m) for m in (1, 2, 3)] == [1, 2, 4]
        qutrit = SystemShape(2, 3)
        # level j at position m sits at j * d**(m-1)
        assert qutrit.basis_state_index(1, 2) == 2
        assert qutrit.basis_state_index(2, 1) == 3
        assert qutrit.basis_state_index(2, 2) == 6


class TestMakeWState:
    def test_three_qubits_uniform(self):
        state = make_w_state(3)
        np.testing.assert_allclose(state.amplitudes, np.full(3, 1 / np.sqrt(3)))

    def test_two_qubits_bell_like(self):
        state = make_w_state(2)
        np.testing.assert_allclose(state.amplitudes, np.full(2, 1 / np.sqrt(2)))

    def test_eight_qubits_normalized(self):
        state = make_w_state(8)
        assert abs(np.linalg.norm(state.amplitudes) - 1) <= 1e-12

    def test_rejects_single_party(self):
        with pytest.raises(ShapeError):
            make_w_state(1)


class TestMakeGeneralizedW:
    def test_exact_norm_accepted(self):
        state = make_generalized_w([0.6, 0.8, 0.0], SystemShape(3))
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8, 0.0])
        assert abs(state.amplitude(3)) == 0.0

    def test_single_excitation_product_state(self):
        state = make_generalized_w([1, 0, 0], SystemShape(3))
        assert state.amplitude(1) == 1.0  # the |001> ket

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            make_generalized_w([1, 0, 0, 0], SystemShape(3))

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            make_generalized_w([0, 0, 0], SystemShape(3))

    def test_small_denormalization_silently_fixed(self):
        amps = np.array([0.6, 0.8, 0.0]) * (1 + 5e-10)
        state = make_generalized_w(amps, SystemShape(3))
        assert abs(np.linalg.norm(state.amplitudes) - 1) <= 1e-12

    def test_large_denormalization_rejected(self):
        with pytest.raises(NormalizationError):
            make_generalized_w([0.6, 0.8, 0.1], SystemShape(3))


class TestMix:
    def test_rank_one_projector(self, w3):
        state = mix([(1.0, w3)])
        np.testing.assert_allclose(state.coeff, np.full((3, 3), 1 / 3), atol=1e-14)
        assert state.vacuum_weight == 0.0

    def test_phase_ensemble_gives_block_structure(self):
        # hand expansion of sum_k p_k a a^dagger for the +/- phase pair
        plus = make_generalized_w(np.array([1, 1, 1]) / np.sqrt(3), SystemShape(3))
        minus = make_generalized_w(np.array([1, 1, -1]) / np.sqrt(3), SystemShape(3))
        state = mix([(0.5, plus), (0.5, minus)])
        expected = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) / 3.0
        np.testing.assert_allclose(state.coeff, expected, atol=1e-14)
        # PSD confirmed by an eigensolver, not trusted from construction
        assert np.linalg.eigvalsh(state.coeff)[0] >= -1e-10

    def test_weight_sum_violation(self, w3):
        with pytest.raises(NormalizationError):
            mix([(0.5, w3), (0.6, w3)])

    def test_negative_weight(self, w3):
        with pytest.raises(NormalizationError):
            mix([(1.5, w3), (-0.5, w3)])

    def test_shape_mismatch(self, w3):
        with pytest.raises(ShapeError):
            mix([(0.5, w3), (0.5, make_w_state(4))])

    @given(q=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_convex_linearity(self, q, seed):
        rng = np.random.default_rng(seed)

        def random_pure():
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            return make_generalized_w(z / np.linalg.norm(z), SystemShape(3))

        a, b = random_pure(), random_pure()
        blend = mix([(q, a), (1 - q, b)])
        part_a, part_b = as_mixed_state(a), as_mixed_state(b)
        np.testing.assert_allclose(
            blend.coeff, q * part_a.coeff + (1 - q) * part_b.coeff, atol=1e-12)


class TestPartialTrace:
    def test_w3_trace_first_party(self, w3_mixed):
        reduced = partial_trace(w3_mixed, {1})
        assert reduced.shape.n_parties == 2
        assert abs(reduced.vacuum_weight - 1 / 3) <= 1e-12
        np.testing.assert_allclose(reduced.coeff, np.full((2, 2), 1 / 3), atol=1e-14)

    def test_diagonal_stays_diagonal(self, diagonal_state):
        reduced = partial_trace(diagonal_state, {2})
        assert abs(reduced.vacuum_weight - 0.3) <= 1e-12
        np.testing.assert_allclose(
            reduced.coeff, np.diag([0.2, 0.5]), atol=1e-14)

    def test_all_parties_rejected(self, w3_mixed):
        with pytest.raises(ValueError):
            partial_trace(w3_mixed, {1, 2, 3})

    def test_no_parties_rejected(self, w3_mixed):
        with pytest.raises(ValueError):
            partial_trace(w3_mixed, set())

    def test_commutes_with_dense_partial_trace(self):
        # round trip property: embed(trace(s)) == dense_trace(embed(s))
        for n in range(3, 7):
            config = wmix.SampleConfig(n_parties=n, count=3, seed=11)
            for state in wmix.random_mixed(config):
                dense = wmix.embed_dense(state)
                subsets = [{p} for p in range(1, n + 1)]
                subsets += [{a, b} for a in range(1, n + 1)
                            for b in range(a + 1, n + 1)]
                for traced in subsets:
                    compact = wmix.embed_dense(partial_trace(state, traced))
                    brute = wmix.partial_trace_dense(dense, traced)
                    np.testing.assert_allclose(
                        compact.matrix, brute.matrix, atol=1e-12)


class TestEmbedDense:
    def test_w2_matrix_entries(self):
        dense = wmix.embed_dense(as_mixed_state(make_w_state(2)))
        expected = np.zeros((4, 4))
        expected[np.ix_([1, 2], [1, 2])] = 0.5
        np.testing.assert_allclose(dense.matrix, expected, atol=1e-14)

    def test_diagonal_three_qubit_placement(self):
        coeff = np.diag(np.array([0.5, 0.3, 0.2], dtype=complex))
        dense = wmix.embed_dense(wmix.WMixedState(SystemShape(3), 0.0, coeff))
        expected = np.zeros(8)
        expected[[1, 2, 4]] = [0.5, 0.3, 0.2]
        np.testing.assert_allclose(dense.matrix, np.diag(expected), atol=1e-14)

    def test_budget_refusal(self):
        state = as_mixed_state(make_w_state(13))
        with pytest.raises(wmix.CapacityError):
            wmix.embed_dense(state)

    def test_pure_and_mixed_embeddings_agree(self, w3, w3_mixed):
        np.testing.assert_allclose(
            wmix.embed_dense(w3).matrix, wmix.embed_dense(w3_mixed).matrix,
            atol=1e-14)


class TestInvariants:
    def test_mixed_invariants_from_sampler(self):
        config = wmix.SampleConfig(n_parties=4, count=20, seed=3)
        for state in wmix.random_mixed(config):
            assert np.linalg.eigvalsh(state.coeff)[0] >= -1e-10
            total = state.vacuum_weight + float(state.coeff.trace().real)
            assert abs(total - 1) <= 1e-12

    def test_vacuum_weight_must_be_nonnegative(self):
        coeff = np.diag(np.array([0.6, 0.6], dtype=complex))
        with pytest.raises(wmix.StateInvariantError):
            wmix.WMixedState(SystemShape(2), -0.2, coeff)

    def test_nonhermitian_coeff_rejected(self):
        coeff = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
        with pytest.raises(wmix.StateInvariantError):
            wmix.WMixedState(SystemShape(2), 0.0, coeff)

    def test_trace_violation_rejected(self):
        coeff = np.diag(np.array([0.5, 0.6], dtype=complex))
        with pytest.raises(NormalizationError):
            wmix.WMixedState(SystemShape(2), 0.0, coeff)

    def test_non_psd_rejected(self):
        coeff = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        with pytest.raises(wmix.StateInvariantError):
            wmix.WMixedState(SystemShape(2), 0.0, coeff)

    def test_nan_vacuum_rejected(self):
        coeff = np.diag(np.array([0.2, 0.3, 0.5], dtype=complex))
        with pytest.raises(wmix.StateInvariantError):
            wmix.WMixedState(SystemShape(3), float("nan"), coeff)

    def test_nan_coherence_rejected(self):
        coeff = np.diag(np.array([0.2, 0.3, 0.5], dtype=complex))
        coeff[0, 1] = coeff[1, 0] = np.nan
        with pytest.raises(wmix.StateInvariantError):
            wmix.WMixedState(SystemShape(3), 0.0, coeff)

    def test_nan_amplitude_rejected(self):
        with pytest.raises(wmix.StateInvariantError):
            make_generalized_w([np.nan, 1.0], SystemShape(2))

    def test_states_are_immutable(self, w3_mixed, w3):
        with pytest.raises(ValueError):
            w3_mixed.coeff[0, 0] = 9.0
        with pytest.raises(ValueError):
            w3.amplitudes[0] = 9.0
        with pytest.raises(ValueError):
            w3_mixed.party_mass[0] = 9.0
        with pytest.raises(ValueError):
            w3_mixed.party_weight[0, 1] = 9.0


class TestPartyStatistics:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
           d=st.integers(2, 4),
           kind=st.sampled_from(
               ["mixed_ginibre", "structured_zero_row", "reduced", "pure"]))
    def test_statistics_match_coefficient_blocks(
            self, seed, n, d, kind, family_state):
        state = family_state(kind, n, d, seed)
        shape = state.shape
        weight, mass = state.party_weight, state.party_mass
        assert weight.shape == (n, n) and mass.shape == (n,)
        assert np.array_equal(weight, weight.T)
        diag = state.coeff.diagonal().real
        for a in range(1, n + 1):
            rows = shape.labels_of_parties([a])
            assert abs(mass[a - 1] - diag[rows].sum()) <= 1e-15
            for b in range(1, n + 1):
                cols = shape.labels_of_parties([b])
                block = np.linalg.norm(state.coeff[np.ix_(rows, cols)]) ** 2
                assert abs(weight[a - 1, b - 1] - block) <= 1e-14
        for cut in wmix.enumerate_bipartitions(n):
            assert (wmix.cross_block_norm(state, cut)
                    == wmix.cross_block_norm(state, cut.flipped()))
