"""Closed-form negativities, bounds, and separability classifiers."""

import math

import numpy as np
import pytest

import wmix
from wmix import (
    Bipartition,
    CapacityError,
    ShapeError,
    SystemShape,
    as_mixed_state,
    classify,
    cut_labels,
    embed_dense,
    enumerate_bipartitions,
    genuine_rank_of_pure,
    is_fully_separable,
    is_ppt_cut,
    is_separable_cut,
    make_generalized_w,
    make_w_state,
    negativity_cut,
    negativity_dense,
    pairwise_negativity,
    pairwise_upper_bound,
    partial_trace,
    pt_block_eigenvalues,
)


class TestPtBlockEigenvalues:
    def test_w3_focal_block(self, w3_mixed):
        spec = pt_block_eigenvalues(w3_mixed, 1)
        assert abs(spec.plus - np.sqrt(2) / 3) <= 1e-12
        assert spec.minus == -spec.plus
        assert spec.zeros == 1  # N - 2 for qubits

    def test_block_mixture_decoupled_party(self, block_mixture):
        # party 1 holds position 3, whose off-diagonal row is zero
        assert pt_block_eigenvalues(block_mixture, 1).plus == 0.0
        assert pt_block_eigenvalues(block_mixture, 2).plus > 0.1

    def test_diagonal_state(self, diagonal_state):
        for party in (1, 2, 3):
            assert pt_block_eigenvalues(diagonal_state, party).plus == 0.0

    def test_matches_single_cut_negativity_without_vacuum(self):
        state = next(iter(wmix.random_mixed(
            wmix.SampleConfig(n_parties=5, count=1, seed=21))))
        for party in range(1, 6):
            assert (pt_block_eigenvalues(state, party).plus
                    == negativity_cut(state, Bipartition.single(party, 5)))


class TestNegativityCut:
    def test_w3_single_cut(self, w3_mixed):
        value = negativity_cut(w3_mixed, Bipartition.single(1, 3))
        assert abs(value - np.sqrt(2) / 3) <= 1e-12

    def test_reduced_pair_with_vacuum(self, w3_mixed):
        reduced = partial_trace(w3_mixed, {3})
        value = negativity_cut(reduced, Bipartition.single(1, 2))
        assert abs(value - (np.sqrt(5) - 1) / 6) <= 1e-12

    def test_diagonal_is_zero_for_any_vacuum(self):
        coeff = np.diag(np.array([0.3, 0.3], dtype=complex))
        state = wmix.WMixedState(SystemShape(2), 0.4, coeff)
        assert negativity_cut(state, Bipartition.single(1, 2)) == 0.0

    def test_w4_grouped_cut(self):
        state = as_mixed_state(make_w_state(4))
        value = negativity_cut(state, Bipartition.from_left((1, 2), 4))
        assert abs(value - 0.5) <= 1e-12

    def test_cut_shape_mismatch(self, w3_mixed):
        with pytest.raises(ShapeError):
            negativity_cut(w3_mixed, Bipartition.single(1, 4))

    def test_oracle_equivalence_on_samples(self):
        for n in range(3, 7):
            config = wmix.SampleConfig(n_parties=n, count=10, seed=17)
            for state in wmix.random_mixed(config):
                dense = embed_dense(state)
                for cut in enumerate_bipartitions(n):
                    assert abs(negativity_cut(state, cut)
                               - negativity_dense(dense, cut)) <= 1e-9

    def test_oracle_equivalence_with_vacuum(self):
        # reduced states carry vacuum weight; the unified formula must
        # still match brute force
        config = wmix.SampleConfig(n_parties=5, count=10, seed=23)
        for state in wmix.random_mixed(config):
            reduced = partial_trace(state, {2})
            dense = embed_dense(reduced)
            for cut in enumerate_bipartitions(4):
                assert abs(negativity_cut(reduced, cut)
                           - negativity_dense(dense, cut)) <= 1e-9

    def test_vacuum_monotonicity(self):
        # fixed off-diagonal block, growing vacuum: negativity strictly drops
        def state_with_vacuum(p0):
            diag = (1 - p0) / 3
            coeff = np.full((3, 3), 0.05, dtype=complex)
            np.fill_diagonal(coeff, diag)
            return wmix.WMixedState(SystemShape(3), p0, coeff)

        cut = Bipartition.single(1, 3)
        step = 1e-6
        for p0 in (0.0, 0.2, 0.5):
            lo = negativity_cut(state_with_vacuum(p0), cut)
            hi = negativity_cut(state_with_vacuum(p0 + step), cut)
            slope = (hi - lo) / step
            b = np.sqrt(2) * 0.05
            expected = 0.5 * (p0 / np.hypot(p0, 2 * b) - 1)
            assert slope < 0
            assert abs(slope - expected) <= 1e-4


class TestPairwise:
    def test_w3_pair(self, w3_mixed):
        value = pairwise_negativity(w3_mixed, 1, 2)
        assert abs(value - (np.sqrt(5) - 1) / 6) <= 1e-12

    def test_w4_pair(self):
        state = as_mixed_state(make_w_state(4))
        expected = (np.sqrt(2) - 1) / 4
        for a in range(1, 5):
            for b in range(a + 1, 5):
                assert abs(pairwise_negativity(state, a, b) - expected) <= 1e-12

    def test_zero_focal_entry(self, block_mixture):
        # parties 1 and 2 sit at positions 3 and 2; coeff[3,2] block is zero
        assert pairwise_negativity(block_mixture, 1, 2) == 0.0

    def test_identical_parties_rejected(self, w3_mixed):
        with pytest.raises(ValueError):
            pairwise_negativity(w3_mixed, 2, 2)

    def test_matches_reduction_path(self):
        # direct formula against trace-then-cut, two independent routes
        for n in (3, 4, 5):
            config = wmix.SampleConfig(n_parties=n, count=5, seed=29)
            for state in wmix.random_mixed(config):
                for a in range(1, n + 1):
                    for b in range(a + 1, n + 1):
                        others = [p for p in range(1, n + 1) if p not in (a, b)]
                        reduced = partial_trace(state, others)
                        via_reduction = negativity_cut(
                            reduced, Bipartition.single(1, 2))
                        assert abs(pairwise_negativity(state, a, b)
                                   - via_reduction) <= 1e-12

    def test_bound_holds_with_equality_condition(self, w3_mixed):
        bound = pairwise_upper_bound(w3_mixed, 1, 2)
        value = pairwise_negativity(w3_mixed, 1, 2)
        assert abs(bound - 1 / 3) <= 1e-12
        assert value <= bound
        assert bound - value > 1e-3  # strict here: spectator mass is nonzero

    def test_bound_equality_on_diagonal(self, diagonal_state):
        assert pairwise_upper_bound(diagonal_state, 1, 2) == 0.0
        assert pairwise_negativity(diagonal_state, 1, 2) == 0.0

    def test_bound_equality_without_spectators(self):
        state = as_mixed_state(make_w_state(2))
        value = pairwise_negativity(state, 1, 2)
        bound = pairwise_upper_bound(state, 1, 2)
        assert abs(value - 0.5) <= 1e-12
        assert abs(value - bound) <= 1e-12

    def test_bound_on_samples(self):
        config = wmix.SampleConfig(n_parties=5, count=20, seed=31)
        for state in wmix.random_mixed(config):
            for a in range(1, 6):
                for b in range(a + 1, 6):
                    value = pairwise_negativity(state, a, b)
                    bound = pairwise_upper_bound(state, a, b)
                    assert value <= bound + 1e-12


class TestSeparability:
    def test_block_mixture_single_cut(self, block_mixture):
        assert is_separable_cut(block_mixture, Bipartition.single(1, 3))
        assert is_ppt_cut(block_mixture, Bipartition.single(1, 3))
        assert not is_separable_cut(block_mixture, Bipartition.single(2, 3))

    def test_w3_every_cut_entangled(self, w3_mixed):
        for cut in enumerate_bipartitions(3):
            assert not is_ppt_cut(w3_mixed, cut)

    def test_diagonal_every_cut_separable(self, diagonal_state):
        for cut in enumerate_bipartitions(3):
            assert is_separable_cut(diagonal_state, cut)

    def test_fully_separable(self, diagonal_state, w3_mixed, block_mixture):
        assert is_fully_separable(diagonal_state)
        assert not is_fully_separable(w3_mixed)
        assert not is_fully_separable(block_mixture)

    def test_ppt_agrees_with_oracle_predicate(self):
        states = []
        for kind in ("mixed_ginibre", "structured_zero_row"):
            config = wmix.SampleConfig(
                n_parties=4, count=10, seed=37, kind=kind)
            states.extend(wmix.random_mixed(config))
        for state in states:
            dense = embed_dense(state)
            for cut in enumerate_bipartitions(4):
                pt = wmix.partial_transpose(dense, cut.right)
                oracle_ppt = bool(wmix.hermitian_spectrum(pt)[0] >= -1e-10)
                assert is_ppt_cut(state, cut) == oracle_ppt


def _block_state(n, blocks, seed):
    """Block-diagonal Ginibre state: coherences only inside each party block."""
    rng = np.random.default_rng(seed)
    shape = SystemShape(n, 2)
    coeff = np.zeros((n, n), dtype=complex)
    for block in blocks:
        labels = shape.labels_of_parties(block)
        g = (rng.standard_normal((len(labels),) * 2)
             + 1j * rng.standard_normal((len(labels),) * 2))
        coeff[np.ix_(labels, labels)] = g @ g.conj().T
    coeff = (coeff + coeff.conj().T) / 2.0
    return wmix.WMixedState(shape, 0.0, coeff / float(coeff.trace().real))


class TestCutEnumeration:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_order_matches_from_left(self, n):
        from itertools import combinations
        expected = [
            Bipartition.from_left((1,) + extra, n)
            for size in range(n - 1)
            for extra in combinations(range(2, n + 1), size)]
        cuts = enumerate_bipartitions(n)
        assert ([(c.left, c.right) for c in cuts]
                == [(c.left, c.right) for c in expected])

    @pytest.mark.parametrize("n", range(2, 17))
    def test_labels_match_str(self, n):
        assert cut_labels(n) == [str(c) for c in enumerate_bipartitions(n)]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_classify_matches_per_cut_norms(self, n):
        rng = np.random.default_rng(n)
        states = [next(iter(wmix.random_mixed(wmix.SampleConfig(
            n_parties=n, count=1, seed=n, kind=kind))))
            for kind in ("mixed_ginibre", "structured_zero_row")]
        block_cases = []
        for n_blocks in (2, 3):
            if n_blocks > n:
                continue
            owner = np.concatenate(
                [np.arange(n_blocks), rng.integers(0, n_blocks, n - n_blocks)])
            rng.shuffle(owner)
            blocks = [tuple(int(p) + 1 for p in np.flatnonzero(owner == b))
                      for b in range(n_blocks)]
            block_cases.append((_block_state(n, blocks, seed=n), blocks))
        states += [state for state, _ in block_cases]
        cuts = enumerate_bipartitions(n)
        for state in states:
            verdict = classify(state)
            assert ([(c.left, c.right) for c in verdict.per_cut]
                    == [(c.left, c.right) for c in cuts])
            assert verdict.per_cut == {
                cut: wmix.cross_block_norm(state, cut) <= 1e-12 for cut in cuts}
            assert verdict.genuine == (not any(verdict.per_cut.values()))
            # the array form: B**2 per cut, bitwise the per-cut norm
            norms = [wmix.cross_block_norm(state, cut) for cut in cuts]
            assert [math.sqrt(b2) for b2 in verdict.squared_norms.tolist()] == norms
            assert verdict.separable.tolist() == list(verdict.per_cut.values())
            assert [wmix.closed_form.negativity_from_block(state.vacuum_weight, b)
                    for b in norms] == [negativity_cut(state, cut) for cut in cuts]
        for state, blocks in block_cases:
            unions = {cut for cut in cuts if all(
                set(block) <= set(cut.left) or not set(block) & set(cut.left)
                for block in blocks)}
            separable = {cut for cut, sep in classify(state).per_cut.items() if sep}
            assert separable == unions


class TestClassify:
    def test_w3_genuine(self, w3_mixed):
        verdict = classify(w3_mixed)
        assert verdict.genuine
        assert not verdict.fully_separable
        assert not any(verdict.per_cut.values())

    def test_block_mixture_partial(self, block_mixture):
        verdict = classify(block_mixture)
        assert not verdict.genuine
        assert not verdict.fully_separable
        separable = [cut for cut, sep in verdict.per_cut.items() if sep]
        assert separable == [Bipartition.single(1, 3)]

    def test_diagonal_fully_separable(self, diagonal_state):
        verdict = classify(diagonal_state)
        assert verdict.fully_separable
        assert not verdict.genuine
        assert all(verdict.per_cut.values())

    def test_per_cut_built_on_first_read(self, w3_mixed, monkeypatch):
        calls = []
        real = wmix.closed_form.enumerate_bipartitions
        monkeypatch.setattr(wmix.closed_form, "enumerate_bipartitions",
                            lambda n: calls.append(n) or real(n))
        verdict = classify(w3_mixed)
        assert calls == []
        assert not verdict.squared_norms.flags.writeable
        assert verdict.per_cut is verdict.per_cut
        assert calls == [3]

    def test_capacity_guard(self):
        shape = SystemShape(17, 2)
        coeff = np.diag(np.full(17, 1 / 17, dtype=complex))
        state = wmix.WMixedState(shape, 0.0, coeff)
        with pytest.raises(CapacityError):
            classify(state)


class TestGenuineRank:
    def test_uniform_w_is_full_rank(self):
        for n in (2, 3, 5):
            assert genuine_rank_of_pure(make_w_state(n)) == n

    def test_partial_support(self):
        state = make_generalized_w([0.6, 0.8, 0.0], SystemShape(3))
        assert genuine_rank_of_pure(state) == 2

    def test_product_state(self):
        state = make_generalized_w([1, 0, 0], SystemShape(3))
        assert genuine_rank_of_pure(state) == 1
