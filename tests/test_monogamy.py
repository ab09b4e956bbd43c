"""Monogamy reports, equality diagnosis, and the concurrence check."""

import numpy as np
import pytest

import wmix
from wmix import (
    Bipartition,
    ContractViolationError,
    PartitionError,
    ShapeError,
    SystemShape,
    as_mixed_state,
    ckw_concurrence_check,
    equality_diagnosis,
    make_generalized_w,
    make_w_state,
    monogamy_partition,
    monogamy_single,
)


class TestMonogamySingle:
    def test_w3_values(self, w3_mixed):
        report = monogamy_single(w3_mixed, 1)
        assert abs(report.rhs - 2 / 9) <= 1e-12
        assert abs(sum(v for _, v in report.terms) - (3 - np.sqrt(5)) / 9) <= 1e-12
        assert abs(report.residual - (np.sqrt(5) - 1) / 9) <= 1e-12
        assert not report.equality_flag
        assert report.inferred_separability is None

    def test_diagonal_equality(self, diagonal_state):
        report = monogamy_single(diagonal_state, 2)
        assert report.rhs == 0.0
        assert all(v == 0.0 for _, v in report.terms)
        assert report.equality_flag
        # every single cut decouples on a diagonal state
        assert set(report.inferred_separability) == {
            Bipartition.single(p, 3) for p in (1, 2, 3)}

    def test_block_mixture_equality_and_diagnosis(self, block_mixture):
        report = monogamy_single(block_mixture, 1)
        assert report.rhs == 0.0
        assert report.equality_flag
        assert report.inferred_separability == (Bipartition.single(1, 3),)

    def test_two_parties_rejected(self):
        state = as_mixed_state(make_w_state(2))
        with pytest.raises(ShapeError):
            monogamy_single(state, 1)

    def test_residual_nonnegative_on_samples(self):
        for n in (3, 4, 5):
            config = wmix.SampleConfig(n_parties=n, count=30, seed=41)
            for state in wmix.random_mixed(config):
                for focus in range(1, n + 1):
                    assert monogamy_single(state, focus).residual >= -1e-10

    def test_strict_for_genuine_samples(self):
        config = wmix.SampleConfig(n_parties=4, count=30, seed=43)
        for state in wmix.random_mixed(config):
            if wmix.classify(state).genuine:
                for focus in range(1, 5):
                    assert monogamy_single(state, focus).residual > 1e-10


class TestMonogamyPartition:
    def test_w4_grouped_values(self):
        state = as_mixed_state(make_w_state(4))
        report = monogamy_partition(state, [(1, 2), (3,), (4,)])
        assert abs(report.rhs - 0.25) <= 1e-12
        for _, value in report.terms:
            assert abs(value - 1 / 16) <= 1e-12
        assert abs(report.residual - 0.125) <= 1e-12
        assert not report.equality_flag

    def test_grouped_terms_match_paper_shape(self):
        # the term for partner {k} must equal the reduced-state value
        # computed against the dense oracle
        config = wmix.SampleConfig(n_parties=4, count=5, seed=47)
        for state in wmix.random_mixed(config):
            report = monogamy_partition(state, [(1, 2), (3,), (4,)])
            for partner, value in report.terms:
                spectator = ({3, 4} - set(partner)).pop()
                reduced = wmix.partial_trace(state, {spectator})
                dense = wmix.embed_dense(reduced)
                brute = wmix.negativity_dense(
                    dense, Bipartition.from_left((1, 2), 3)) ** 2
                assert abs(value - brute) <= 1e-9

    def test_diagonal_equality(self, diagonal_state):
        report = monogamy_partition(diagonal_state, [(1,), (2,), (3,)])
        assert report.rhs == 0.0
        assert report.residual == 0.0
        assert report.equality_flag
        assert report.inferred_separability

    def test_separable_focus_gives_equality(self, block_mixture):
        report = monogamy_partition(block_mixture, [(1,), (2,), (3,)])
        assert report.rhs == 0.0
        assert report.equality_flag
        assert Bipartition.single(1, 3) in report.inferred_separability

    def test_grouped_focus_zero_block(self):
        # two entangled pairs side by side: focus block {1,2} decouples
        # from {3,4} without any single party decoupling
        inner = np.array([[0.5, 0.4], [0.4, 0.5]])
        coeff = np.zeros((4, 4), dtype=complex)
        coeff[np.ix_([0, 1], [0, 1])] = inner / 2  # positions 1,2 = parties 3,4
        coeff[np.ix_([2, 3], [2, 3])] = inner / 2  # positions 3,4 = parties 1,2
        state = wmix.WMixedState(SystemShape(4), 0.0, coeff)
        report = monogamy_partition(state, [(1, 2), (3,), (4,)])
        assert report.equality_flag
        assert Bipartition.from_left((1, 2), 4) in report.inferred_separability

    def test_too_few_blocks(self, w3_mixed):
        with pytest.raises(PartitionError):
            monogamy_partition(w3_mixed, [(1,), (2, 3)])

    def test_overlapping_blocks(self):
        state = as_mixed_state(make_w_state(4))
        with pytest.raises(PartitionError):
            monogamy_partition(state, [(1, 2), (2, 3), (4,)])

    def test_incomplete_blocks(self):
        state = as_mixed_state(make_w_state(4))
        with pytest.raises(PartitionError):
            monogamy_partition(state, [(1,), (2,), (3,)])

    def test_residual_nonnegative_on_samples(self):
        from itertools import combinations
        config = wmix.SampleConfig(n_parties=4, count=20, seed=53)
        partitions = []
        for a in combinations(range(1, 5), 2):
            rest = [p for p in range(1, 5) if p not in a]
            partitions.append([a, (rest[0],), (rest[1],)])
        partitions.append([(1,), (2,), (3,), (4,)])
        for state in wmix.random_mixed(config):
            for partition in partitions:
                assert monogamy_partition(state, partition).residual >= -1e-10


    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["mixed_ginibre", "reduced", "pure"])
    def test_terms_equal_reduced_then_cut(self, n, kind, family_state):
        rng = np.random.default_rng(61 + n)
        for d in (2, 3):
            state = family_state(kind, n, d, seed=n + 10 * d)
            assert (state.vacuum_weight > 0) == (kind == "reduced")
            for _ in range(4):
                n_blocks = int(rng.integers(3, n + 1))
                owner = np.concatenate([
                    np.arange(n_blocks), rng.integers(0, n_blocks, n - n_blocks)])
                rng.shuffle(owner)
                partition = [tuple(int(p) + 1 for p in np.flatnonzero(owner == b))
                             for b in range(n_blocks)]
                focus = partition[0]
                report = monogamy_partition(state, partition)
                for partner, value in report.terms:
                    survivors = sorted(focus + partner)
                    outside = [p for p in range(1, n + 1) if p not in survivors]
                    reduced = wmix.partial_trace(state, outside)
                    cut = Bipartition.from_left(
                        [survivors.index(p) + 1 for p in focus], len(survivors))
                    expected = wmix.negativity_cut(reduced, cut) ** 2
                    assert abs(value - expected) <= 1e-14


class TestEqualityDiagnosis:
    def test_requires_equality_flag(self, w3_mixed):
        report = monogamy_single(w3_mixed, 1)
        with pytest.raises(ValueError):
            equality_diagnosis(report, w3_mixed)

    def test_diagonal_lists_all_single_cuts(self, diagonal_state):
        report = monogamy_single(diagonal_state, 1)
        cuts = equality_diagnosis(report, diagonal_state)
        assert set(cuts) == {Bipartition.single(p, 3) for p in (1, 2, 3)}

    def test_never_raises_across_structured_sweep(self):
        config = wmix.SampleConfig(
            n_parties=4, count=50, seed=59, kind="structured_zero_row")
        for state in wmix.random_mixed(config):
            focus = wmix.zeroed_parties(state)[0]
            report = monogamy_single(state, focus)
            assert report.equality_flag
            assert report.inferred_separability  # non-empty, no raise


class TestCkwConcurrence:
    def test_w3_saturates(self, w3):
        report = ckw_concurrence_check(w3)
        assert abs(report.rhs - 8 / 9) <= 1e-10
        assert abs(sum(v for _, v in report.terms) - 8 / 9) <= 1e-10
        assert abs(report.residual) <= 1e-10

    def test_product_state_all_zero(self):
        state = make_generalized_w([1, 0, 0], SystemShape(3))
        report = ckw_concurrence_check(state)
        assert report.rhs <= 1e-12
        assert all(v <= 1e-12 for _, v in report.terms)

    def test_seeded_sweep_residuals(self):
        config = wmix.SampleConfig(
            n_parties=3, count=200, seed=61, kind="pure_sphere")
        for state in wmix.random_pure(config):
            report = ckw_concurrence_check(state)
            assert report.residual >= -1e-10

    def test_other_focus_parties(self, w3):
        for focus in (2, 3):
            report = ckw_concurrence_check(w3, focus=focus)
            assert abs(report.residual) <= 1e-10

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            ckw_concurrence_check(make_w_state(4))
