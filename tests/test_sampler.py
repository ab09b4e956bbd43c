"""Determinism and structural guarantees of the sample streams."""

import numpy as np
import pytest

import wmix
from wmix import Bipartition, SampleConfig, random_mixed, random_pure, zeroed_parties


class TestDeterminism:
    def test_mixed_stream_is_bit_identical(self):
        config = SampleConfig(n_parties=4, count=5, seed=42)
        first = [s.coeff for s in random_mixed(config)]
        second = [s.coeff for s in random_mixed(config)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_stream_is_order_independent(self):
        # sample i of a long stream equals sample i of a short stream
        long = [s.coeff for s in random_mixed(SampleConfig(4, count=6, seed=9))]
        short = [s.coeff for s in random_mixed(SampleConfig(4, count=3, seed=9))]
        for a, b in zip(short, long):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = next(iter(random_mixed(SampleConfig(3, count=1, seed=1))))
        b = next(iter(random_mixed(SampleConfig(3, count=1, seed=2))))
        assert not np.array_equal(a.coeff, b.coeff)

    def test_pure_stream_is_bit_identical(self):
        config = SampleConfig(n_parties=3, count=4, seed=42, kind="pure_sphere")
        first = [s.amplitudes for s in random_pure(config)]
        second = [s.amplitudes for s in random_pure(config)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestStreamContracts:
    def test_mixed_invariants(self):
        config = SampleConfig(n_parties=3, local_dim=3, count=10, seed=5)
        for state in random_mixed(config):
            assert state.vacuum_weight == 0.0
            assert np.linalg.eigvalsh(state.coeff)[0] >= -1e-10
            assert abs(state.coeff.trace().real - 1) <= 1e-12

    def test_pure_normalization(self):
        config = SampleConfig(n_parties=5, count=10, seed=5, kind="pure_sphere")
        for state in random_pure(config):
            assert abs(np.linalg.norm(state.amplitudes) - 1) <= 1e-12

    def test_kind_routing(self):
        with pytest.raises(ValueError):
            next(iter(random_mixed(SampleConfig(3, kind="pure_sphere"))))
        with pytest.raises(ValueError):
            next(iter(random_pure(SampleConfig(3, kind="mixed_ginibre"))))
        with pytest.raises(ValueError):
            SampleConfig(3, kind="bogus")
        with pytest.raises(ValueError):
            SampleConfig(3, count=0)


class TestStructuredZeroRow:
    def test_designated_cut_separable_and_only_that(self):
        config = SampleConfig(n_parties=4, count=30, seed=77,
                              kind="structured_zero_row")
        for state in random_mixed(config):
            parties = zeroed_parties(state)
            assert len(parties) == 1
            party = parties[0]
            assert wmix.is_separable_cut(state, Bipartition.single(party, 4))
            verdict = wmix.classify(state)
            separable = [cut for cut, sep in verdict.per_cut.items() if sep]
            assert separable == [Bipartition.single(party, 4)]

    def test_renormalized(self):
        config = SampleConfig(n_parties=3, count=10, seed=78,
                              kind="structured_zero_row")
        for state in random_mixed(config):
            assert abs(state.coeff.trace().real - 1) <= 1e-12

    def test_all_mass_on_zeroed_party_raises(self, monkeypatch):
        shape = wmix.SystemShape(2)
        coeff = np.zeros((2, 2), dtype=complex)
        coeff[shape.labels_of_parties([1]), shape.labels_of_parties([1])] = 1.0
        monkeypatch.setattr(wmix.sampler, "_ginibre_coeff",
                            lambda rng, k: coeff.copy())
        # some sample of this fixed stream zeroes party 1, which holds all mass
        config = SampleConfig(n_parties=2, count=32, seed=3,
                              kind="structured_zero_row")
        with pytest.raises(wmix.DegenerateInputError):
            list(random_mixed(config))

    def test_qudit_blocks_fully_zeroed(self):
        config = SampleConfig(n_parties=3, local_dim=3, count=10, seed=79,
                              kind="structured_zero_row")
        for state in random_mixed(config):
            party = zeroed_parties(state)[0]
            rows = state.shape.labels_of_parties([party])
            assert not state.coeff[rows, :].any()
            assert not state.coeff[:, rows].any()
