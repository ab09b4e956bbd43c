"""State file round trips and the canonical JSON emitter."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wmix
from wmix import load_state, loads_state, save_state
from wmix.statefile import dumps_canonical, dumps_state, format_float


class TestFormatFloat:
    def test_negative_zero_normalized(self):
        assert format_float(-0.0) == "0"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))
        with pytest.raises(ValueError):
            format_float(float("inf"))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips_exactly(self, value):
        assert float(json.loads(format_float(value))) == value or (
            value == 0.0 and json.loads(format_float(value)) == 0)


class TestCanonicalJson:
    def test_shapes(self):
        text = dumps_canonical(
            {"a": 1, "b": [1.5, True, None, "x"], "c": {"d": 0.0}})
        assert text == '{"a": 1, "b": [1.5, true, null, "x"], "c": {"d": 0}}'
        assert json.loads(text) == {
            "a": 1, "b": [1.5, True, None, "x"], "c": {"d": 0}}

    def test_seventeen_digits(self):
        assert dumps_canonical(1 / 3) == "0.33333333333333331"

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            dumps_canonical(object())

    @given(st.text(alphabet=st.one_of(
        st.characters(),
        st.characters(categories=["Cs"]),
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                         "\u2028", "\xe9", "\U0001f600"]))))
    def test_strings_quoted_like_json_dumps(self, text):
        assert dumps_canonical(text) == json.dumps(text)
        assert dumps_canonical({text: 1.0}) == "{" + json.dumps(text) + ": 1}"
        assert dumps_canonical({"k": text}) == '{"k": ' + json.dumps(text) + "}"


class TestStateRoundTrip:
    def test_mixed_round_trip_is_exact(self, tmp_path):
        state = next(iter(wmix.random_mixed(
            wmix.SampleConfig(n_parties=3, local_dim=3, count=1, seed=101))))
        path = tmp_path / "state.json"
        save_state(state, path)
        loaded = load_state(path)
        assert np.array_equal(loaded.coeff, state.coeff)
        assert loaded.vacuum_weight == state.vacuum_weight
        assert loaded.shape == state.shape

    def test_reduced_state_round_trip(self, w3_mixed, tmp_path):
        reduced = wmix.partial_trace(w3_mixed, {2})
        path = tmp_path / "reduced.json"
        save_state(reduced, path)
        loaded = load_state(path)
        assert np.array_equal(loaded.coeff, reduced.coeff)
        assert loaded.vacuum_weight == reduced.vacuum_weight

    def test_pure_round_trip_is_exact(self, tmp_path):
        state = next(iter(wmix.random_pure(
            wmix.SampleConfig(n_parties=4, count=1, seed=103, kind="pure_sphere"))))
        path = tmp_path / "pure.json"
        save_state(state, path)
        loaded = load_state(path)
        assert np.array_equal(loaded.amplitudes, state.amplitudes)

    def test_fingerprint_stable_and_distinct(self, w3_mixed):
        a = wmix.fingerprint(w3_mixed)
        assert a == wmix.fingerprint(w3_mixed)
        other = wmix.as_mixed_state(wmix.make_w_state(4))
        assert a != wmix.fingerprint(other)


class TestMalformedFiles:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            loads_state('{"kind": "bogus"}')

    def test_wrong_lengths(self):
        with pytest.raises(ValueError):
            loads_state(
                '{"kind": "w_pure", "n": 3, "d": 2, "amp_re": [1, 0], "amp_im": [0, 0]}')

    def test_non_hermitian_coeff(self):
        text = dumps_canonical({
            "kind": "w_mixed", "n": 2, "d": 2, "vacuum": 0.0,
            "coeff_re": [[0.5, 0.4], [0.1, 0.5]],
            "coeff_im": [[0.0, 0.0], [0.0, 0.0]],
        })
        with pytest.raises(ValueError):
            loads_state(text)

    def test_bad_json(self):
        with pytest.raises(json.JSONDecodeError):
            loads_state("{not json")

    def test_missing_vacuum(self):
        with pytest.raises(ValueError):
            loads_state(
                '{"kind": "w_mixed", "n": 2, "d": 2,'
                ' "coeff_re": [[0.5, 0], [0, 0.5]],'
                ' "coeff_im": [[0, 0], [0, 0]]}')

    def test_schema_field_order(self, w3_mixed):
        data = json.loads(dumps_state(w3_mixed))
        assert list(data) == ["kind", "n", "d", "vacuum", "coeff_re", "coeff_im"]
        pure = wmix.make_w_state(3)
        assert list(json.loads(dumps_state(pure))) == [
            "kind", "n", "d", "amp_re", "amp_im"]

    @pytest.mark.parametrize("field", ["n", "d"])
    def test_boolean_size_rejected(self, field):
        # with n = true the payload fits a one-party register exactly
        data = {"kind": "w_mixed", "n": 1, "d": 2, "vacuum": 0.0,
                "coeff_re": [[1.0]], "coeff_im": [[0.0]]}
        loads_state(json.dumps(data))
        data[field] = True
        with pytest.raises(ValueError, match="bad state file"):
            loads_state(json.dumps(data))

    def test_nan_vacuum_rejected(self):
        text = json.dumps({
            "kind": "w_mixed", "n": 2, "d": 2, "vacuum": float("nan"),
            "coeff_re": [[0.5, 0], [0, 0.5]], "coeff_im": [[0, 0], [0, 0]]})
        with pytest.raises(wmix.StateInvariantError):
            loads_state(text)

    def test_nan_coherence_reported_as_non_finite(self):
        text = json.dumps({
            "kind": "w_mixed", "n": 2, "d": 2, "vacuum": 0.0,
            "coeff_re": [[0.5, float("nan")], [float("nan"), 0.5]],
            "coeff_im": [[0, 0], [0, 0]]})
        with pytest.raises(
                ValueError, match="bad state file: coefficient matrices must be finite"):
            loads_state(text)

    def test_nan_amplitude_reported_as_non_finite(self):
        text = json.dumps({"kind": "w_pure", "n": 2, "d": 2,
                           "amp_re": [1.0, 0.0], "amp_im": [float("nan"), 0.0]})
        with pytest.raises(
                ValueError, match="bad state file: amplitude vectors must be finite"):
            loads_state(text)
