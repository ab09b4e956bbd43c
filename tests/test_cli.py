"""Command-line behavior: subcommands, formats, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wmix
from wmix.cli import main

FIXTURE_DIR = Path(__file__).parent / "cli_fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMake:
    def test_make_w_writes_uniform_coeff(self, capsys, tmp_path):
        path = tmp_path / "w3.json"
        code, out, _ = run_cli(capsys, "make", "w", "--n", "3", "-o", str(path))
        assert code == 0 and out == ""
        state = wmix.load_state(path)
        np.testing.assert_allclose(state.coeff, np.full((3, 3), 1 / 3), atol=1e-14)

    def test_make_w_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "make", "w", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "w_mixed" and data["n"] == 2

    def test_make_w_bad_n(self, capsys):
        code, _, err = run_cli(capsys, "make", "w", "--n", "1")
        assert code == 2
        assert "error" in err

    def test_make_pure_inline(self, capsys, tmp_path):
        path = tmp_path / "pure.json"
        code, _, _ = run_cli(
            capsys, "make", "pure", "--amps", "1,0,0", "-o", str(path))
        assert code == 0
        state = wmix.load_state(path)
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0], atol=1e-14)

    def test_make_pure_from_file(self, capsys, tmp_path):
        amps = tmp_path / "amps.txt"
        amps.write_text("0.6, 0.8, 0\n")
        path = tmp_path / "pure.json"
        code, _, _ = run_cli(
            capsys, "make", "pure", "--amps", str(amps), "-o", str(path))
        assert code == 0
        state = wmix.load_state(path)
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8, 0], atol=1e-14)

    def test_make_pure_complex_tokens(self, capsys, tmp_path):
        path = tmp_path / "pure.json"
        code, _, _ = run_cli(
            capsys, "make", "pure", "--amps", "0.6,0.8j,0", "-o", str(path))
        assert code == 0
        state = wmix.load_state(path)
        assert abs(state.amplitudes[1] - 0.8j) <= 1e-14

    def test_make_pure_rejects_garbage(self, capsys):
        code, _, err = run_cli(capsys, "make", "pure", "--amps", "a,b,c")
        assert code == 2 and "error" in err

    def test_make_mix_phase_ensemble(self, capsys, tmp_path):
        r = 1 / np.sqrt(3)
        ensemble = {
            "n": 3, "d": 2,
            "states": [
                {"weight": 0.5, "amp_re": [r, r, r], "amp_im": [0, 0, 0]},
                {"weight": 0.5, "amp_re": [r, r, -r], "amp_im": [0, 0, 0]},
            ],
        }
        src = tmp_path / "ensemble.json"
        src.write_text(json.dumps(ensemble))
        path = tmp_path / "mixed.json"
        code, _, _ = run_cli(
            capsys, "make", "mix", "--ensemble", str(src), "-o", str(path))
        assert code == 0
        state = wmix.load_state(path)
        expected = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) / 3
        np.testing.assert_allclose(state.coeff, expected, atol=1e-12)

    def test_make_mix_bad_weights(self, capsys, tmp_path):
        ensemble = {
            "n": 2, "d": 2,
            "states": [
                {"weight": 0.5, "amp_re": [1, 0], "amp_im": [0, 0]},
                {"weight": 0.6, "amp_re": [0, 1], "amp_im": [0, 0]},
            ],
        }
        src = tmp_path / "ensemble.json"
        src.write_text(json.dumps(ensemble))
        code, _, err = run_cli(capsys, "make", "mix", "--ensemble", str(src))
        assert code == 2 and "error" in err


@pytest.fixture
def w3_file(tmp_path):
    path = tmp_path / "w3.json"
    wmix.save_state(wmix.as_mixed_state(wmix.make_w_state(3)), path)
    return str(path)


@pytest.fixture
def w4_file(tmp_path):
    path = tmp_path / "w4.json"
    wmix.save_state(wmix.as_mixed_state(wmix.make_w_state(4)), path)
    return str(path)


class TestAnalyze:
    def test_w3_report_values(self, capsys, w3_file):
        code, out, _ = run_cli(capsys, "analyze", w3_file)
        assert code == 0
        report = json.loads(out)
        assert abs(report["single_cut_negativity"]["1"] - np.sqrt(2) / 3) <= 1e-12
        assert abs(report["pairwise_negativity"]["1,2"]
                   - (np.sqrt(5) - 1) / 6) <= 1e-12
        assert abs(report["monogamy_single"][0]["residual"]
                   - (np.sqrt(5) - 1) / 9) <= 1e-10
        assert report["verdicts"]["genuine"] is True
        assert len(report["fingerprint"]) == 64

    def test_diagonal_fully_separable(self, capsys, tmp_path, diagonal_state):
        path = tmp_path / "diag.json"
        wmix.save_state(diagonal_state, path)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["fully_separable"] is True
        assert report["verdicts"]["genuine"] is False
        assert all(v == "separable" for v in report["verdicts"]["per_cut"].values())

    def test_pure_state_report(self, capsys, tmp_path):
        path = tmp_path / "pure.json"
        wmix.save_state(
            wmix.make_generalized_w([0.6, 0.8, 0.0], wmix.SystemShape(3)), path)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "w_pure"
        assert report["genuine_rank"] == 2

    def test_partition_flag(self, capsys, w4_file):
        code, out, _ = run_cli(
            capsys, "analyze", w4_file, "--partition", "1,2|3|4")
        assert code == 0
        report = json.loads(out)
        grouped = report["monogamy_partition"]
        assert grouped["partition"] == "1,2|3|4"
        assert abs(grouped["rhs"] - 0.25) <= 1e-12
        assert abs(grouped["residual"] - 0.125) <= 1e-12

    def test_cut_flag(self, capsys, w4_file):
        code, out, _ = run_cli(capsys, "analyze", w4_file, "--cut", "1,3|2,4")
        assert code == 0
        report = json.loads(out)
        value = report["requested_cut_negativity"]["1,3|2,4"]
        assert abs(value - 0.5) <= 1e-12

    def test_oracle_flag(self, capsys, w3_file):
        code, out, _ = run_cli(capsys, "analyze", w3_file, "--oracle")
        assert code == 0
        report = json.loads(out)
        assert report["oracle"]["cuts_checked"] == 3
        assert report["oracle"]["max_abs_delta"] <= 1e-12

    def test_csv_format(self, capsys, w3_file):
        code, out, _ = run_cli(capsys, "analyze", w3_file, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "section,label,partner,value,rhs,residual,equality"
        sections = {line.split(",")[0] for line in lines[1:]}
        assert sections == {"single_cut", "bipartition", "pairwise",
                            "pairwise_bound", "monogamy_single"}

    def test_byte_stability(self, capsys, w3_file):
        _, first, _ = run_cli(capsys, "analyze", w3_file)
        _, second, _ = run_cli(capsys, "analyze", w3_file)
        assert first == second

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/state.json")
        assert code == 2 and "error" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and "error" in err

    def test_nan_vacuum_file(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({
            "kind": "w_mixed", "n": 2, "d": 2, "vacuum": float("nan"),
            "coeff_re": [[0.5, 0], [0, 0.5]], "coeff_im": [[0, 0], [0, 0]]}))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and out == "" and "must be finite" in err

    def test_nan_coherence_file(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({
            "kind": "w_mixed", "n": 2, "d": 2, "vacuum": 0.0,
            "coeff_re": [[0.5, float("nan")], [float("nan"), 0.5]],
            "coeff_im": [[0, 0], [0, 0]]}))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and out == "" and "must be finite" in err

    @pytest.mark.parametrize("name, argv", [
        # every one of the 511 bipartition negativities of a p0 > 0 state
        ("ginibre_n10", ["--partition", "1,2,3|4,5|6,7,8|9,10",
                         "--cut", "1,3,5,7,9|2,4,6,8,10"]),
        # per-cut verdicts above N = 10; the separable cuts are the
        # unions of the three blocks {1,4,7,10}, {2,5,8,11}, {3,6,9}
        ("blocks3_n11", ["--partition", "1,4,7,10|2,5|8,11|3,6,9",
                         "--cut", "1,4,7,10|2,3,5,6,8,9,11"]),
    ], ids=["ginibre_n10", "blocks3_n11"])
    def test_fixture_byte_exact(self, capsys, name, argv):
        code, out, _ = run_cli(
            capsys, "analyze", str(FIXTURE_DIR / f"{name}.state.json"), *argv)
        assert code == 0
        assert out == (FIXTURE_DIR / f"{name}.golden.json").read_text()

    def test_builds_no_cut_object_per_cut(self, capsys, monkeypatch, tmp_path):
        n = 14
        path = tmp_path / "n14.json"
        wmix.save_state(next(iter(wmix.random_mixed(
            wmix.SampleConfig(n_parties=n, count=1, seed=n)))), path)
        real = wmix.Bipartition.__post_init__
        built = []

        def counting(cut):
            built.append(cut)
            real(cut)

        monkeypatch.setattr(wmix.Bipartition, "__post_init__", counting)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert len(json.loads(out)["verdicts"]["per_cut"]) == 2 ** (n - 1) - 1
        # the single cuts and one cut per monogamy focus, none per bipartition
        assert len(built) <= 2 * n

    def test_oracle_capacity(self, capsys, tmp_path):
        path = tmp_path / "w13.json"
        wmix.save_state(wmix.as_mixed_state(wmix.make_w_state(13)), path)
        code, _, err = run_cli(capsys, "analyze", str(path), "--oracle")
        assert code == 3 and "error" in err


class TestVerify:
    def test_clean_run(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--n", "3", "--count", "10", "--seed", "7")
        assert code == 0
        summary = json.loads(out)
        assert summary["ok"] is True
        assert summary["max_abs_delta"] <= 1e-9
        assert summary["min_monogamy_residual"] >= -1e-10
        assert "verified 10 samples" in err

    def test_qudit_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--d", "3", "--count", "5", "--seed", "1")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_corrupt_self_test_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--count", "2", "--seed", "7",
            "--self-test-corrupt")
        assert code == 1
        summary = json.loads(out)
        assert summary["ok"] is False
        assert summary["violations"]
        assert summary["violations"][0]["index"] == 0

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_one_partial_transpose_per_cut(self, capsys, monkeypatch, corrupt):
        real = wmix.oracle.partial_transpose
        real_norm = wmix.closed_form.cross_block_norm
        calls = []
        norms = []

        def counting(op, parties):
            calls.append(parties)
            return real(op, parties)

        def counting_norm(state, cut):
            norms.append(cut)
            return real_norm(state, cut)

        monkeypatch.setattr(wmix.oracle, "partial_transpose", counting)
        monkeypatch.setattr(wmix.closed_form, "cross_block_norm", counting_norm)
        argv = ["verify", "--n", "4", "--count", "2"]
        code, out, _ = run_cli(
            capsys, *argv, *(["--self-test-corrupt"] if corrupt else []))
        assert len(calls) == 2 * 7
        # one cross-block norm per (sample, cut) plus one per monogamy focus
        assert len(norms) == 2 * (7 + 4)
        assert code == (1 if corrupt else 0)
        assert json.loads(out)["ok"] is not corrupt

    def test_eight_parties(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "8", "--count", "3")
        assert code == 0
        summary = json.loads(out)
        assert summary["ok"] is True
        assert summary["max_abs_delta"] <= 1e-9

    def test_capacity_exit(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "13", "--count", "1")
        assert code == 3 and "error" in err

    def test_determinism_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--n", "3", "--count", "5")
        _, second, _ = run_cli(capsys, "verify", "--n", "3", "--count", "5")
        assert first == second


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "w3.json"
        wmix.save_state(wmix.as_mixed_state(wmix.make_w_state(3)), path)
        result = subprocess.run(
            [sys.executable, "-m", "wmix", "analyze", str(path)],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert json.loads(result.stdout)["n"] == 3
