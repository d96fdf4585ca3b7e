"""CLI behavior: exit codes, report determinism, CSV output."""

import json

import numpy as np
import pytest

from ryslab import cli
from ryslab.cli import main


def run(argv):
    return main(argv)


class TestVerifyCommand:
    def test_gaussian_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run([
            "verify", "--case", "gaussian", "--lambda", "2",
            "--points", "30", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["fail"] == 0
        names = {r["name"] for r in payload["records"]}
        assert "gaussian:defining-residual" in names
        assert "gaussian:splitting-identity" in names
        assert all(r["anchor"] for r in payload["records"])

    def test_einstein_sphere_with_mu(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run([
            "verify", "--case", "einstein-s3", "--alpha", "1", "--beta", "0",
            "--mu", "1", "--lambda", "-2", "--points", "20", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        names = {r["name"] for r in payload["records"]}
        assert "einstein-s3:laplacian-identity" in names
        assert "einstein-s3:scalar-constancy" in names

    def test_unknown_case_exits_2_without_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["verify", "--case", "nosuch", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_negative_control_exits_1(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run([
            "verify", "--case", "einstein-s3", "--lambda", "0",
            "--points", "10", "--out", str(out),
        ])
        assert code == 1
        payload = json.loads(out.read_text())
        rec = payload["records"][0]
        assert rec["name"] == "einstein-s3:defining-residual"
        assert rec["verdict"] == "fail"
        # both residual norms are reported; derived identities are skipped,
        # not reported as failures
        names = [r["name"] for r in payload["records"]]
        assert names == [
            "einstein-s3:defining-residual",
            "einstein-s3:defining-residual-gnorm",
        ]

    def test_byte_identical_reports(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = [
            "verify", "--case", "concircular-flat", "--case", "flat-product",
            "--points", "25", "--seed", "3", "--out", str(out),
        ]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first

    def test_thread_env_does_not_change_report(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "report.json"
        argv = [
            "verify", "--case", "gaussian", "--points", "20",
            "--seed", "5", "--out", str(out),
        ]
        assert run(argv) == 0
        serial = out.read_bytes()
        monkeypatch.setenv("RYS_LAB_THREADS", "4")
        assert run(argv) == 0
        assert out.read_bytes() == serial

    def test_tol_override(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run([
            "verify", "--case", "einstein-s3", "--points", "10",
            "--tol", "defining-residual=1e-20", "--out", str(out),
        ])
        assert code == 1  # machine noise exceeds an impossible tolerance
        code = run([
            "verify", "--case", "gaussian", "--points", "10",
            "--tol", "bogus=1", "--out", str(out),
        ])
        assert code == 2

    def test_perturbed_flat_universal_suite(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run([
            "verify", "--case", "perturbed-flat", "--points", "5",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        names = {r["name"] for r in payload["records"]}
        assert names == {
            "perturbed-flat:contracted-bianchi",
            "perturbed-flat:commutation",
            "perturbed-flat:bochner",
        }


class TestIntegrateCommand:
    def test_unit_sphere_volume(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run([
            "integrate", "--case", "unit-s3", "--resolution", "12",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        rec = payload["records"][0]
        assert rec["verdict"] == "pass"
        assert abs(rec["rhs"] - 19.739208802178716) < 1e-12

    def test_divergence_records(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run([
            "integrate", "--case", "unit-s3", "--resolution", "12",
            "--divergence", "2", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["total"] == 3

    def test_noncompact_case_is_usage_error(self, tmp_path, capsys):
        code = run([
            "integrate", "--case", "gaussian", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_unknown_case(self, tmp_path, capsys):
        code = run([
            "integrate", "--case", "nosuch", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_bad_resolution(self, tmp_path, capsys):
        code = run([
            "integrate", "--case", "unit-s3", "--resolution", "4",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2


class TestSolveCommand:
    def test_gaussian_profile_csv(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = run([
            "solve", "--background", "flat", "--lambda", "2",
            "--grid", "128", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "r,f,residual"
        data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        r, f, res = data[:, 0], data[:, 1], data[:, 2]
        assert len(r) == 129
        expected = -(r**2) + r[0] ** 2
        assert np.max(np.abs(f - expected)) <= 1e-6
        assert np.max(res) <= 1e-8

    def test_no_convergence_exit_1(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = run([
            "solve", "--background", "sphere", "--lambda", "5",
            "--grid", "32", "--r-max", "1.5", "--out", str(out),
        ])
        assert code == 1
        assert out.exists()

    def test_grid_floor(self, tmp_path, capsys):
        code = run([
            "solve", "--grid", "4", "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2


def test_catalog_listing(capsys):
    assert run(["catalog"]) == 0
    text = capsys.readouterr().out
    for name in ("gaussian", "unit-s3", "h3", "s2xr", "perturbed-flat"):
        assert name in text


def test_version_flag(capsys):
    assert run(["--version"]) == 0


def test_degenerate_mu_alpha_warning(tmp_path, capsys):
    """mu * alpha = -1 zeroes the discriminating factor of two identities;
    the report flags it instead of asserting anything about that regime."""
    out = tmp_path / "report.json"
    code = run([
        "verify", "--case", "einstein-s3", "--alpha", "1", "--beta", "0",
        "--mu", "-1", "--lambda", "-2", "--points", "10", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert any("mu*alpha" in w for w in payload["warnings"])


class TestReportInvariants:
    def test_verdict_matches_gap_tolerance(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run([
            "verify", "--case", "gaussian", "--points", "10", "--out", str(out),
        ])
        payload = json.loads(out.read_text())
        for rec in payload["records"]:
            assert (rec["verdict"] == "pass") == (rec["gap"] <= rec["tol"])

    def test_summary_counts_match_records(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run([
            "verify", "--case", "einstein-s3", "--lambda", "0",
            "--points", "10", "--out", str(out),
        ])
        payload = json.loads(out.read_text())
        s = payload["summary"]
        assert s["total"] == len(payload["records"])
        assert s["pass"] == sum(
            1 for r in payload["records"] if r["verdict"] == "pass"
        )
        assert s["fail"] == s["total"] - s["pass"]

    def test_records_carry_anchor_strings(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run([
            "verify", "--case", "concircular-flat", "--points", "10",
            "--out", str(out),
        ])
        payload = json.loads(out.read_text())
        assert all(isinstance(r["anchor"], str) and r["anchor"] for r in payload["records"])


class TestParseTimeValidation:
    """Bad input is a usage error: exit 2 before any work, no traceback,
    no report."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--case", "gaussian", "--points", "0"],
            ["verify", "--case", "gaussian", "--points", "-5"],
            ["verify", "--case", "gaussian", "--points", "10001"],
            ["verify", "--case", "gaussian", "--lambda", "nan"],
            ["verify", "--case", "gaussian", "--alpha", "inf"],
            ["verify", "--case", "perturbed-flat", "--seed", "-3"],
            ["verify", "--case", "gaussian", "--tol", "defining-residual=nan"],
            ["solve", "--lambda", "nan"],
            ["solve", "--alpha", "inf"],
            ["solve", "--background", "sphere", "--radius", "0"],
            ["solve", "--r-max", "-1"],
            ["integrate", "--case", "unit-s3", "--divergence", "-1"],
            ["solve", "--grid", "10000000"],
            ["solve", "--grid", str(cli.MAX_INTERVALS + 1)],
            ["integrate", "--case", "unit-s3", "--resolution", "100000000"],
            ["integrate", "--case", "unit-s3", "--resolution", str(cli.MAX_RESOLUTION + 1)],
            ["solve", "--background", "sphere", "--radius", "1e-300"],
            ["solve", "--background", "sphere", "--radius", "1e-154"],
            ["solve", "--r-max", "1e300", "--grid", "16"],
            ["solve", "--background", "sphere", "--radius", "1e-150", "--lambda", "-2"],
        ],
        ids=[
            "points-zero",
            "points-negative",
            "points-above-ceiling",
            "verify-lambda-nan",
            "verify-alpha-inf",
            "seed-negative",
            "tol-nan",
            "solve-lambda-nan",
            "solve-alpha-inf",
            "solve-radius-zero",
            "solve-r-max-negative",
            "divergence-negative",
            "grid-huge",
            "grid-above-ceiling",
            "resolution-huge",
            "resolution-above-ceiling",
            "solve-radius-underflow",
            "solve-radius-curvature-overflow",
            "solve-r-max-stencil-overflow",
            "solve-radius-coefficient-overflow",
        ],
    )
    def test_rejected_with_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


def test_size_ceilings_parse():
    parser = cli.build_parser()
    args = parser.parse_args(["solve", "--grid", str(cli.MAX_INTERVALS)])
    assert args.grid == cli.MAX_INTERVALS
    args = parser.parse_args(
        ["integrate", "--case", "unit-s3", "--resolution", str(cli.MAX_RESOLUTION)]
    )
    assert args.resolution == cli.MAX_RESOLUTION


def test_verify_builds_shared_quantities_once_per_batch(tmp_path, capsys, monkeypatch):
    """One case evaluates the defining residual and the jet of R once for
    its whole point batch, not once (or five times) per point."""
    from ryslab import curvature, soliton

    calls = {"defining_residual": 0, "scalar_curvature_jet": 0}
    residual, jet2 = soliton.defining_residual, curvature.jet2

    def counting_residual(inst, p):
        calls["defining_residual"] += 1
        return residual(inst, p)

    def counting_jet2(fn, x):
        if getattr(fn, "__qualname__", "").startswith("scalar_curvature_field."):
            calls["scalar_curvature_jet"] += 1
        return jet2(fn, x)

    monkeypatch.setattr(soliton, "defining_residual", counting_residual)
    monkeypatch.setattr(curvature, "jet2", counting_jet2)
    out = tmp_path / "report.json"
    argv = ["verify", "--case", "einstein-s3", "--points", "12", "--out", str(out)]
    assert run(argv) == 0
    assert calls == {"defining_residual": 1, "scalar_curvature_jet": 1}
