"""CLI behavior: exit codes, report determinism, CSV output."""

import json
import os
import re
import subprocess
import sys

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

    def test_nan_defining_residual_skips_the_derived_rows(self, tmp_path, capsys, monkeypatch):
        """A NaN defining residual fails its record, and the case is then
        off the soliton: no derived row runs, `verify` exits 1 and still
        writes the report with only the two defining rows."""
        report = cli.residual_report

        def nan_at_one_point(inst, batch):
            out = dict(report(inst, batch))
            out["max_abs"] = np.array(out["max_abs"])
            out["max_abs"][2] = np.nan
            return out

        monkeypatch.setattr(cli, "residual_report", nan_at_one_point)
        out = tmp_path / "report.json"
        assert run(["verify", "--case", "gaussian", "--points", "5", "--out", str(out)]) == 1
        records = json.loads(out.read_text())["records"]
        assert [(r["name"], r["verdict"]) for r in records] == [
            ("gaussian:defining-residual", "fail"),
            ("gaussian:defining-residual-gnorm", "pass"),
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
            "integrate", "--case", "nope", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown catalog entry 'nope'\n"

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
    assert run(["--vers"]) == 0
    assert capsys.readouterr().out == "ryslab 0.1.0\nryslab 0.1.0\n"


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


@pytest.mark.parametrize("mu", ["0.5", "-1e-300"])
def test_mu_on_concircular_flat_exits_2_before_any_case(mu, tmp_path, capsys):
    """concircular-flat is an RYS instance with no mu-term: a nonzero mu
    would be echoed and never applied, so it is a usage error, raised
    before the cases listed ahead of it run."""
    out = tmp_path / "report.json"
    code = run([
        "verify", "--case", "gaussian", "--case", "concircular-flat",
        f"--mu={mu}", "--points", "3", "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "mu" in captured.err


@pytest.mark.parametrize(
    "argv, dest, value",
    [
        (["verify", "--case", "gaussian", "--lambda", "-1e-3"], "lam", -1e-3),
        (["verify", "--case", "gaussian", "--lambda", "-1e3"], "lam", -1e3),
        (["verify", "--case", "gaussian", "--alpha", "-2.5E-1"], "alpha", -0.25),
        (["verify", "--case", "gaussian", "--beta", "-.5e+1"], "beta", -5.0),
        (["verify", "--case", "einstein-s3", "--mu", "-1e0"], "mu", -1.0),
        (["solve", "--lambda", "-1e1"], "lam", -10.0),
        (["solve", "--alpha", "-3.e-2"], "alpha", -0.03),
    ],
)
def test_negative_couplings_with_an_exponent_parse(argv, dest, value):
    """A negative coupling written with an exponent is a number, as with
    ``--lambda=-1e-3``, not a missing argument."""
    assert getattr(cli.parse_args(argv), dest) == value


@pytest.mark.parametrize("raw", ["-inf", "-nan", "nan", "inf", "-1e400", "-1e"])
@pytest.mark.parametrize("command", [["verify", "--case", "gaussian"], ["solve"]])
def test_non_finite_negative_couplings_still_exit_2(command, raw, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(command + ["--lambda", raw, "--out", str(out)]) == 2
    assert not out.exists()


def test_negative_exponent_coupling_runs(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--case", "gaussian", "--lambda", "-1e-3", "--points", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["lambda"] == -1e-3


def test_mu_zero_on_concircular_flat_runs(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--case", "concircular-flat", "--mu", "0", "--points", "3", "--out", str(out)]) == 0


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
            ["integrate", "--case", "unit-s3", "--resolution", "8"],
            ["integrate", "--case", "unit-s3", "--resolution", "11"],
            ["verify", "--case", "gaussian", "--lambda", "1e300"],
            ["verify", "--case", "gaussian", "--mu=-1e51"],
            ["integrate", "--case", "unit-s3", "--divergence", str(cli.MAX_DIVERGENCE + 1)],
            ["solve", "--background", "sphere", "--radius", "1e-300"],
            ["solve", "--background", "sphere", "--radius", "1e-154"],
            ["solve", "--r-max", "1e300", "--grid", "16"],
            ["solve", "--background", "sphere", "--radius", "1e-150", "--lambda", "-2"],
            ["solve", "--background", "sphere", "--lambda", "-2", "--r-max", "10"],
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
            "resolution-8-below-floor",
            "resolution-11-below-floor",
            "verify-lambda-above-ceiling",
            "verify-mu-below-negative-ceiling",
            "divergence-above-ceiling",
            "solve-radius-underflow",
            "solve-radius-curvature-overflow",
            "solve-r-max-stencil-overflow",
            "solve-radius-coefficient-overflow",
            "solve-sphere-past-antipode",
        ],
    )
    def test_rejected_with_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


def test_sphere_grid_short_of_the_antipode_parses():
    """--r-max 6 stays below pi * radius = 6.28 on the radius-2 sphere."""
    args = cli.parse_args(["solve", "--background", "sphere", "--radius", "2", "--r-max", "6"])
    assert cli._solve_problem(args) is None


def test_size_ceilings_parse():
    args = cli.parse_args(["solve", "--grid", str(cli.MAX_INTERVALS)])
    assert args.grid == cli.MAX_INTERVALS
    args = cli.parse_args(["integrate", "--case", "unit-s3", "--resolution", str(cli.MAX_RESOLUTION)])
    assert args.resolution == cli.MAX_RESOLUTION
    args = cli.parse_args(["integrate", "--case", "unit-s3", "--divergence", str(cli.MAX_DIVERGENCE)])
    assert args.divergence == cli.MAX_DIVERGENCE


class TestParsingRules:
    """How argv is read against each command's option table."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--points", "3", "--lambda", "-1e-3", "--tol", "volume=0"],
            ["verify", "--points=3", "--lambda=-1e-3", "--tol=volume=0"],
            ["verify", "--poi", "3", "--lamb=-1e-3", "--to", "volume=0"],
        ],
        ids=["space", "equals", "prefix"],
    )
    def test_value_forms_and_unique_prefixes(self, argv):
        args = cli.parse_args(argv)
        assert (args.points, args.lam, args.tol) == (3, -1e-3, [("volume", 0.0)])

    def test_the_token_after_an_option_is_its_value(self):
        assert cli.parse_args(["verify", "--out", "--points"]).out == "--points"
        assert cli.parse_args(["verify", "--case", "-h"]).case == ["-h"]
        with pytest.raises(cli.UsageError, match="argument --lambda: must be finite, got '-inf'"):
            cli.parse_args(["verify", "--lambda", "-inf"])

    def test_repeats_keep_the_last_value_and_accumulate_case_and_tol(self):
        args = cli.parse_args([
            "verify", "--points", "3", "--case", "gaussian", "--tol", "volume=1",
            "--points=5", "--case", "s2xr", "--case", "gaussian", "--tol", "bochner=2", "--seed", "1", "--seed", "0",
        ])
        assert (args.points, args.seed) == (5, 0)
        assert args.case == ["gaussian", "s2xr", "gaussian"]
        assert args.tol == [("volume", 1.0), ("bochner", 2.0)]

    def test_defaults_fill_options_not_given(self):
        args = cli.parse_args(["solve"])
        assert (args.background, args.radius, args.alpha, args.beta, args.lam, args.grid, args.r_max, args.out) == (
            "flat", 1.0, 1.0, 0.0, 0.0, 128, 1.0, "rys-profile.csv"
        )
        args = cli.parse_args(["verify"])
        assert (args.case, args.alpha, args.points, args.seed, args.tol) == ([], None, 200, 7, [])

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "expected a command"),
            (["--out", "x"], "unrecognized argument: --out"),
            (["nope"], "expected a command"),
            (["verify", "--points"], "argument --points: expected one argument"),
            (["verify", "--case", "gaussian", "--seed"], "argument --seed: expected one argument"),
            (["verify", "--nope", "3"], "unrecognized argument: --nope"),
            (["verify", "stray"], "unrecognized argument: stray"),
            (["verify", "-p", "3"], "unrecognized argument: -p"),
            (["verify", "--", "--points", "3"], "unrecognized argument: --"),
            (["catalog", "--points", "3"], "unrecognized argument: --points"),
            (["integrate", "--points", "3"], "unrecognized argument: --points"),
            (["integrate", "--resolution", "12"], "--case is required"),
            (["solve", "--r", "1"], "ambiguous option: --r could match --radius, --r-max"),
            (["solve", "--b=flat"], "ambiguous option: --b could match --background, --beta"),
            (["verify", "--help=yes"], "argument --help: ignored explicit argument 'yes'"),
            (["solve", "--background", "torus"], "unknown background 'torus'"),
            (["solve", "--background", "sphere", "--r-max", "4"], "solve: --r-max 4.0"),
        ],
    )
    def test_usage_errors_exit_2_and_write_nothing(self, argv, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(cli.UsageError, match=re.escape(message)):
            cli.parse_args(argv)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, command",
        [
            (["-h"], None),
            (["--help"], None),
            (["--he", "verify"], None),
            (["verify", "-h"], "verify"),
            (["integrate", "--help"], "integrate"),
            (["solve", "--hel"], "solve"),
            (["catalog", "-h"], "catalog"),
            (["verify", "--case", "gaussian", "--points", "3", "--out", "report.json", "--help"], "verify"),
            (["solve", "--grid", "16", "-h", "--grid", "nope"], "solve"),
        ],
    )
    def test_help_prints_the_table_and_runs_nothing(self, argv, command, tmp_path, capsys, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("work ran")

        for owner, name in [(cli, "_run_soliton_case"), (cli, "_run_universal_case"), (cli.quadrature, "volume"),
                            (cli.solver, "solve_radial"), (cli.catalog, "catalog_entries")]:
            monkeypatch.setattr(owner, name, forbidden)
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and list(tmp_path.iterdir()) == []
        assert captured.out.startswith(f"usage: ryslab {command} [-h]" if command else "usage: ryslab [-h] [--version]")
        about, _func, options = cli.COMMANDS[command] if command else ("", None, cli.TOP)
        assert about in captured.out
        for option in options:
            assert option.flag in captured.out and option.help in captured.out
        if command is None:
            assert all(name in captured.out for name in cli.COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [["--seed=7", "--points=3"], ["--seed", "7", "--poi", "3"], ["--points", "9", "--se", "7", "--points", "3"]],
    ids=["equals", "prefix", "repeat"],
)
def test_option_forms_write_the_same_report(argv, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert run(["verify", "--case", "gaussian", "--seed", "7", "--points", "3", "--out", out]) == 0
    expected = (tmp_path / "report.json").read_bytes()
    os.remove(out)
    assert run(["verify", "--case", "gaussian", *argv, "--out", out]) == 0
    assert (tmp_path / "report.json").read_bytes() == expected


def test_repeated_parses_in_one_process_keep_no_state(tmp_path, capsys, monkeypatch):
    """Commands parsed one after another in one process exit and write as
    each does in a fresh process."""
    solve = [
        "solve", "--background", "sphere", "--lambda", "0.5", "--r-max", "1.5",
        "--grid", "64", "--out", "profile.csv",
    ]
    sequence = [
        solve,
        ["solve", "--grid", "nope", "--out", "bad.csv"],
        ["verify", "--case", "gaussian", "--points", "1", "--out", "r.json"],
        solve,
    ]
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()

    def outcomes(directory, call):
        codes, profiles = [], []
        for argv in sequence:
            codes.append(call(argv))
            if argv is solve:
                profiles.append((directory / "profile.csv").read_bytes())
        return codes, profiles

    monkeypatch.chdir(shared)
    shared_codes, shared_profiles = outcomes(shared, run)
    assert shared_codes == [1, 2, 0, 1]
    assert shared_profiles[0] == shared_profiles[1]
    env = dict(os.environ, PYTHONPATH=SRC)

    def in_a_fresh_process(argv):
        return subprocess.run([sys.executable, "-m", "ryslab.cli", *argv], capture_output=True, cwd=fresh,
                              env=env, timeout=120).returncode

    assert outcomes(fresh, in_a_fresh_process) == (shared_codes, shared_profiles)
    assert (shared / "r.json").read_bytes() == (fresh / "r.json").read_bytes()


def test_couplings_at_their_ceiling_keep_every_record_finite(tmp_path, capsys):
    """gaussian with lambda and mu at MAX_PARAMETER is the largest g-norm of
    the defining residual that `verify` accepts; it stays finite."""
    out = tmp_path / "report.json"
    top = repr(cli.MAX_PARAMETER)
    code = run([
        "verify", "--case", "gaussian", "--points", "3",
        "--lambda", top, "--mu", top, "--out", str(out),
    ])
    assert code == 1
    records = json.loads(out.read_text())["records"]
    assert all(np.isfinite([r["lhs"], r["rhs"], r["gap"]]).all() for r in records)


@pytest.mark.parametrize(
    "argv, parameter",
    [
        (["verify", "--alpha", "0"], "alpha != 0"),
        (["verify", "--case", "concircular-flat", "--alpha", "3", "--beta", "2"], "n*beta = 2*alpha"),
    ],
    ids=["alpha-zero", "n-beta-twice-alpha"],
)
def test_undefined_concircular_conclusions_exit_2(argv, parameter, tmp_path, capsys, monkeypatch):
    """Parameters that leave the concircular rows undefined are a usage
    error: exit 2 before any case runs, one line naming the case and the
    parameter, no traceback and no report."""
    ran = []
    monkeypatch.setattr(cli, "_run_soliton_case", lambda name, *rest: ran.append(name))
    monkeypatch.setattr(cli, "_run_universal_case", lambda name, *rest: ran.append(name))
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert ran == []
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: case 'concircular-flat'")
    assert parameter in lines[0]


def test_beta_twice_alpha_on_concircular_flat_runs(tmp_path, capsys):
    """In dimension 3 the concircular prediction divides by 3 beta - 2 alpha,
    which beta = 2 alpha leaves nonzero: the case runs and passes."""
    out = tmp_path / "report.json"
    argv = ["verify", "--case", "concircular-flat", "--alpha", "1", "--beta", "2", "--points", "3", "--out", str(out)]
    assert run(argv) == 0
    records = {r["name"]: r for r in json.loads(out.read_text())["records"]}
    assert records["concircular-flat:scalar-prediction"]["rhs"] == 0.0


def test_case_points_never_exceed_the_count():
    """Below one point per chart the first charts take one each; from one
    per chart up, the draws are the per-chart samples they always were."""
    from ryslab.catalog import sphere_entry
    from ryslab.geometry import sample_points

    def coords(batch):
        return [list(column) for column in batch.columns]

    entry = sphere_entry(1.0)
    north, south = entry.charts
    assert coords(cli._case_points(entry, 1, 7)) == coords(sample_points(north, 1, 7))
    for count in (2, 3, 200):
        per = count // 2
        expected = [a + b for a, b in zip(coords(sample_points(north, per, 7)), coords(sample_points(south, count - per, 8)))]
        assert coords(cli._case_points(entry, count, 7)) == expected


def test_verify_builds_shared_quantities_once_per_batch(tmp_path, capsys, monkeypatch):
    """One case evaluates the defining residual and the lifted metric (from
    which R and its derivatives are read) once for its whole point batch,
    not once (or five times) per point."""
    from ryslab import ad, geometry, soliton

    calls = {"defining_residual": 0, "lifted_metric": 0}
    residual, matrix = soliton.defining_residual, geometry.MetricField.matrix

    def counting_residual(inst, p):
        calls["defining_residual"] += 1
        return residual(inst, p)

    def counting_matrix(self, coords):
        coords = list(coords)
        calls["lifted_metric"] += any(isinstance(c, ad.Taylor) for c in coords)
        return matrix(self, coords)

    monkeypatch.setattr(soliton, "defining_residual", counting_residual)
    monkeypatch.setattr(geometry.MetricField, "matrix", counting_matrix)
    out = tmp_path / "report.json"
    argv = ["verify", "--case", "einstein-s3", "--points", "12", "--out", str(out)]
    assert run(argv) == 0
    assert calls == {"defining_residual": 1, "lifted_metric": 1}


def test_default_verify_builds_one_point_per_record(tmp_path, monkeypatch):
    """Sampled points stay coordinate columns: a default `verify` builds a
    ChartPoint only for the point each record reports."""
    from ryslab.geometry import ChartPoint

    built, init = [], ChartPoint.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChartPoint, "__init__", counting_init)
    out = tmp_path / "report.json"
    assert run(["verify", "--out", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    assert len(records) == 47 and len(built) == len(records)


@pytest.mark.parametrize(
    "argv, evaluations",
    [
        ([], {"lifted": [4, 4, 4, 4, 4, 2, 3], "float": 7}),
        (["--case", "perturbed-flat", "--points", "16"], {"lifted": [3], "float": 1}),
    ],
    ids=["default", "universal"],
)
def test_one_lifted_metric_evaluation_per_batch(argv, evaluations, tmp_path, monkeypatch):
    """`verify` evaluates each batch's metric once on lifted coordinates (6
    soliton cases, and by default one group metric for the 5 perturbed-flat
    metrics, whose coefficients are per-point columns), lifted to the
    largest order its rows read: 4 where the Laplacian identity reads
    Delta R, 3 for the universal identities, 2 for concircular-flat's
    rows.  Every R, Ric and connection derivative is read off that one
    evaluation.  The float evaluations are the positive-definiteness
    checks, one per batch: each soliton batch, and each perturbed-flat
    group's metric on all of its members' points."""
    from ryslab import ad, geometry

    counts = {"lifted": [], "float": 0}
    matrix = geometry.MetricField.matrix

    def counting_matrix(self, coords):
        coords = list(coords)
        orders = {c.order for c in coords if isinstance(c, ad.Taylor)}
        if orders:
            counts["lifted"].extend(orders)
        else:
            counts["float"] += 1
        return matrix(self, coords)

    monkeypatch.setattr(geometry.MetricField, "matrix", counting_matrix)
    assert run(["verify", *argv, "--out", str(tmp_path / "report.json")]) == 0
    assert counts == evaluations


def test_declared_order_below_a_read_is_a_failed_computation(tmp_path, capsys, monkeypatch):
    """Negative control for the order declarations: with the Laplacian
    identity declared at order 3, einstein-s3 lifts its curved metric to 3
    and the Delta R read raises ``OrderTooHigh`` (exit 1, no traceback)
    instead of reading a truncated polynomial."""
    row = cli.CHECKS["laplacian-identity"]
    monkeypatch.setitem(cli.CHECKS, "laplacian-identity", row.replace(order=3))
    out = tmp_path / "report.json"
    assert run(["verify", "--case", "einstein-s3", "--points", "12", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: OrderTooHigh" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_perturbed_flat_member_not_spd_on_its_points(tmp_path, capsys, monkeypatch):
    """Negative control for the one positive-definiteness check per
    perturbed-flat metric: with the perturbation scaled to 10, a member is
    indefinite at one of its own points and `verify` exits 1 with NotSPD."""
    from ryslab import catalog

    group = catalog.perturbed_flat_group
    monkeypatch.setattr(catalog, "perturbed_flat_group", lambda epsilon, *args: group(10.0, *args))
    out = tmp_path / "report.json"
    assert run(["verify", "--case", "perturbed-flat", "--points", "16", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: NotSPD" in err
    assert "Traceback" not in err


def _universal_reference(points, seed, tols):
    """The perturbed-flat records as one batch per metric gives them: each
    metric's worst point, and across metrics the first strict maximum.
    The batches keep the library's default lift, ``ad.MAX_ORDER``, so the
    comparison also holds `verify`'s order-3 lift to order 4 bit for bit."""
    from ryslab import catalog, identities
    from ryslab.geometry import sample_points

    worst = {}
    for k in range(cli.PERTURBED_METRICS):
        entry = catalog.make_perturbed_flat(1e-2, seed + k)
        f = catalog.random_polynomial_field(entry.metric.domain, seed + 1000 + k)
        batch = sample_points(entry.metric.domain, points, seed + 2000 + k)
        for res in identities.universal_residuals(entry.metric, f, batch):
            res = res.worst()
            prev = worst.get(res.name)
            if prev is None or res.rel_gap > prev.rel_gap:
                worst[res.name] = res
    return [cli._record("perturbed-flat", name, tols, r.point, r.lhs, r.rhs, r.rel_gap) for name, r in worst.items()]


@pytest.mark.parametrize("points", [1, 16, 204, 205, 300, 1100])
def test_stacked_perturbed_flat_matches_one_batch_per_metric(points):
    """Stacking the perturbed-flat metrics keeps every record (point, lhs,
    rhs, gap, verdict) of one batch per metric: one group (1, 16, 204),
    the first split (205), uneven groups (300) and metrics above ad.CHUNK
    points, each alone and lifted in chunks (1100)."""
    from ryslab.report import CheckReport

    tols = cli._tols(None)
    report = CheckReport(command="verify", config={})
    cli._run_universal_case("perturbed-flat", points, 7, tols, report)
    assert report.records == _universal_reference(points, 7, tols)


def _scaled(value, factor=1.0 + 1e-2):
    """``value`` times ``factor``, entry by entry through nested lists."""
    return [_scaled(v, factor) for v in value] if isinstance(value, list) else value * factor


@pytest.mark.parametrize(
    "term, record",
    [("ricci_partials", "contracted-bianchi"), ("hessian_partials", "commutation"), ("quadratic_form", "bochner")],
)
def test_universal_record_fails_on_a_wrong_term(term, record, tmp_path, monkeypatch):
    """Negative controls: one input of an identity scaled by 1 + 1e-2 (the
    partials of Ric that div Ric reads, the partials of Hess f that
    Delta df reads, or the contraction Ric(grad f, grad f)) makes exactly
    that identity's perturbed-flat record fail, and `verify` exit 1."""
    from ryslab import identities
    from ryslab.curvature import CurvatureData

    if term == "ricci_partials":
        exact = CurvatureData.ricci_partials.fget
        monkeypatch.setattr(CurvatureData, term, property(lambda self: _scaled(exact(self))))
    elif term == "hessian_partials":
        exact = CurvatureData.hessian_partials
        monkeypatch.setattr(CurvatureData, term, lambda self, f: _scaled(exact(self, f)))
    else:
        exact = identities.quadratic_form
        monkeypatch.setattr(identities, term, lambda *args: _scaled(exact(*args)))
    out = tmp_path / "report.json"
    assert run(["verify", "--case", "perturbed-flat", "--points", "16", "--out", str(out)]) == 1
    records = json.loads(out.read_text())["records"]
    assert len(records) == 3
    assert [r["name"] for r in records if r["verdict"] == "fail"] == [f"perturbed-flat:{record}"]


def test_finished_soliton_case_frees_its_batch(monkeypatch):
    """A soliton case's batch is freed when the case returns, without the
    cyclic collector: its memo holds no key that refers back to it."""
    import gc
    import weakref

    from ryslab import catalog
    from ryslab.report import CheckReport
    from ryslab.soliton import SolitonParams

    batches, point_batch = [], cli.PointBatch

    def tracked(points):
        batch = point_batch(points)
        batches.append(weakref.ref(batch))
        return batch

    monkeypatch.setattr(cli, "PointBatch", tracked)
    spec = catalog.verify_cases()["einstein-s3"]
    inst = spec.build(spec.defaults)
    report = CheckReport(command="verify", config={})
    enabled = gc.isenabled()
    gc.disable()
    try:
        cli._run_soliton_case("einstein-s3", spec, inst, 12, 7, cli._tols(None), report)
        assert len(batches) == 1 and batches[0]() is None
    finally:
        if enabled:
            gc.enable()
    assert report.all_passed and len(report.records) == 7


# The verify check table's contract: record order per case, the rows a
# case may name, and the tolerance names and defaults `--tol` accepts.
GRADIENT_RECORDS = [
    "defining-residual",
    "defining-residual-gnorm",
    "trace-identity",
    "gradient-identity",
    "laplacian-identity",
    "splitting-identity",
]
CASE_RECORDS = {
    "gaussian": GRADIENT_RECORDS,
    "einstein-s3": GRADIENT_RECORDS + ["scalar-constancy"],
    "einstein-h3": GRADIENT_RECORDS,
    "s2xr": GRADIENT_RECORDS + ["product-affine-hessian", "product-grad-constancy"],
    "flat-product": GRADIENT_RECORDS
    + ["product-affine-hessian", "product-grad-constancy", "steady-ricci-flat", "steady-lambda"],
    "concircular-flat": [
        "defining-residual",
        "defining-residual-gnorm",
        "concircular-defect",
        "einstein-defect",
        "scalar-prediction",
        "ricci-eigenvalue",
        "class-consistency",
    ],
    "perturbed-flat": ["contracted-bianchi", "commutation", "bochner"],
}
DEFAULT_TOLERANCES = {
    "bochner": 1e-6,
    "class-consistency": 0.5,
    "commutation": 1e-6,
    "concircular-defect": 1e-10,
    "contracted-bianchi": 1e-6,
    "defining-residual": 1e-8,
    "defining-residual-gnorm": 1e-8,
    "divergence-theorem": 1e-5,
    "einstein-defect": 1e-10,
    "gradient-identity": 1e-6,
    "laplacian-identity": 1e-4,
    "product-affine-hessian": 1e-9,
    "product-grad-constancy": 1e-9,
    "ricci-eigenvalue": 1e-10,
    "scalar-constancy": 1e-9,
    "scalar-prediction": 1e-9,
    "scalar-sign-law": 0.5,
    "splitting-identity": 1e-5,
    "steady-lambda": 1e-12,
    "steady-ricci-flat": 1e-10,
    "trace-identity": 1e-8,
    "volume": 1e-5,
}


class TestCheckTable:
    def test_record_order_of_every_case_at_defaults(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "--points", "6", "--out", str(out)]) == 0
        records = {}
        for rec in json.loads(out.read_text())["records"]:
            case, check = rec["name"].split(":", 1)
            records.setdefault(case, []).append(check)
        assert records == CASE_RECORDS
        assert list(records) == list(CASE_RECORDS)

    def test_case_specific_checks_are_table_rows(self):
        from ryslab import catalog

        listed = [c for spec in catalog.verify_cases().values() for c in spec.checks]
        assert listed
        assert all(c in cli.CHECKS and cli.CHECKS[c].measure for c in listed)

    def test_tol_accepts_exactly_the_table_names(self, tmp_path, capsys):
        assert {name: c.tol for name, c in cli.CHECKS.items()} == DEFAULT_TOLERANCES
        for name in DEFAULT_TOLERANCES:
            assert cli._tolerance(f"{name}=0.25") == (name, 0.25)
        out = tmp_path / "report.json"
        for bogus in ("defining_residual", "divergence-theorem[0]", "Volume"):
            assert run(["verify", "--tol", f"{bogus}=1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_tolerance_echo_keeps_every_name(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["verify", "--case", "gaussian", "--points", "3", "--tol", "volume=0.5"]
        assert run(argv + ["--out", str(out)]) == 0
        echo = json.loads(out.read_text())["config"]["tolerances"]
        assert list(echo) == sorted(DEFAULT_TOLERANCES)
        assert echo == {**DEFAULT_TOLERANCES, "volume": 0.5}


def test_config_echo_keys_and_null_couplings(tmp_path, capsys):
    """The config echo of each report, as the README report schema states:
    verify echoes its couplings (null where a case default applies), and
    integrate adds its grid options, with null couplings and no points."""
    out = tmp_path / "report.json"
    shared = {"cases", "alpha", "beta", "lambda", "mu", "points", "seed", "tolerances", "out"}
    assert run(["verify", "--case", "gaussian", "--mu", "0.5", "--points", "3", "--out", str(out)]) in (0, 1)
    echo = json.loads(out.read_text())["config"]
    assert set(echo) == shared
    assert echo["cases"] == ["gaussian"] and echo["points"] == 3 and echo["out"] == str(out)
    assert (echo["alpha"], echo["beta"], echo["lambda"], echo["mu"]) == (None, None, None, 0.5)
    argv = ["integrate", "--case", "unit-s3", "--resolution", "12", "--divergence", "1"]
    assert run(argv + ["--out", str(out)]) == 0
    echo = json.loads(out.read_text())["config"]
    assert set(echo) == shared | {"resolution", "divergence_checks"}
    assert [echo[k] for k in ("alpha", "beta", "lambda", "mu", "points")] == [None, None, None, None, 0]
    assert (echo["cases"], echo["resolution"], echo["divergence_checks"]) == (["unit-s3"], 12, 1)


def test_solve_hyperbolic_far_from_the_origin(tmp_path, capsys):
    """coth(r) stays finite past r = 710, where cosh and sinh overflow."""
    out = tmp_path / "profile.csv"
    argv = ["solve", "--background", "hyperbolic", "--lambda", "2", "--r-max", "1000", "--grid", "16"]
    assert run(argv + ["--out", str(out)]) == 0
    assert "converged" in capsys.readouterr().out
    residuals = [float(row.split(",")[2]) for row in out.read_text().splitlines()[1:]]
    assert len(residuals) == 17 and max(residuals) <= 1e-8


def _unwritable_out(kind, tmp_path):
    """An existing directory, or a path under a regular file."""
    if kind == "directory":
        return tmp_path
    blocker = tmp_path / "file"
    blocker.write_text("")
    return blocker / "x.json"


@pytest.mark.parametrize("kind", ["directory", "under-a-file"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--case", "gaussian", "--points", "1"],
        ["integrate", "--case", "unit-s3", "--resolution", "12"],
        ["solve", "--grid", "16"],
    ],
    ids=["verify", "integrate", "solve"],
)
def test_unwritable_out_is_a_usage_error(argv, kind, tmp_path, capsys):
    """An --out that cannot be written exits 2 with one error line, no
    traceback, and no temp file left behind."""
    out = _unwritable_out(kind, tmp_path)
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {out}: ")
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("kind", ["directory", "under-a-file", "below-a-file"])
def test_unwritable_out_is_rejected_before_any_check(kind, tmp_path, capsys, monkeypatch):
    """A directory target, or a path under a regular file, is refused as
    soon as the arguments are parsed: no check runs."""
    def forbidden(*_args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "_run_soliton_case", forbidden)
    monkeypatch.setattr(cli.solver, "solve_radial", forbidden)
    out = _unwritable_out("under-a-file" if kind == "below-a-file" else kind, tmp_path)
    if kind == "below-a-file":
        out = out / "deeper.json"
    for argv in (["verify", "--case", "gaussian", "--points", "1"], ["solve", "--grid", "16"]):
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--case", "gaussian", "--points", "1"],
        ["integrate", "--case", "unit-s3", "--resolution", "12"],
        ["solve", "--grid", "16"],
    ],
    ids=["verify", "integrate", "solve"],
)
def test_empty_out_is_rejected_before_any_work(argv, tmp_path, capsys, monkeypatch):
    """An empty --out names no file: it exits 2 with one plain error line
    before any check runs, and no temp file is written anywhere."""
    def forbidden(*_args):
        raise AssertionError("work ran")

    monkeypatch.setattr(cli, "_run_soliton_case", forbidden)
    monkeypatch.setattr(cli.quadrature, "volume", forbidden)
    monkeypatch.setattr(cli.solver, "solve_radial", forbidden)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run(argv + ["--out", ""]) == 2
    assert capsys.readouterr().err == "error: cannot write '': the path is empty\n"
    assert list(tmp_path.rglob("*")) == [work]


def test_outputs_follow_the_umask(tmp_path, capsys):
    """Reports and profiles get 0o666 less the umask, as a plain open gives."""
    old = os.umask(0o022)
    try:
        report = tmp_path / "report.json"
        profile = tmp_path / "profile.csv"
        assert run(["verify", "--case", "gaussian", "--points", "1", "--out", str(report)]) == 0
        assert run(["solve", "--grid", "16", "--out", str(profile)]) == 0
    finally:
        os.umask(old)
    assert oct(report.stat().st_mode & 0o777) == oct(0o644)
    assert oct(profile.stat().st_mode & 0o777) == oct(0o644)


def test_flat_solve_at_the_largest_grid_converges(tmp_path, capsys):
    out = tmp_path / "p.csv"
    argv = ["solve", "--background", "flat", "--lambda", "2", "--grid", "2048", "--out", str(out)]
    assert run(argv) == 0
    assert "converged" in capsys.readouterr().out
    residuals = [float(row.split(",")[2]) for row in out.read_text().splitlines()[1:]]
    assert len(residuals) == 2049 and max(residuals) <= 1e-8


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_commands_load_neither_numpy_random_nor_numpy_polynomial(tmp_path):
    """In a fresh interpreter: the set-up (import the CLI, build the
    catalog), a verify with seeded draws, an integrate on Gauss-Legendre
    grids and a solve load neither ``numpy.random`` nor ``numpy.polynomial``."""
    probe = "\n".join([
        "import sys",
        "import ryslab.cli as cli",
        "from ryslab import catalog",
        "catalog.catalog_entries()",
        "runs = [",
        "    ['verify', '--case', 'gaussian', '--case', 'perturbed-flat', '--points', '4'],",
        "    ['integrate', '--case', 'unit-s3', '--resolution', '12', '--divergence', '2'],",
        "    ['solve', '--grid', '16'],",
        "]",
        "codes = [cli.main(argv + ['--out', 'out']) for argv in runs]",
        "loaded = sorted(m for m in sys.modules if m.split('.')[:2] in (['numpy', 'random'], ['numpy', 'polynomial']))",
        "print(codes, loaded, file=sys.stderr)",
    ])
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[0, 0, 0] []"


def test_commands_load_neither_argparse_nor_locale(tmp_path):
    """In a fresh interpreter: the set-up, then a verify, an integrate, a
    solve and a verify --help load none of argparse, gettext and locale."""
    probe = "\n".join([
        "import contextlib, io, sys",
        "import ryslab.cli as cli",
        "from ryslab import catalog",
        "catalog.catalog_entries()",
        "runs = [",
        "    ['verify', '--case', 'gaussian', '--points', '4', '--out', 'out'],",
        "    ['integrate', '--case', 'unit-s3', '--resolution', '12', '--divergence', '2', '--out', 'out'],",
        "    ['solve', '--grid', '16', '--out', 'out'],",
        "    ['verify', '--help'],",
        "]",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [cli.main(argv) for argv in runs]",
        "print(codes, sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules), file=sys.stderr)",
    ])
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 0] []"


def _run_into_closed_pipe(argv, cwd, unbuffered):
    """Run the CLI in a child whose stdout is a pipe with its read end
    already closed, so every write to stdout meets a broken pipe."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ryslab.cli"] + argv,
            stdout=write_end, stderr=subprocess.PIPE, cwd=cwd, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["print-raises", "exit-flush-raises"])
@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--case", "unit-s3", "--resolution", "12", "--divergence", "20", "--out", "out"],
        ["verify", "--case", "gaussian", "--points", "2", "--out", "out"],
        ["solve", "--grid", "16", "--out", "out"],
        ["catalog"],
    ],
    ids=["integrate", "verify", "solve", "catalog"],
)
def test_closed_stdout_keeps_the_outputs(argv, unbuffered, tmp_path, monkeypatch, capsys):
    """A reader that closes stdout early loses only the console lines: the
    exit code is the verdict's, stderr has no traceback, and the report or
    CSV is byte-identical to a normal run's."""
    direct, piped = tmp_path / "direct", tmp_path / "piped"
    direct.mkdir()
    piped.mkdir()
    monkeypatch.chdir(direct)
    assert run(argv) == 0
    code, err = _run_into_closed_pipe(argv, piped, unbuffered)
    assert code == 0, err
    for marker in ("Traceback", "BrokenPipeError", "Exception ignored"):
        assert marker not in err
    assert sorted(os.listdir(piped)) == sorted(os.listdir(direct))
    for name in os.listdir(direct):
        assert (piped / name).read_bytes() == (direct / name).read_bytes()
