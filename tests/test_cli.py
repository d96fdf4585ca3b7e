"""CLI behavior: exit codes, report determinism, CSV output."""

import json
import os
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
    args = cli.build_parser().parse_args(
        ["solve", "--background", "sphere", "--radius", "2", "--r-max", "6"]
    )
    assert cli._solve_problem(args) is None


def test_size_ceilings_parse():
    parser = cli.build_parser()
    args = parser.parse_args(["solve", "--grid", str(cli.MAX_INTERVALS)])
    assert args.grid == cli.MAX_INTERVALS
    args = parser.parse_args(
        ["integrate", "--case", "unit-s3", "--resolution", str(cli.MAX_RESOLUTION)]
    )
    assert args.resolution == cli.MAX_RESOLUTION
    args = parser.parse_args(
        ["integrate", "--case", "unit-s3", "--divergence", str(cli.MAX_DIVERGENCE)]
    )
    assert args.divergence == cli.MAX_DIVERGENCE


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
        (["verify", "--case", "concircular-flat", "--alpha", "1", "--beta", "2"], "beta = 2*alpha"),
    ],
    ids=["alpha-zero", "beta-twice-alpha"],
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


def test_case_points_never_exceed_the_count():
    """Below one point per chart the first charts take one each; from one
    per chart up, the draws are the per-chart samples they always were."""
    from ryslab.catalog import sphere_entry
    from ryslab.geometry import sample_points

    entry = sphere_entry(1.0)
    north, south = entry.charts
    assert cli._case_points(entry, 1, 7) == sample_points(north, 1, 7)
    for count in (2, 3, 200):
        per = count // 2
        expected = sample_points(north, per, 7) + sample_points(south, count - per, 8)
        assert cli._case_points(entry, count, 7) == expected


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
