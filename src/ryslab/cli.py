"""Command-line driver: verify / integrate / solve / catalog.

Exit codes: 0 all checks pass, 1 at least one check failed (or a
computation could not finish), 2 configuration/usage error.  Reports are
written atomically and are byte-identical for identical
(config, seed, version) triples.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import catalog, identities, quadrature, solver
from .curvature import ricci, ricci_operator, scalar_curvature
from .errors import NoConvergence, NotCompact, RysLabError
from .geometry import PointBatch, sample_points
from .report import VERSION, CheckRecord, CheckReport, RunConfig, write_report
from .soliton import (
    SolitonKind,
    SolitonParams,
    classify,
    concircular_conclusions,
    concircular_defect,
    residual_report,
)

ANCHORS = {
    "defining-residual": "defining soliton equation",
    "defining-residual-gnorm": "defining soliton equation",
    "trace-identity": "trace of the defining equation",
    "gradient-identity": "soliton gradient identity",
    "laplacian-identity": "soliton Laplacian identity",
    "splitting-identity": "Bochner splitting identity",
    "scalar-constancy": "compact scalar-curvature constancy",
    "scalar-sign-law": "scalar-curvature sign law",
    "product-affine-hessian": "affine potential on a product geometry",
    "product-grad-constancy": "constant gradient norm on a product geometry",
    "steady-ricci-flat": "steady split instances are Ricci-flat",
    "steady-lambda": "steady classification",
    "concircular-defect": "concircular vector field defect",
    "einstein-defect": "Einstein reduction under a concircular field",
    "scalar-prediction": "scalar curvature prediction",
    "ricci-eigenvalue": "Ricci operator eigenvalue",
    "class-consistency": "classification threshold consistency",
    "contracted-bianchi": "contracted second Bianchi identity",
    "commutation": "covariant derivative commutation rule",
    "bochner": "Bochner formula",
    "volume": "Riemannian volume form",
    "divergence-theorem": "divergence theorem",
}

DEFAULT_TOLS = {
    "defining-residual": 1e-8,
    "defining-residual-gnorm": 1e-8,
    "trace-identity": 1e-8,
    "gradient-identity": 1e-6,
    "laplacian-identity": 1e-4,
    "splitting-identity": 1e-5,
    "scalar-constancy": 1e-9,
    "scalar-sign-law": 0.5,
    "product-affine-hessian": 1e-9,
    "product-grad-constancy": 1e-9,
    "steady-ricci-flat": 1e-10,
    "steady-lambda": 1e-12,
    "concircular-defect": 1e-10,
    "einstein-defect": 1e-10,
    "scalar-prediction": 1e-9,
    "ricci-eigenvalue": 1e-10,
    "class-consistency": 0.5,
    "contracted-bianchi": 1e-6,
    "commutation": 1e-6,
    "bochner": 1e-6,
    "volume": 1e-5,
    "divergence-theorem": 1e-5,
}

PERTURBED_METRICS = 5
# Every check holds all of a case's points in memory at once (the
# fourth-order jet of R is the largest), so --points has a ceiling: at
# 10,000 points a full `verify` peaks near 280 MB.
MAX_POINTS = 10000
# `solve` holds dense (2m+1) x m matrices (m = --grid): 2048 intervals peak
# near 170 MB.  `integrate` evaluates every quadrature node at once, about
# 2 * resolution^3 of them per chart: resolution 40 peaks near 200 MB with
# 2 divergence checks and 232 MB from 32 on (quadrature.FIELDS_PER_PASS).
MAX_INTERVALS = 2048
MAX_RESOLUTION = 40


# -- verify -----------------------------------------------------------------

def _case_points(entry, count: int, seed: int):
    """Samples spread across all charts of an entry, deterministically."""
    charts = entry.charts
    per = max(1, count // len(charts))
    pts = []
    for i, chart in enumerate(charts):
        take = per if i < len(charts) - 1 else count - per * (len(charts) - 1)
        pts.extend(sample_points(chart, max(1, take), seed + i))
    return pts


def _record_worst(report, case, check, residual, tols):
    """Report an identity checked over a batch by its worst point."""
    worst = residual.worst()
    report.add(
        CheckRecord.build(
            name=f"{case}:{check}",
            anchor=ANCHORS[check],
            point=list(worst.point.coords),
            lhs=worst.lhs,
            rhs=worst.rhs,
            gap=worst.rel_gap,
            tol=tols[check],
        )
    )


def _last_argmax(values) -> int:
    """Index of the last maximum, the point a running ``>=`` scan keeps."""
    values = np.asarray(values)
    return len(values) - 1 - int(np.argmax(values[::-1]))


def _run_soliton_case(name, spec, params, points, seed, tols, report) -> None:
    entry = spec.entry()
    inst = spec.build(params)
    batch = PointBatch(_case_points(entry, points, seed))
    pts = batch.points
    inst.metric.require_spd(batch)

    # Both norms of the defining residual are reported; tolerances match.
    norms = residual_report(inst, batch)
    residuals = norms["max_abs"]
    worst_idx = int(np.argmax(residuals))
    gnorm_idx = int(np.argmax(norms["g_norm"]))
    defining_tol = tols["defining-residual"]
    report.add(
        CheckRecord.build(
            name=f"{name}:defining-residual",
            anchor=ANCHORS["defining-residual"],
            point=list(pts[worst_idx].coords),
            lhs=residuals[worst_idx],
            rhs=0.0,
            gap=residuals[worst_idx],
            tol=defining_tol,
        )
    )
    report.add(
        CheckRecord.build(
            name=f"{name}:defining-residual-gnorm",
            anchor=ANCHORS["defining-residual"],
            point=list(pts[gnorm_idx].coords),
            lhs=norms["g_norm"][gnorm_idx],
            rhs=0.0,
            gap=norms["g_norm"][gnorm_idx],
            tol=tols["defining-residual-gnorm"],
        )
    )
    if residuals[worst_idx] > defining_tol:
        return  # derived identities are meaningless off the soliton

    if inst.kind in (SolitonKind.GRYS, SolitonKind.GEN_GRYS):
        for check, fn in (
            ("trace-identity", identities.check_trace_identity),
            ("gradient-identity", identities.check_gradient_identity),
            ("laplacian-identity", identities.check_laplacian_identity),
        ):
            _record_worst(report, name, check, fn(inst, batch, defining_tol), tols)
        n = inst.n
        if params.mu == 0.0 and abs(params.alpha - params.beta * (n - 1)) > 1e-12:
            _record_worst(
                report, name, "splitting-identity",
                identities.check_splitting_identity(inst, batch, defining_tol),
                tols,
            )
        if inst.compact and abs(n * params.beta - 2.0 * params.alpha) > 1e-12:
            out = identities.check_scalar_constancy(inst, batch, tols["scalar-constancy"])
            report.add(
                CheckRecord.build(
                    name=f"{name}:scalar-constancy",
                    anchor=ANCHORS["scalar-constancy"],
                    point=list(pts[0].coords),
                    lhs=out["r_value"],
                    rhs=out["predicted"],
                    gap=out["gap"] / (1.0 + abs(out["predicted"])),
                    tol=tols["scalar-constancy"],
                )
            )
            if out["sign_law_applies"]:
                report.add(
                    CheckRecord.build(
                        name=f"{name}:scalar-sign-law",
                        anchor=ANCHORS["scalar-sign-law"],
                        point=list(pts[0].coords),
                        lhs=out["r_value"],
                        rhs=out["predicted"],
                        gap=0.0 if out["sign_consistent"] else 1.0,
                        tol=tols["scalar-sign-law"],
                    )
                )
        if name in ("s2xr", "flat-product"):
            flags = identities.check_affine_splitting_flags(inst, batch)
            report.add(
                CheckRecord.build(
                    name=f"{name}:product-affine-hessian",
                    anchor=ANCHORS["product-affine-hessian"],
                    point=list(pts[0].coords),
                    lhs=flags["hessian_norm"],
                    rhs=0.0,
                    gap=flags["hessian_norm"],
                    tol=tols["product-affine-hessian"],
                )
            )
            report.add(
                CheckRecord.build(
                    name=f"{name}:product-grad-constancy",
                    anchor=ANCHORS["product-grad-constancy"],
                    point=list(pts[0].coords),
                    lhs=flags["grad_norm_variation"],
                    rhs=0.0,
                    gap=flags["grad_norm_variation"],
                    tol=tols["product-grad-constancy"],
                )
            )
        if name == "flat-product":
            ric_max = ricci(inst.metric, batch).max_abs()
            report.add(
                CheckRecord.build(
                    name=f"{name}:steady-ricci-flat",
                    anchor=ANCHORS["steady-ricci-flat"],
                    point=list(pts[0].coords),
                    lhs=ric_max,
                    rhs=0.0,
                    gap=ric_max,
                    tol=tols["steady-ricci-flat"],
                )
            )
            report.add(
                CheckRecord.build(
                    name=f"{name}:steady-lambda",
                    anchor=ANCHORS["steady-lambda"],
                    point=list(pts[0].coords),
                    lhs=params.lam,
                    rhs=0.0,
                    gap=abs(params.lam),
                    tol=tols["steady-lambda"],
                )
            )

    if inst.kind is SolitonKind.RYS and inst.phi is not None:
        _concircular_records(name, inst, batch, tols, report)


def _concircular_records(name, inst, batch, tols, report) -> None:
    phi = inst.phi
    pts = batch.points
    defects = np.max(
        np.abs(concircular_defect(inst.metric, inst.vector_field, phi, batch)), axis=(0, 1)
    )
    k = int(np.argmax(defects))
    report.add(
        CheckRecord.build(
            name=f"{name}:concircular-defect",
            anchor=ANCHORS["concircular-defect"],
            point=list(pts[k].coords),
            lhs=defects[k],
            rhs=0.0,
            gap=defects[k],
            tol=tols["concircular-defect"],
        )
    )
    out = concircular_conclusions(inst.metric, inst.params, phi, batch)
    measured = scalar_curvature(inst.metric, batch)
    predicted = out["scalar_pred"]
    scalar_gaps = np.abs(measured - predicted) / (1.0 + abs(predicted))
    eye = np.eye(inst.n)[:, :, None]
    eigen_gaps = np.max(
        np.abs(ricci_operator(inst.metric, batch) - out["eigenvalue_pred"] * eye),
        axis=(0, 1),
    )
    lam_class = classify(inst.params)
    class_ok = all(c is lam_class for c in out["class"])
    # Worst points are the last maxima, as a running >= scan keeps them.
    e = _last_argmax(out["einstein_defect"])
    s = _last_argmax(scalar_gaps)
    q = _last_argmax(eigen_gaps)
    report.add(
        CheckRecord.build(
            name=f"{name}:einstein-defect",
            anchor=ANCHORS["einstein-defect"],
            point=list(pts[e].coords),
            lhs=out["einstein_defect"][e],
            rhs=0.0,
            gap=out["einstein_defect"][e],
            tol=tols["einstein-defect"],
        )
    )
    report.add(
        CheckRecord.build(
            name=f"{name}:scalar-prediction",
            anchor=ANCHORS["scalar-prediction"],
            point=list(pts[s].coords),
            lhs=measured[s],
            rhs=predicted,
            gap=scalar_gaps[s],
            tol=tols["scalar-prediction"],
        )
    )
    report.add(
        CheckRecord.build(
            name=f"{name}:ricci-eigenvalue",
            anchor=ANCHORS["ricci-eigenvalue"],
            point=list(pts[q].coords),
            lhs=eigen_gaps[q],
            rhs=0.0,
            gap=eigen_gaps[q],
            tol=tols["ricci-eigenvalue"],
        )
    )
    report.add(
        CheckRecord.build(
            name=f"{name}:class-consistency",
            anchor=ANCHORS["class-consistency"],
            point=list(pts[0].coords),
            lhs=0.0,
            rhs=0.0,
            gap=0.0 if class_ok else 1.0,
            tol=tols["class-consistency"],
        )
    )


def _run_universal_case(name, points, seed, tols, report) -> None:
    worst = {}
    for k in range(PERTURBED_METRICS):
        entry = catalog.make_perturbed_flat(1e-2, seed + k)
        f = catalog.random_polynomial_field(entry.metric.domain, seed + 1000 + k)
        batch = PointBatch(sample_points(entry.metric.domain, points, seed + 2000 + k))
        entry.metric.require_spd(batch)
        for res in identities.universal_residuals(entry.metric, f, batch):
            res = res.worst()
            prev = worst.get(res.name)
            if prev is None or res.rel_gap > prev.rel_gap:
                worst[res.name] = res
    for check in ("contracted-bianchi", "commutation", "bochner"):
        res = worst[check]
        report.add(
            CheckRecord.build(
                name=f"{name}:{check}",
                anchor=ANCHORS[check],
                point=list(res.point.coords),
                lhs=res.lhs,
                rhs=res.rhs,
                gap=res.rel_gap,
                tol=tols[check],
            )
        )


# -- argument types: bad input is a usage error (exit 2) at parse time --------

def _bounded(low: int, high: int):
    """An integer type accepting low..high."""

    def parse(raw: str) -> int:
        value = _integer(raw)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be between {low} and {high}, got {value}")
        return value

    return parse


def _non_negative(raw: str) -> int:
    value = _integer(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{raw}'") from None


def _finite(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got '{raw}'") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got '{raw}'")
    return value


def _radius(raw: str) -> float:
    """A sphere radius small enough to underflow would make the background's
    scalar curvature n (n - 1) / radius^2 = 6 / radius^2 infinite."""
    value = _finite(raw)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value!r}")
    squared = value * value
    if squared == 0.0 or not math.isfinite(6.0 / squared):
        raise argparse.ArgumentTypeError(f"6 / radius^2 is not finite, got {value!r}")
    return value


def _r_max(raw: str) -> float:
    """The grid runs from solver.ORIGIN_MARGIN to r-max."""
    value = _finite(raw)
    if value <= solver.ORIGIN_MARGIN:
        raise argparse.ArgumentTypeError(
            f"must be > {solver.ORIGIN_MARGIN!r} (the grid's inner end), got {value!r}"
        )
    return value


def _tolerance(raw: str) -> tuple:
    """NAME=VALUE with a known check name and a finite VALUE >= 0."""
    if "=" not in raw:
        raise argparse.ArgumentTypeError(f"expects NAME=VALUE, got '{raw}'")
    key, val = raw.split("=", 1)
    if key not in DEFAULT_TOLS:
        raise argparse.ArgumentTypeError(f"unknown tolerance name '{key}'")
    value = _finite(val)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"tolerance {key} must be >= 0, got {value!r}")
    return key, value


def _tols(pairs) -> dict:
    tols = dict(DEFAULT_TOLS)
    tols.update(pairs or [])
    return tols


def cmd_verify(args) -> int:
    cases = catalog.verify_cases()
    requested = list(dict.fromkeys(args.case)) if args.case else list(cases)
    unknown = [c for c in requested if c not in cases]
    if unknown:
        print(f"error: unknown case name(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    tols = _tols(args.tol)

    config = RunConfig(
        command="verify",
        cases=tuple(requested),
        alpha=args.alpha,
        beta=args.beta,
        lam=args.lam,
        mu=args.mu,
        points=args.points,
        seed=args.seed,
        tolerances=tols,
        out=args.out,
    )
    report = CheckReport(command="verify", config=config.to_echo())
    start = time.perf_counter()
    try:
        for name in requested:
            spec = cases[name]
            params = SolitonParams(
                alpha=spec.defaults.alpha if args.alpha is None else args.alpha,
                beta=spec.defaults.beta if args.beta is None else args.beta,
                lam=spec.defaults.lam if args.lam is None else args.lam,
                mu=spec.defaults.mu if args.mu is None else args.mu,
            )
            if abs(params.mu * params.alpha + 1.0) <= 1e-12:
                # The gradient/Laplacian identities carry a (mu*alpha + 1)
                # factor; at mu*alpha = -1 several terms drop out and the
                # checks lose discriminating power.
                report.warn(
                    f"case '{name}': mu*alpha = -1 is degenerate for the "
                    "gradient and Laplacian identities"
                )
            if spec.universal_only:
                _run_universal_case(name, args.points, args.seed, tols, report)
            else:
                _run_soliton_case(name, spec, params, args.points, args.seed, tols, report)
    except RysLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    report.wall_time_s = time.perf_counter() - start

    for rec in report.records:
        print(f"[{rec.verdict.upper():4s}] {rec.name}  gap={rec.gap:.3e}  tol={rec.tol:.1e}")
    s = report.summary
    print(f"{s['pass']}/{s['total']} checks passed")
    print(f"wall time: {report.wall_time_s:.2f} s", file=sys.stderr)
    write_report(report, args.out)
    return 0 if report.all_passed else 1


# -- integrate ----------------------------------------------------------------

def _ambient_quadratic(seed: int):
    """The random test field sum_ij c_ij a_i a_j + sum_i lin_i a_i on the
    ambient coordinates a, factored as sum_i a_i (lin_i + sum_j c_ij a_j):
    4 products of two jets instead of 16."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=(4, 4))
    lin = rng.uniform(-1.0, 1.0, size=4)

    def fn(ambient):
        total = 0.0
        for i in range(4):
            row = c[i][0] * ambient[0]
            for j in range(1, 4):
                row = row + c[i][j] * ambient[j]
            total = total + ambient[i] * (row + lin[i])
        return total

    return fn


def cmd_integrate(args) -> int:
    try:
        entry = catalog.get_entry(args.case)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tols = _tols(args.tol)
    config = RunConfig(
        command="integrate",
        cases=(args.case,),
        points=0,
        seed=args.seed,
        tolerances=tols,
        resolution=args.resolution,
        divergence_checks=args.divergence,
        out=args.out,
    )
    report = CheckReport(command="integrate", config=config.to_echo())
    start = time.perf_counter()
    try:
        measured = quadrature.volume(entry, args.resolution)
        expected = entry.closed_forms.volume if entry.closed_forms else None
        if expected is None:
            print(f"error: entry '{args.case}' has no reference volume", file=sys.stderr)
            return 2
        rel = abs(measured - expected) / abs(expected)
        report.add(
            CheckRecord.build(
                name=f"{args.case}:volume",
                anchor=ANCHORS["volume"],
                point=None,
                lhs=measured,
                rhs=expected,
                gap=rel,
                tol=tols["volume"],
            )
        )
        fields = [
            quadrature.ManifoldScalarField.from_ambient(
                entry, _ambient_quadratic(args.seed + k), name=f"u{k}"
            )
            for k in range(args.divergence)
        ]
        outs = quadrature.integrate_laplacians(entry, fields, args.resolution)
        for k, out in enumerate(outs):
            ratio = abs(out["integral"]) / out["scale"] if out["scale"] > 0 else 0.0
            report.add(
                CheckRecord.build(
                    name=f"{args.case}:divergence-theorem[{k}]",
                    anchor=ANCHORS["divergence-theorem"],
                    point=None,
                    lhs=out["integral"],
                    rhs=0.0,
                    gap=ratio,
                    tol=tols["divergence-theorem"],
                )
            )
    except (NotCompact, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RysLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    report.wall_time_s = time.perf_counter() - start
    for rec in report.records:
        print(f"[{rec.verdict.upper():4s}] {rec.name}  gap={rec.gap:.3e}  tol={rec.tol:.1e}")
    print(f"volume = {measured!r} (reference {expected!r})")
    print(f"wall time: {report.wall_time_s:.2f} s", file=sys.stderr)
    write_report(report, args.out)
    return 0 if report.all_passed else 1


# -- solve ---------------------------------------------------------------------

def cmd_solve(args) -> int:
    try:
        background = solver.named_background(args.background, args.radius)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    params = SolitonParams(args.alpha, args.beta, args.lam, 0.0)
    grid = solver.make_grid(args.grid, r_max=args.r_max)
    code = 0
    try:
        profile = solver.solve_radial(params, background, grid)
        message = "converged"
    except NoConvergence as exc:
        profile = exc.profile
        message = f"no convergence: residual {exc.residual_inf:.3e}"
        code = 1
    residual = solver.radial_residual(profile)
    m = len(grid)
    per_node = np.maximum(np.abs(residual[:m]), np.abs(residual[m:]))
    _write_csv(args.out, profile, per_node)
    print(f"{message}; profile written to {args.out}")
    return code


def _write_csv(path: str, profile, residual) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write("r,f,residual\n")
        for r, f, res in zip(profile.grid, profile.values, residual):
            handle.write(f"{float(r)!r},{float(f)!r},{float(res)!r}\n")
    os.replace(tmp, path)


# -- catalog ---------------------------------------------------------------------

def cmd_catalog(_args) -> int:
    for entry in catalog.catalog_entries():
        compact = "compact" if entry.compact else "open"
        print(
            f"{entry.name:16s} dim={entry.dim}  {compact:7s} "
            f"charts={len(entry.charts)}  {entry.notes}"
        )
    return 0


# -- argument parsing --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ryslab",
        description="Numerical checks for Ricci-Yamabe soliton geometry",
    )
    parser.add_argument("--version", action="version", version=f"ryslab {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity suite over catalog instances")
    v.add_argument("--case", action="append", help="case name (repeatable); default: all")
    v.add_argument("--alpha", type=_finite, default=None)
    v.add_argument("--beta", type=_finite, default=None)
    v.add_argument("--lambda", dest="lam", type=_finite, default=None)
    v.add_argument("--mu", type=_finite, default=None)
    v.add_argument(
        "--points", type=_bounded(1, MAX_POINTS), default=200, help=f"sample points per case, 1..{MAX_POINTS}"
    )
    v.add_argument("--seed", type=_non_negative, default=7)
    v.add_argument("--tol", action="append", type=_tolerance, metavar="NAME=VALUE")
    v.add_argument("--out", default="rys-verify.json")
    v.set_defaults(func=cmd_verify)

    q = sub.add_parser("integrate", help="volume and divergence checks on compact entries")
    q.add_argument("--case", required=True)
    q.add_argument(
        "--resolution",
        type=_bounded(quadrature.MIN_RESOLUTION, MAX_RESOLUTION),
        default=24,
        help=f"Gauss-Legendre nodes per axis, {quadrature.MIN_RESOLUTION}..{MAX_RESOLUTION}",
    )
    q.add_argument(
        "--divergence", type=_non_negative, default=0, help="number of random divergence checks"
    )
    q.add_argument("--seed", type=_non_negative, default=7)
    q.add_argument("--tol", action="append", type=_tolerance, metavar="NAME=VALUE")
    q.add_argument("--out", default="rys-integrate.json")
    q.set_defaults(func=cmd_integrate)

    s = sub.add_parser("solve", help="recover a radial gradient potential")
    s.add_argument("--background", default="flat", choices=["flat", "sphere", "hyperbolic"])
    s.add_argument("--radius", type=_radius, default=1.0, help="sphere background radius")
    s.add_argument("--alpha", type=_finite, default=1.0)
    s.add_argument("--beta", type=_finite, default=0.0)
    s.add_argument("--lambda", dest="lam", type=_finite, default=0.0)
    s.add_argument(
        "--grid",
        type=_bounded(solver.MIN_INTERVALS, MAX_INTERVALS),
        default=128,
        help=f"number of grid intervals, {solver.MIN_INTERVALS}..{MAX_INTERVALS}",
    )
    s.add_argument("--r-max", type=_r_max, default=1.0)
    s.add_argument("--out", default="rys-profile.csv")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("catalog", help="list catalog entries")
    c.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
