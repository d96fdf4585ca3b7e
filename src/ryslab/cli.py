"""Command-line driver: verify / integrate / solve / catalog.

Exit codes: 0 all checks pass, 1 at least one check failed (or a
computation could not finish), 2 configuration/usage error or an ``--out``
that cannot be written.  Reports are written atomically and are
byte-identical for identical (config, seed, version) triples.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import catalog, identities, quadrature, solver
from .curvature import ricci, ricci_operator, scalar_curvature
from .errors import AlphaZero, DegenerateBeta, NoConvergence, NotCompact, RysLabError
from .geometry import PointBatch, sample_points
from .report import VERSION, CheckRecord, CheckReport, RunConfig, write_atomic, write_report
from .soliton import (
    SolitonKind,
    SolitonParams,
    classify,
    concircular_conclusions,
    concircular_defect,
    require_concircular_params,
    residual_report,
)


PERTURBED_METRICS = 5
# Every check holds all of a case's points in memory at once (the
# fourth-order jet of R is the largest), so --points has a ceiling: at
# 10,000 points a full `verify` peaks near 195 MB.
MAX_POINTS = 10000
# `solve` holds O(m) arrays (m = --grid; 6-wide stencils and a band factor):
# 2048 intervals take under 0.1 s and peak near 34 MB.  The ceiling is set by
# rounding instead: the differences lose about |f| eps / h^2, which at 2048
# is near the solver's absolute tolerance 1e-8.  `integrate` evaluates every
# quadrature node at once, about 2 * resolution^3 of them per chart:
# resolution 40 peaks near 56 MB for the volume alone, and near 156 MB with
# divergence checks (163 MB at 1000 of them), which share one basis per
# chart.  Each check sums its own terms, so time grows with the count: 1000
# checks take about 26 s at resolution 40.
MAX_INTERVALS = 2048
MAX_RESOLUTION = 40
# From 12 up every grid passes the volume record's default tolerance 1e-5 (gap
# at most 7.05e-6, at 12, on every catalog sphere); the gap is not monotone
# below: 4.79e-5, 9.11e-6, 1.88e-5, 1.37e-5 at 8 to 11.
MIN_RESOLUTION = 12
MAX_DIVERGENCE = 1000
# verify's couplings: the defining residual's g-norm squares it, and its
# gaussian term mu lambda^2 |x|^2 is cubic in them (lambda = mu = 1e90 gives
# an inf g-norm).  Every case keeps finite records with each at +-1e50.
MAX_PARAMETER = 1e50


# -- verify -----------------------------------------------------------------

def _case_points(entry, count: int, seed: int):
    """``count`` samples spread across the charts of an entry,
    deterministically; below one per chart, the first charts take one each."""
    charts = entry.charts
    per = max(1, count // len(charts))
    pts = []
    for i, chart in enumerate(charts):
        left = count - len(pts)
        if left < 1:
            break
        take = left if i == len(charts) - 1 else min(per, left)
        pts.extend(sample_points(chart, take, seed + i))
    return pts


def _last_argmax(values) -> int:
    """Index of the last maximum, the point a running ``>=`` scan keeps."""
    values = np.asarray(values)
    return len(values) - 1 - int(np.argmax(values[::-1]))


def _largest(batch, values, last=False):
    """A quantity that must vanish, reported at its first maximum over the
    batch, or with ``last`` at its last maximum."""
    k = _last_argmax(values) if last else int(np.argmax(values))
    return batch.points[k], values[k], 0.0, values[k]


def _vanishing(batch, value):
    """A batch-level quantity that must vanish, reported at the first point."""
    return batch.points[0], value, 0.0, value


def _shared(batch, fn, *args):
    """``fn(*args)``, computed once per batch however many rows read it."""
    return batch.memo((fn, *args), lambda: fn(*args))


# Applicability predicates on (instance, CaseSpec).

def _always(inst, spec) -> bool:
    return True


def _gradient(inst, spec) -> bool:
    return inst.kind in (SolitonKind.GRYS, SolitonKind.GEN_GRYS)


def _splitting(inst, spec) -> bool:
    pr = inst.params
    return _gradient(inst, spec) and pr.mu == 0.0 and abs(pr.alpha - pr.beta * (inst.n - 1)) > 1e-12


def _scalar_law(inst, spec) -> bool:
    """R is constant on a compact gradient soliton unless n beta = 2 alpha."""
    pr = inst.params
    return _gradient(inst, spec) and inst.compact and abs(inst.n * pr.beta - 2.0 * pr.alpha) > 1e-12


def _sign_law(inst, spec) -> bool:
    """The sign of that constant R is forced only where n beta > 2 alpha."""
    pr = inst.params
    return _scalar_law(inst, spec) and inst.n * pr.beta - 2.0 * pr.alpha > 1e-12


def _listed(name: str):
    """Applies to the cases whose ``CaseSpec.checks`` name the row."""
    return lambda inst, spec: name in spec.checks


def _concircular(inst, spec) -> bool:
    return inst.kind is SolitonKind.RYS and inst.phi is not None


# Measures: each returns the record's (point, lhs, rhs, gap) over a batch.

def _defining(norm: str):
    """One norm of the defining residual, at its first maximum."""

    def measure(inst, batch, tols):
        return _largest(batch, _shared(batch, residual_report, inst, batch)[norm])

    return measure


def _identity(check: str):
    """An identity check of ``identities`` at its worst point (the first
    maximum).  The check is looked up when it runs, so a rebinding of the
    module attribute (a tracing span) sees the call."""

    def measure(inst, batch, tols):
        worst = getattr(identities, check)(inst, batch, tols["defining-residual"]).worst()
        return worst.point, worst.lhs, worst.rhs, worst.rel_gap

    return measure


def _constancy(inst, batch, tols):
    return _shared(batch, identities.check_scalar_constancy, inst, batch, tols["scalar-constancy"])


def _scalar_constancy(inst, batch, tols):
    out = _constancy(inst, batch, tols)
    gap = out["gap"] / (1.0 + abs(out["predicted"]))
    return batch.points[0], out["r_value"], out["predicted"], gap


def _scalar_sign_law(inst, batch, tols):
    out = _constancy(inst, batch, tols)
    gap = 0.0 if out["sign_consistent"] else 1.0
    return batch.points[0], out["r_value"], out["predicted"], gap


def _affine_flag(flag: str):
    """One of the affine-potential flags of a product geometry."""

    def measure(inst, batch, tols):
        flags = _shared(batch, identities.check_affine_splitting_flags, inst, batch)
        return _vanishing(batch, flags[flag])

    return measure


def _ricci_flat(inst, batch, tols):
    return _vanishing(batch, ricci(inst.metric, batch).max_abs())


def _steady_lambda(inst, batch, tols):
    lam = inst.params.lam
    return batch.points[0], lam, 0.0, abs(lam)


def _concircular_defect(inst, batch, tols):
    defect = concircular_defect(inst.metric, inst.vector_field, inst.phi, batch)
    return _largest(batch, np.max(np.abs(defect), axis=(0, 1)))


# The concircular conclusions are reported at their last maxima.

def _conclusions(inst, batch):
    return _shared(batch, concircular_conclusions, inst.metric, inst.params, inst.phi, batch)


def _einstein_defect(inst, batch, tols):
    return _largest(batch, _conclusions(inst, batch)["einstein_defect"], last=True)


def _scalar_prediction(inst, batch, tols):
    predicted = _conclusions(inst, batch)["scalar_pred"]
    measured = scalar_curvature(inst.metric, batch)
    gaps = np.abs(measured - predicted) / (1.0 + abs(predicted))
    k = _last_argmax(gaps)
    return batch.points[k], measured[k], predicted, gaps[k]


def _ricci_eigenvalue(inst, batch, tols):
    expected = _conclusions(inst, batch)["eigenvalue_pred"] * np.eye(inst.n)[:, :, None]
    gaps = np.max(np.abs(ricci_operator(inst.metric, batch) - expected), axis=(0, 1))
    return _largest(batch, gaps, last=True)


def _class_consistency(inst, batch, tols):
    lam_class = classify(inst.params)
    consistent = all(c is lam_class for c in _conclusions(inst, batch)["class"])
    return batch.points[0], 0.0, 0.0, 0.0 if consistent else 1.0


@dataclass(frozen=True)
class Check:
    """One table row: a kind of report record and how `verify` measures it.

    ``applies(inst, spec)`` says whether a soliton case reports the row, and
    ``measure(inst, batch, tols)`` returns the record's (point, lhs, rhs,
    gap).  A ``derived`` row runs only once the defining residual is within
    its tolerance.  Rows without ``measure`` (volume, divergence and the
    universal identities) are measured by their own commands and give them
    only an anchor and a default tolerance.
    """

    name: str
    anchor: str
    tol: float
    applies: Optional[Callable] = None
    measure: Optional[Callable] = None
    derived: bool = True


# Every check, in report order.  A soliton case reports each row that
# applies to it; `--tol` accepts exactly these names.
CHECKS = {
    check.name: check
    for check in (
        Check("defining-residual", "defining soliton equation", 1e-8,
              _always, _defining("max_abs"), derived=False),
        Check("defining-residual-gnorm", "defining soliton equation", 1e-8,
              _always, _defining("g_norm"), derived=False),
        Check("trace-identity", "trace of the defining equation", 1e-8,
              _gradient, _identity("check_trace_identity")),
        Check("gradient-identity", "soliton gradient identity", 1e-6,
              _gradient, _identity("check_gradient_identity")),
        Check("laplacian-identity", "soliton Laplacian identity", 1e-4,
              _gradient, _identity("check_laplacian_identity")),
        Check("splitting-identity", "Bochner splitting identity", 1e-5,
              _splitting, _identity("check_splitting_identity")),
        Check("scalar-constancy", "compact scalar-curvature constancy", 1e-9,
              _scalar_law, _scalar_constancy),
        Check("scalar-sign-law", "scalar-curvature sign law", 0.5,
              _sign_law, _scalar_sign_law),
        Check("product-affine-hessian", "affine potential on a product geometry", 1e-9,
              _listed("product-affine-hessian"), _affine_flag("hessian_norm")),
        Check("product-grad-constancy", "constant gradient norm on a product geometry", 1e-9,
              _listed("product-grad-constancy"), _affine_flag("grad_norm_variation")),
        Check("steady-ricci-flat", "steady split instances are Ricci-flat", 1e-10,
              _listed("steady-ricci-flat"), _ricci_flat),
        Check("steady-lambda", "steady classification", 1e-12,
              _listed("steady-lambda"), _steady_lambda),
        Check("concircular-defect", "concircular vector field defect", 1e-10,
              _concircular, _concircular_defect),
        Check("einstein-defect", "Einstein reduction under a concircular field", 1e-10,
              _concircular, _einstein_defect),
        Check("scalar-prediction", "scalar curvature prediction", 1e-9,
              _concircular, _scalar_prediction),
        Check("ricci-eigenvalue", "Ricci operator eigenvalue", 1e-10,
              _concircular, _ricci_eigenvalue),
        Check("class-consistency", "classification threshold consistency", 0.5,
              _concircular, _class_consistency),
        Check("contracted-bianchi", "contracted second Bianchi identity", 1e-6),
        Check("commutation", "covariant derivative commutation rule", 1e-6),
        Check("bochner", "Bochner formula", 1e-6),
        Check("volume", "Riemannian volume form", 1e-5),
        Check("divergence-theorem", "divergence theorem", 1e-5),
    )
}


def _record(case, check, tols, point, lhs, rhs, gap, suffix=""):
    """The report record of table row ``check`` for ``case``."""
    return CheckRecord.build(
        name=f"{case}:{check}{suffix}",
        anchor=CHECKS[check].anchor,
        point=None if point is None else list(point.coords),
        lhs=lhs,
        rhs=rhs,
        gap=gap,
        tol=tols[check],
    )


def _run_soliton_case(name, spec, inst, points, seed, tols, report) -> None:
    batch = PointBatch(_case_points(spec.entry(), points, seed))
    inst.metric.require_spd(batch)
    on_soliton = False
    for check in CHECKS.values():
        if check.measure is None or not check.applies(inst, spec):
            continue
        if check.derived and not on_soliton:
            continue  # derived identities are meaningless off the soliton
        record = _record(name, check.name, tols, *check.measure(inst, batch, tols))
        report.add(record)
        if check.name == "defining-residual":
            on_soliton = not record.gap > record.tol


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
    for check, res in worst.items():
        report.add(_record(name, check, tols, res.point, res.lhs, res.rhs, res.rel_gap))


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


def _parameter(raw: str) -> float:
    """A finite soliton coupling of magnitude at most MAX_PARAMETER."""
    value = _finite(raw)
    if abs(value) > MAX_PARAMETER:
        raise argparse.ArgumentTypeError(f"magnitude must be <= {MAX_PARAMETER:g}, got {value!r}")
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


def _solve_problem(args):
    """Why a `solve` option set that each option type accepts still cannot
    be represented (None if it can): the second-derivative stencil scale
    1 / (12 h^2) of the grid step h, and the squared soliton coefficient
    summed over the 2 (grid + 1) rows of both blocks, must be finite and
    the scale nonzero, and a sphere grid must stop short of the antipode
    r = pi * radius, where the warp radius * sin(r / radius) vanishes."""
    grid = solver.make_grid(args.grid, r_max=args.r_max)
    h = float(grid[1] - grid[0])
    if not 0.0 < 12.0 * h * h < math.inf:
        return f"--r-max {args.r_max!r} with --grid {args.grid}: 1 / (12 h^2) is not finite and nonzero"
    background = solver.named_background(args.background, args.radius)
    coef = solver.soliton_coefficient(SolitonParams(args.alpha, args.beta, args.lam, 0.0), background)
    if not math.isfinite(2 * (args.grid + 1) * (coef * coef)):
        return (
            f"the soliton coefficient alpha c + lambda - beta R / 2 = {coef!r} "
            f"(--radius {args.radius!r}) squared over the grid is not finite"
        )
    if args.background == "sphere" and args.r_max >= math.pi * args.radius:
        return (
            f"--r-max {args.r_max!r} reaches the antipode pi * radius = "
            f"{math.pi * args.radius!r} of the sphere (--radius {args.radius!r})"
        )
    return None


def _unwritable(path: str) -> Optional[str]:
    """Why ``path`` cannot be written, when the file system already shows it
    before any work is done: it is a directory, or its nearest existing
    ancestor is not one.  None otherwise; failures that show up only when
    writing are reported then."""
    if os.path.isdir(path):
        return str(IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path))
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        return str(NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), parent))
    return None


def _tolerance(raw: str) -> tuple:
    """NAME=VALUE with a known check name and a finite VALUE >= 0."""
    if "=" not in raw:
        raise argparse.ArgumentTypeError(f"expects NAME=VALUE, got '{raw}'")
    key, val = raw.split("=", 1)
    if key not in CHECKS:
        raise argparse.ArgumentTypeError(f"unknown tolerance name '{key}'")
    value = _finite(val)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"tolerance {key} must be >= 0, got {value!r}")
    return key, value


def _tols(pairs) -> dict:
    tols = {name: check.tol for name, check in CHECKS.items()}
    tols.update(pairs or [])
    return tols


def _print_lines(lines) -> None:
    """Print ``lines``; if the reader closed stdout, drop the rest and point
    stdout at os.devnull so that the flush at exit cannot raise either."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _finish(report, start, out, summary: str) -> int:
    """Write the report, then print the records and ``summary``; return the
    exit code: 1 if any check failed, 2 if the report cannot be written."""
    report.wall_time_s = time.perf_counter() - start
    try:
        write_report(report, out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    _print_lines(
        [f"[{rec.verdict.upper():4s}] {rec.name}  gap={rec.gap:.3e}  tol={rec.tol:.1e}"
         for rec in report.records]
        + [summary]
    )
    print(f"wall time: {report.wall_time_s:.2f} s", file=sys.stderr)
    return 0 if report.all_passed else 1


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
        runs = []
        for name in requested:
            spec = cases[name]
            params = SolitonParams(
                alpha=spec.defaults.alpha if args.alpha is None else args.alpha,
                beta=spec.defaults.beta if args.beta is None else args.beta,
                lam=spec.defaults.lam if args.lam is None else args.lam,
                mu=spec.defaults.mu if args.mu is None else args.mu,
            )
            inst = None if spec.universal_only else spec.build(params)
            if inst is not None and _concircular(inst, spec):
                # Parameters that leave a row undefined are a usage error,
                # found before any case runs.
                try:
                    require_concircular_params(params)
                except (AlphaZero, DegenerateBeta) as exc:
                    print(
                        f"error: case '{name}' with alpha = {params.alpha!r}, "
                        f"beta = {params.beta!r}: {exc}",
                        file=sys.stderr,
                    )
                    return 2
            runs.append((name, spec, params, inst))
        for name, spec, params, inst in runs:
            if abs(params.mu * params.alpha + 1.0) <= 1e-12:
                # The gradient/Laplacian identities carry a (mu*alpha + 1)
                # factor; at mu*alpha = -1 several terms drop out and the
                # checks lose discriminating power.
                report.warn(
                    f"case '{name}': mu*alpha = -1 is degenerate for the "
                    "gradient and Laplacian identities"
                )
            if inst is None:
                _run_universal_case(name, args.points, args.seed, tols, report)
            else:
                _run_soliton_case(name, spec, inst, args.points, args.seed, tols, report)
    except RysLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    s = report.summary
    return _finish(report, start, args.out, f"{s['pass']}/{s['total']} checks passed")


# -- integrate ----------------------------------------------------------------

def _ambient_quadratic(seed: int) -> quadrature.AmbientQuadratic:
    """The random divergence test field sum_ij c_ij a_i a_j + sum_i lin_i a_i
    on the 4 ambient coordinates a, from seeded uniform draws."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=(4, 4))
    lin = rng.uniform(-1.0, 1.0, size=4)
    return quadrature.AmbientQuadratic(c, lin)


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
        report.add(_record(args.case, "volume", tols, None, measured, expected, rel))
        fields = [
            quadrature.ManifoldScalarField.from_ambient(
                entry, _ambient_quadratic(args.seed + k), name=f"u{k}"
            )
            for k in range(args.divergence)
        ]
        outs = quadrature.integrate_laplacians(entry, fields, args.resolution)
        for k, out in enumerate(outs):
            ratio = abs(out["integral"]) / out["scale"] if out["scale"] > 0 else 0.0
            integral = out["integral"]
            report.add(
                _record(args.case, "divergence-theorem", tols, None, integral, 0.0, ratio, f"[{k}]")
            )
    except (NotCompact, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RysLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return _finish(report, start, args.out, f"volume = {measured!r} (reference {expected!r})")


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
    rows = [
        f"{float(r)!r},{float(f)!r},{float(res)!r}\n"
        for r, f, res in zip(profile.grid, profile.values, per_node)
    ]
    try:
        write_atomic(args.out, "r,f,residual\n" + "".join(rows))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    _print_lines([f"{message}; profile written to {args.out}"])
    return code


# -- catalog ---------------------------------------------------------------------

def cmd_catalog(_args) -> int:
    _print_lines(
        f"{entry.name:16s} dim={entry.dim}  {'compact' if entry.compact else 'open':7s} "
        f"charts={len(entry.charts)}  {entry.notes}"
        for entry in catalog.catalog_entries()
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
    v.add_argument("--alpha", type=_parameter, default=None)
    v.add_argument("--beta", type=_parameter, default=None)
    v.add_argument("--lambda", dest="lam", type=_parameter, default=None)
    v.add_argument("--mu", type=_parameter, default=None)
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
        type=_bounded(MIN_RESOLUTION, MAX_RESOLUTION),
        default=24,
        help=f"Gauss-Legendre nodes per axis, {MIN_RESOLUTION}..{MAX_RESOLUTION}",
    )
    q.add_argument(
        "--divergence",
        type=_bounded(0, MAX_DIVERGENCE),
        default=0,
        help=f"number of random divergence checks, 0..{MAX_DIVERGENCE}",
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
        problem = _solve_problem(args) if args.command == "solve" else None
        if problem:
            parser.error(f"solve: {problem}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = getattr(args, "out", None)
    problem = None if out is None else _unwritable(out)
    if problem:
        print(f"error: cannot write {out}: {problem}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
