"""Command-line driver: verify / integrate / solve / catalog.

Exit codes: 0 all checks pass, 1 at least one check failed (or a
computation could not finish), 2 configuration/usage error or an ``--out``
that cannot be written.  Reports are written atomically and are
byte-identical for identical (config, seed, version) triples.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import re
import sys
import time
from typing import Callable, Optional

import numpy as np

from . import ad, catalog, identities, quadrature, solver
from .curvature import curvature_data, ricci, ricci_operator, scalar_curvature
from .errors import AlphaZero, BeyondAntipode, DegenerateBeta, NoConvergence, NotCompact, RysLabError
from .geometry import PointBatch, sample_points, seeded_uniform
from .records import Record
from .report import VERSION, CheckRecord, CheckReport, write_atomic, write_report
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
# The rows of `identities.universal_residuals`, which perturbed-flat reports.
UNIVERSAL_CHECKS = ("contracted-bianchi", "commutation", "bochner")
# Every check holds all of a case's points in memory at once (curvature
# lifts them in chunks of ad.CHUNK points, to order 4 for the soliton cases
# and 3 for perturbed-flat, but keeps every read), so --points has a
# ceiling: at 10,000 points a full `verify` peaks near 118 MB.
MAX_POINTS = 10000
# `solve` holds O(m) arrays (m = --grid; 6-wide stencils and a band factor):
# 2048 intervals take under 0.1 s and peak near 34 MB.  The ceiling is set by
# rounding instead: the differences lose about |f| eps / h^2, which at 2048
# is near the solver's absolute tolerance 1e-8.  `integrate` takes its
# quadrature nodes, about 2 * resolution^3 per chart, in one pass over blocks
# of 8,192 (quadrature._CHUNK): each block's basis is built once into one
# reused buffer and read by every divergence check, and each check keeps only
# its exact accumulator.  At resolution 40 a fresh process peaks near 56 MB
# with or without checks (20 or 1000 of them); at 24, near 42 MB for the
# volume alone, 44.5 MB with 20 checks and 47.5 MB with 1000.  Time grows
# with the count: 20 checks take 0.5-0.6 s at resolution 40, and 1000 take
# 1.4-1.7 s at resolution 24 and 4.5-5.3 s at 40 (one core of an Intel Xeon).
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

def _joined(batches) -> PointBatch:
    """One batch of the points of ``batches``, in order."""
    return PointBatch([np.concatenate(column) for column in zip(*(b.columns for b in batches))])


def _case_points(entry, count: int, seed: int) -> PointBatch:
    """``count`` samples spread across the charts of an entry, as one batch,
    deterministically; below one per chart, the first charts take one each."""
    charts = entry.charts
    per = max(1, count // len(charts))
    draws, left = [], count
    for i, chart in enumerate(charts):
        if left < 1:
            break
        take = left if i == len(charts) - 1 else min(per, left)
        draws.append(sample_points(chart, take, seed + i))
        left -= take
    return _joined(draws)


def _last_argmax(values) -> int:
    """Index of the last maximum, the point a running ``>=`` scan keeps."""
    values = np.asarray(values)
    return len(values) - 1 - int(np.argmax(values[::-1]))


def _largest(batch, values, last=False):
    """A quantity that must vanish, reported at its first maximum over the
    batch, or with ``last`` at its last maximum."""
    k = _last_argmax(values) if last else int(np.argmax(values))
    return batch[k], values[k], 0.0, values[k]


def _vanishing(batch, value):
    """A batch-level quantity that must vanish, reported at the first point."""
    return batch[0], value, 0.0, value


def _shared(batch, fn, *args):
    """``fn(*args)``, computed once per batch however many rows read it.
    The key leaves the batch out: it owns the memo, and a key holding it
    would keep the batch alive in a reference cycle."""
    return batch.memo((fn, *(a for a in args if a is not batch)), lambda: fn(*args))


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
    return batch[0], out["r_value"], out["predicted"], gap


def _scalar_sign_law(inst, batch, tols):
    out = _constancy(inst, batch, tols)
    gap = 0.0 if out["sign_consistent"] else 1.0
    return batch[0], out["r_value"], out["predicted"], gap


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
    return batch[0], lam, 0.0, abs(lam)


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
    return batch[k], measured[k], predicted, gaps[k]


def _ricci_eigenvalue(inst, batch, tols):
    expected = _conclusions(inst, batch)["eigenvalue_pred"] * np.eye(inst.n)[:, :, None]
    gaps = np.max(np.abs(ricci_operator(inst.metric, batch) - expected), axis=(0, 1))
    return _largest(batch, gaps, last=True)


def _class_consistency(inst, batch, tols):
    lam_class = classify(inst.params)
    consistent = all(c is lam_class for c in _conclusions(inst, batch)["class"])
    return batch[0], 0.0, 0.0, 0.0 if consistent else 1.0


class Check(Record):
    """One table row: a kind of report record and how `verify` measures it.

    ``order`` is the highest derivative of g the row reads: a case lifts
    its batch's metric to the largest order among its rows, and a read
    above it raises ``OrderTooHigh``.  Ric, R and Hess f read 2; dRic, grad
    R and Delta |grad f|^2 read 3 (the lift carries g^{-1} one order below
    g); Delta R reads 4.  ``applies(inst, spec)`` says whether a soliton
    case reports the row, and ``measure(inst, batch, tols)`` returns the
    record's (point, lhs, rhs, gap).  A ``derived`` row runs only once the
    defining residual is within its tolerance.  Rows without ``measure``
    (volume, divergence and the universal identities) are measured by their
    own commands and give them only an anchor, a default tolerance and, for
    the universal identities, the order of perturbed-flat's lift.
    """

    name: str
    anchor: str
    tol: float
    order: int
    applies: Optional[Callable] = None
    measure: Optional[Callable] = None
    derived: bool = True


# Every check, in report order.  A soliton case reports each row that
# applies to it; `--tol` accepts exactly these names.
CHECKS = {
    check.name: check
    for check in (
        Check("defining-residual", "defining soliton equation", 1e-8, 2,
              _always, _defining("max_abs"), derived=False),
        Check("defining-residual-gnorm", "defining soliton equation", 1e-8, 2,
              _always, _defining("g_norm"), derived=False),
        Check("trace-identity", "trace of the defining equation", 1e-8, 2,
              _gradient, _identity("check_trace_identity")),
        Check("gradient-identity", "soliton gradient identity", 1e-6, 3,
              _gradient, _identity("check_gradient_identity")),
        Check("laplacian-identity", "soliton Laplacian identity", 1e-4, 4,
              _gradient, _identity("check_laplacian_identity")),
        Check("splitting-identity", "Bochner splitting identity", 1e-5, 3,
              _splitting, _identity("check_splitting_identity")),
        Check("scalar-constancy", "compact scalar-curvature constancy", 1e-9, 2,
              _scalar_law, _scalar_constancy),
        Check("scalar-sign-law", "scalar-curvature sign law", 0.5, 2,
              _sign_law, _scalar_sign_law),
        Check("product-affine-hessian", "affine potential on a product geometry", 1e-9, 2,
              _listed("product-affine-hessian"), _affine_flag("hessian_norm")),
        Check("product-grad-constancy", "constant gradient norm on a product geometry", 1e-9, 2,
              _listed("product-grad-constancy"), _affine_flag("grad_norm_variation")),
        Check("steady-ricci-flat", "steady split instances are Ricci-flat", 1e-10, 2,
              _listed("steady-ricci-flat"), _ricci_flat),
        Check("steady-lambda", "steady classification", 1e-12, 0,
              _listed("steady-lambda"), _steady_lambda),
        Check("concircular-defect", "concircular vector field defect", 1e-10, 1,
              _concircular, _concircular_defect),
        Check("einstein-defect", "Einstein reduction under a concircular field", 1e-10, 2,
              _concircular, _einstein_defect),
        Check("scalar-prediction", "scalar curvature prediction", 1e-9, 2,
              _concircular, _scalar_prediction),
        Check("ricci-eigenvalue", "Ricci operator eigenvalue", 1e-10, 2,
              _concircular, _ricci_eigenvalue),
        Check("class-consistency", "classification threshold consistency", 0.5, 2,
              _concircular, _class_consistency),
        Check("contracted-bianchi", "contracted second Bianchi identity", 1e-6, 3),
        Check("commutation", "covariant derivative commutation rule", 1e-6, 2),
        Check("bochner", "Bochner formula", 1e-6, 3),
        Check("volume", "Riemannian volume form", 1e-5, 0),
        Check("divergence-theorem", "divergence theorem", 1e-5, 1),
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
    batch = _case_points(spec.entry(), points, seed)
    inst.metric.require_spd(batch)
    rows = [check for check in CHECKS.values() if check.measure is not None and check.applies(inst, spec)]
    # The batch's metric is lifted only as far as its rows read.
    curvature_data(inst.metric, batch, max(check.order for check in rows))
    on_soliton = False
    for check in rows:
        if check.derived and not on_soliton:
            continue  # derived identities are meaningless off the soliton
        record = _record(name, check.name, tols, *check.measure(inst, batch, tols))
        report.add(record)
        if check.name == "defining-residual":
            on_soliton = record.passed  # a NaN residual fails, as it is no soliton


def _run_universal_case(name, points, seed, tols, report) -> None:
    """The universal identities on ``PERTURBED_METRICS`` random metrics,
    each with its own field and points (positive definite on them), reported
    at the worst point over all of them (the first metric's on ties).  The
    lift reaches the largest order among the ``UNIVERSAL_CHECKS`` rows.
    Consecutive metrics run as one group of at most ``ad.CHUNK`` points (a
    larger one alone), so that curvature never splits a group: ``catalog``
    builds the group's metric and field from the members' coefficients, and
    each residual's first maximum over the group is the first among its
    members' maxima.  Every member samples its points from the group's
    domain, the box all of them share, and the group's metric is checked
    positive definite once, on all of its members' points."""
    order = max(CHECKS[check].order for check in UNIVERSAL_CHECKS)
    worst = {}
    per_group = max(1, ad.CHUNK // points)
    for start in range(0, PERTURBED_METRICS, per_group):
        seeds = range(seed + start, seed + min(start + per_group, PERTURBED_METRICS))
        sizes = [points] * len(seeds)
        metric = catalog.perturbed_flat_group(1e-2, seeds, sizes)
        field = catalog.random_polynomial_group(metric.domain, [s + 1000 for s in seeds], sizes)
        group = _joined([sample_points(metric.domain, points, s + 2000) for s in seeds])
        metric.require_spd(group)
        curvature_data(metric, group, order)
        for res in identities.universal_residuals(metric, field, group):
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
    the scale nonzero, and the solver must accept the grid on the
    background (a sphere grid stops short of its antipode)."""
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
    try:
        solver.require_before_antipode(background, grid)
    except BeyondAntipode as exc:
        return f"--r-max {args.r_max!r}: {exc}"
    return None


def _unwritable(path: str) -> Optional[str]:
    """Why ``path`` cannot be written, when it already shows before any
    work is done: it is empty, it is a directory, or its nearest existing
    ancestor is not one.  None otherwise; failures that show up only when
    writing are reported then."""
    if not path:
        return "the path is empty"
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
    wall_time_s = time.perf_counter() - start
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
    print(f"wall time: {wall_time_s:.2f} s", file=sys.stderr)
    return 0 if report.all_passed else 1


def cmd_verify(args) -> int:
    cases = catalog.verify_cases()
    requested = list(dict.fromkeys(args.case)) if args.case else list(cases)
    unknown = [c for c in requested if c not in cases]
    if unknown:
        print(f"error: unknown case name(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    tols = _tols(args.tol)

    config = {"cases": requested, "alpha": args.alpha, "beta": args.beta, "lambda": args.lam, "mu": args.mu,
              "points": args.points, "seed": args.seed, "tolerances": tols, "out": args.out}
    report = CheckReport(command="verify", config=config)
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
                # Parameters that leave a row undefined, or that the case
                # would not apply, are a usage error, found before any case runs.
                try:
                    require_concircular_params(params, inst.n)
                except (AlphaZero, DegenerateBeta) as exc:
                    print(
                        f"error: case '{name}' with alpha = {params.alpha!r}, "
                        f"beta = {params.beta!r}: {exc}",
                        file=sys.stderr,
                    )
                    return 2
                if params.mu != 0.0:
                    print(
                        f"error: case '{name}' is an RYS instance, which has no mu-term: "
                        f"mu = {params.mu!r} would not be applied",
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
    draws = seeded_uniform(seed, [(-1.0, 1.0)] * 4, 5)
    return quadrature.AmbientQuadratic(draws[:4], draws[4])


def cmd_integrate(args) -> int:
    try:
        entry = catalog.get_entry(args.case)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    tols = _tols(args.tol)
    # integrate takes no couplings and samples no points.
    config = {"cases": [args.case], "alpha": None, "beta": None, "lambda": None, "mu": None, "points": 0,
              "seed": args.seed, "tolerances": tols, "resolution": args.resolution,
              "divergence_checks": args.divergence, "out": args.out}
    report = CheckReport(command="integrate", config=config)
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
            integral, scale = out["integral"], out["scale"]
            if not (math.isfinite(integral) and math.isfinite(scale)):
                ratio = math.inf  # a NaN scale is not > 0: it would read as gap 0
            else:
                ratio = abs(integral) / scale if scale > 0 else 0.0
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
        f"{r!r},{f!r},{res!r}\n"
        for r, f, res in zip(profile.grid.tolist(), profile.values.tolist(), per_node.tolist())
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

# argparse reads a token that starts with "-" as an option unless it matches
# its negative-number pattern, which has no exponent, so "--lambda -1e-3"
# lacked its argument.  "-inf" and "-nan" still read as options.
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@functools.cache  # one parser per process: building it costs about ten parses
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
    for p in (parser, v, q, s, c):
        p._negative_number_matcher = NEGATIVE_NUMBER
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
        print(f"error: cannot write {out or repr(out)}: {problem}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
