"""The benchmark's workloads: the ryslab commands each runs, and what a correct run returns.

Every path is relative to the repository root, which is the working
directory of every benchmark process.  The reasons for each workload and
its size are in ``bench/WORKLOADS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

OUT_DIR = ".bench_out"

SOLITON_CASES = ("gaussian", "einstein-s3", "einstein-h3", "s2xr", "flat-product", "concircular-flat")
GRADIENT_CHECKS = (
    "defining-residual",
    "defining-residual-gnorm",
    "trace-identity",
    "gradient-identity",
    "laplacian-identity",
    "splitting-identity",
)
# Record suffixes `verify` writes for each case at default parameters, in order.
CASE_CHECKS = {
    "gaussian": GRADIENT_CHECKS,
    "einstein-s3": GRADIENT_CHECKS + ("scalar-constancy",),
    "einstein-h3": GRADIENT_CHECKS,
    "s2xr": GRADIENT_CHECKS + ("product-affine-hessian", "product-grad-constancy"),
    "flat-product": GRADIENT_CHECKS
    + ("product-affine-hessian", "product-grad-constancy", "steady-ricci-flat", "steady-lambda"),
    "concircular-flat": (
        "defining-residual",
        "defining-residual-gnorm",
        "concircular-defect",
        "einstein-defect",
        "scalar-prediction",
        "ricci-eigenvalue",
        "class-consistency",
    ),
    "perturbed-flat": ("contracted-bianchi", "commutation", "bochner"),
}
# `verify` samples `--points` points per random metric on perturbed-flat,
# over this many metrics (ryslab.cli.PERTURBED_METRICS).
PERTURBED_METRICS = 5

VERIFY_POINTS = 16
INTEGRATE_RESOLUTION = 24
INTEGRATE_DIVERGENCE = 6
SOLVE_LADDER = (128, 256, 512, 1024)
# (background, lambda, exact profile coefficient q in f = q (r^2 - r0^2)).
# Flat with lambda = 2 has f = -(r^2 - r0^2).  Sphere and hyperbolic are
# balanced (alpha * Ric factor + lambda = 0), so their gauged profile is 0.
SOLVE_BACKGROUNDS = (("flat", 2.0, -1.0), ("sphere", -2.0, 0.0), ("hyperbolic", 2.0, 0.0))
SOLVE_TOL = 1e-8  # ryslab.solver.RESIDUAL_TOL, also the flat profile's gate

# Minimal sizes for the benchmark's own smoke tests.
SMOKE = {"points": 3, "resolution": 12, "divergence": 2, "ladder": (16, 32)}

WORKLOADS = ("verify-soliton", "verify-universal", "integrate-s3", "solve-sweep")
# The parts of ``reference.py`` that wall and CPU time are measured against:
# the kind of work the workload does, so that a busy host slows both alike.
REFERENCE_PARTS = {
    "verify-soliton": ("interpreted", "small_arrays"),
    "verify-universal": ("interpreted", "small_arrays"),
    "integrate-s3": ("columns",),
    "solve-sweep": ("dense",),
}
# Set-up (imports, the catalog) mixes interpreted work with loading numpy's
# compiled libraries; on every workload it is measured against this mix.
SETUP_PARTS = ("interpreted", "small_arrays", "columns")


def timed_parts(workload: str) -> tuple:
    """Every reference part a rep of ``workload`` times, each once before and once after."""
    return tuple(dict.fromkeys(REFERENCE_PARTS[workload] + SETUP_PARTS))


@dataclass(frozen=True)
class Command:
    """One ``ryslab.cli.main`` call and the output it must produce."""

    argv: tuple
    out: str                 # report (verify, integrate) or profile CSV (solve)
    expected: tuple = ()     # record names of a report, in order
    quadratic: float = 0.0   # solve: profile must be quadratic * (r^2 - r0^2)

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def operations(self) -> int:
        """One per report record, one per solve."""
        return len(self.expected) if self.expected else 1


def cli_seed(seed: int) -> int:
    """The `--seed` given to the CLI: the benchmark seed, folded to be non-negative."""
    return seed % 2**31


def verify_command(label: str, cases, points: int, seed: int) -> Command:
    """`verify` over ``cases``, writing its report to ``.bench_out/<label>.json``."""
    argv = ["verify"]
    for case in cases:
        argv += ["--case", case]
    out = f"{OUT_DIR}/{label}.json"
    argv += ["--points", str(points), "--seed", str(cli_seed(seed)), "--out", out]
    expected = tuple(f"{case}:{check}" for case in cases for check in CASE_CHECKS[case])
    return Command(tuple(argv), out, expected)


def workload_cases(workload: str) -> tuple:
    return {"verify-soliton": SOLITON_CASES, "verify-universal": ("perturbed-flat",)}.get(workload, ())


def verify_points(smoke: bool) -> int:
    return SMOKE["points"] if smoke else VERIFY_POINTS


def commands(workload: str, seed: int, smoke: bool = False) -> list[Command]:
    """The commands one rep of ``workload`` runs, in order."""
    if workload in ("verify-soliton", "verify-universal"):
        return [verify_command(workload, workload_cases(workload), verify_points(smoke), seed)]
    if workload == "integrate-s3":
        resolution = SMOKE["resolution"] if smoke else INTEGRATE_RESOLUTION
        divergence = SMOKE["divergence"] if smoke else INTEGRATE_DIVERGENCE
        out = f"{OUT_DIR}/{workload}.json"
        argv = (
            "integrate", "--case", "unit-s3", "--resolution", str(resolution),
            "--divergence", str(divergence), "--seed", str(cli_seed(seed)), "--out", out,
        )
        expected = ("unit-s3:volume",) + tuple(
            f"unit-s3:divergence-theorem[{k}]" for k in range(divergence)
        )
        return [Command(argv, out, expected)]
    if workload == "solve-sweep":
        ladder = SMOKE["ladder"] if smoke else SOLVE_LADDER
        cmds = []
        for background, lam, quadratic in SOLVE_BACKGROUNDS:
            for grid in ladder:
                out = f"{OUT_DIR}/{workload}-{background}-{grid}.csv"
                argv = (
                    "solve", "--background", background, "--lambda", repr(lam),
                    "--grid", str(grid), "--out", out,
                )
                cmds.append(Command(argv, out, quadratic=quadratic))
        return cmds
    raise ValueError(f"unknown workload '{workload}'")


def sampled_points(case: str, points: int) -> int:
    """Points at which `verify --case case --points points` evaluates its checks."""
    return points * PERTURBED_METRICS if case == "perturbed-flat" else points
