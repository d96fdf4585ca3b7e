"""ryslab benchmark: end-to-end and per-layer metrics of the CLI workloads.

Usage, from the repository root:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are listed in ``workloads.WORKLOADS`` and described in
``bench/WORKLOADS.md``.  Each rep runs the workload's ``ryslab.cli.main``
commands one after another in a fresh interpreter (``bench/worker.py``);
the load is one closed-loop client, and BLAS runs on one thread.  With
``--trace 0`` reps repeat for ``--seconds`` (at least three); wall, CPU
and set-up time are the median over reps of each rep's time relative to
reference computations timed around it (``reference.py``; the parts in
``workloads.REFERENCE_PARTS`` and ``SETUP_PARTS``), in seconds at the
references' quiet-host speed; peak RSS is the median rep's.
The raw times are printed and kept too.  With
``--trace 1`` the run alternates untraced and traced reps of the same
commands and, for verify workloads, adds one traced ``verify`` per case;
it reports the per-layer metrics.

Every command's output is checked (exit code, record names, verdicts,
the exact solve profile, byte-identical repeats).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run outputs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
import workloads
from reference import quiet_seconds
from workloads import OUT_DIR

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUDGET_S = 170.0  # a run must end within 180 s
MIN_REPS = 3
TRACE_PAIRS = 2  # untraced/traced rep pairs in a traced run
HEADROOM_CAP = 16.0  # digits of a double; used when every gap is exactly 0
# Pinned to one thread in every worker.  The two cores are shared with other
# tenants, and a multi-threaded BLAS waiting on a thread whose core is busy
# elsewhere made one solve-sweep run 5x slower than the next.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREAD_VARS = BLAS_THREAD_VARS + ("RYS_LAB_THREADS",)

END_TO_END = {  # name -> (unit, better)
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_ratio": ("ratio", "higher"),
    "headroom_digits": ("digits", "higher"),
}
ALL_CASES = workloads.SOLITON_CASES + ("perturbed-flat",)
# Spans whose total time (callees included) is reported besides calls and
# self time; the metric contract allows at most 128 per-layer metrics.
TOTAL_SPANS = (
    "ad.jet2",
    "ad.derive",
    "curvature.christoffel_generic",
    "curvature.ricci_generic",
    "curvature.ricci_with_partials",
    "curvature.scalar_curvature_generic",
    "curvature.hessian_generic",
    "curvature.laplacian_generic",
    "soliton.residual_report",
    "soliton.defining_residual",
    "soliton.concircular_conclusions",
    "identities.check_trace_identity",
    "identities.check_gradient_identity",
    "identities.check_laplacian_identity",
    "identities.check_splitting_identity",
    "identities.require_soliton",
    "identities.universal_residuals",
    "quadrature.build_grid",
    "quadrature.integrate_laplacian",
    "quadrature.volume",
    "solver.solve_radial",
    "solver.radial_residual",
    "report.write_report",
)
PER_POINT = ("soliton.defining_residual", "curvature.ricci_generic")


def per_layer_units() -> dict:
    """Every per-layer metric name -> (unit, better), in report order."""
    units = {}
    for span in tracer.SPAN_NAMES:
        units[f"{span}.calls"] = ("count", "lower")
        if span in TOTAL_SPANS:
            units[f"{span}.total_s"] = ("s", "lower")
        units[f"{span}.self_s"] = ("s", "lower")
    for span in PER_POINT:
        units[f"{span}.per_point"] = ("calls/point", "lower")
    for case in ALL_CASES:
        units[f"cli.case.{case}.total_s"] = ("s", "lower")
    units["solver.iterations"] = ("count", "lower")
    units["solver.accept_ratio"] = ("ratio", "higher")
    units["trace.overhead_s"] = ("s", "lower")
    return units


# -- environment ------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": len(affinity) if affinity else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": git_commit(),
    }


def setup_error() -> str | None:
    """Why the benchmark cannot run here, or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ryslab", "cli.py")):
        return f"no ryslab source under {os.path.join(ROOT, 'src')}"
    threads = os.environ.get("RYS_LAB_THREADS")
    if threads not in (None, "1"):
        return f"RYS_LAB_THREADS must be unset or 1, got {threads!r}"
    return None


# -- one rep -------------------------------------------------------------------------

def run_worker(argvs, traced: bool, parts, deadline: float) -> dict | None:
    """Run one rep in a fresh interpreter, timing reference ``parts`` around it;
    None when it crashed or timed out."""
    spec_path = os.path.join(ROOT, OUT_DIR, "worker-spec.json")
    result_path = os.path.join(ROOT, OUT_DIR, "worker-result.json")
    with open(spec_path, "w") as handle:
        spec = {"commands": [list(a) for a in argvs], "traced": traced, "reference": list(parts)}
        json.dump(spec, handle)
    if os.path.exists(result_path):
        os.unlink(result_path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print("worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    with open(result_path) as handle:
        return json.load(handle)


def rep_wall(result: dict) -> float:
    return sum(c["wall_s"] for c in result["commands"])


def gate(cmd: workloads.Command, code) -> dict:
    """Correctness of one command's output: ok, sha256, headroom digits, reason."""
    if code != 0:
        return {"ok": False, "sha256": None, "headroom": [], "why": f"exit code {code}"}
    path = os.path.join(ROOT, cmd.out)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        return {"ok": False, "sha256": None, "headroom": [], "why": str(exc)}
    sha = hashlib.sha256(data).hexdigest()
    if cmd.kind == "solve":
        ok, why, headroom = gate_profile(cmd, data.decode())
    else:
        ok, why, headroom = gate_report(cmd, json.loads(data))
    return {"ok": ok, "sha256": sha, "headroom": headroom, "why": why}


def gate_report(cmd, payload) -> tuple:
    records = payload["records"]
    names = tuple(r["name"] for r in records)
    if names != cmd.expected:
        return False, f"record names {names} != expected {cmd.expected}", []
    failing = [r["name"] for r in records if r["verdict"] != "pass"]
    if failing:
        return False, f"records not passing: {failing}", []
    headroom = [math.log10(r["tol"] / r["gap"]) for r in records if r["gap"] > 0]
    return True, "", headroom


def gate_profile(cmd, text: str) -> tuple:
    rows = list(csv.DictReader(text.splitlines()))
    r = [float(row["r"]) for row in rows]
    f = [float(row["f"]) for row in rows]
    residual = max(float(row["residual"]) for row in rows)
    error = max(abs(fv - cmd.quadratic * (rv * rv - r[0] * r[0])) for rv, fv in zip(r, f))
    if error > workloads.SOLVE_TOL:
        return False, f"profile off the exact solution by {error:.3e}", []
    headroom = [math.log10(workloads.SOLVE_TOL / residual)] if residual > 0 else []
    return True, "", headroom


def clear_outputs(cmds) -> None:
    for cmd in cmds:
        path = os.path.join(ROOT, cmd.out)
        if os.path.exists(path):
            os.unlink(path)


class Tally:
    """Operations attempted and failed, report hashes, and why anything failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sha256: dict[str, str] = {}  # command -> sha of its first output
        self.headroom: list[float] = []

    def rep(self, cmds, result, label: str) -> None:
        """Gate every command of one rep; a crash fails all of them."""
        for index, cmd in enumerate(cmds):
            self.attempted += cmd.operations
            key = " ".join(cmd.argv)
            if result is None:
                verdict = {"ok": False, "why": "worker crashed", "sha256": None, "headroom": []}
            else:
                verdict = gate(cmd, result["commands"][index]["code"])
            if verdict["ok"]:
                first = self.sha256.setdefault(key, verdict["sha256"])
                if first != verdict["sha256"]:
                    verdict["ok"] = False
                    verdict["why"] = f"output bytes differ from the first rep ({label})"
            if not verdict["ok"]:
                self.failed += cmd.operations
                self.problems.append(f"{label}: {key}: {verdict['why']}")
            self.headroom.extend(verdict["headroom"])

    def headroom_digits(self) -> float:
        return min(self.headroom) if self.headroom else HEADROOM_CAP


# -- runs -----------------------------------------------------------------------------

def reference_time(rep: dict, parts, clock: str) -> float:
    """The ``clock`` time of the reference ``parts`` around one rep: the mean
    of the reading before and the reading after its commands."""
    return statistics.fmean(sum(m["parts"][p][clock] for p in parts) for m in rep["reference"])


def rep_samples(reps, parts, setup_parts) -> tuple:
    """Per-rep metric samples, the raw times they come from, and the reference's times.

    Other tenants of the shared host slow its CPU by up to 2x for minutes at
    a time, longer than a run.  Each timing is therefore taken relative to
    reference computations timed in the same process around it (``parts``
    for the commands, ``setup_parts`` for set-up), and scaled back to
    seconds by the references' own time on a quiet host.
    """
    raw = {
        "wall_s": [rep_wall(r) for r in reps],
        "cpu_s": [sum(c["cpu_s"] for c in r["commands"]) for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
    }
    against = {"wall_s": (parts, "wall_s"), "cpu_s": (parts, "cpu_s"), "setup_s": (setup_parts, "wall_s")}
    samples = {}
    for name, values in raw.items():
        ref_parts, clock = against[name]
        quiet = quiet_seconds(ref_parts)
        samples[name] = [quiet * v / reference_time(r, ref_parts, clock) for v, r in zip(values, reps)]
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in reps]
    ref_wall = [reference_time(r, parts, "wall_s") for r in reps]
    return samples, raw, ref_wall


def measure(workload: str, seed: int, seconds: float, smoke: bool, deadline: float) -> tuple:
    """End-to-end metrics over reps repeated until ``seconds`` have passed."""
    cmds = workloads.commands(workload, seed, smoke)
    argvs = [c.argv for c in cmds]
    parts = workloads.timed_parts(workload)
    tally = Tally()
    reps = []
    start = time.monotonic()
    last = 0.0
    while True:
        rep_start = time.monotonic()
        if reps and rep_start + last > deadline:
            break
        if len(reps) >= MIN_REPS and rep_start + last - start > seconds:
            break
        clear_outputs(cmds)
        result = run_worker(argvs, traced=False, parts=parts, deadline=deadline)
        tally.rep(cmds, result, f"rep {len(reps)}")
        if result is None:
            break
        reps.append(result)
        last = time.monotonic() - rep_start
    samples, raw, ref_wall = rep_samples(
        reps, workloads.REFERENCE_PARTS[workload], workloads.SETUP_PARTS
    )
    metrics = {name: statistics.median(values) if values else 0.0 for name, values in samples.items()}
    metrics["pass_ratio"] = 1.0 - tally.failed / tally.attempted
    metrics["headroom_digits"] = tally.headroom_digits()
    detail = {"reps": reps, "samples": samples, "raw": raw, "reference_wall_s": ref_wall}
    return metrics, tally, detail


def traced_run(workload: str, seed: int, smoke: bool, deadline: float) -> tuple:
    """Per-layer metrics: untraced and traced reps of the workload, alternating,
    then one traced ``verify`` per case of a verify workload."""
    cmds = workloads.commands(workload, seed, smoke)
    argvs = [c.argv for c in cmds]
    parts = workloads.timed_parts(workload)
    tally = Tally()
    plain, traced = [], []
    for pair in range(TRACE_PAIRS):
        for is_traced, runs in ((False, plain), (True, traced)):
            label = f"{'traced' if is_traced else 'untraced'} rep {pair}"
            clear_outputs(cmds)
            result = run_worker(argvs, traced=is_traced, parts=parts, deadline=deadline)
            tally.rep(cmds, result, label)  # traced bytes must repeat the untraced ones
            if result is None:
                continue
            runs.append(result)
            if is_traced and not result["restored"]:
                tally.failed += sum(c.operations for c in cmds)
                tally.problems.append(f"{label}: a rebound name was not restored")
    calls = [{k: v["calls"] for k, v in r["spans"].items()} for r in traced]
    if any(c != calls[0] for c in calls):
        tally.problems.append("call counts differ between traced reps")

    units = per_layer_units()
    metrics = {name: 0.0 if unit != "count" else 0 for name, (unit, _) in units.items()}
    fastest = min(traced, key=rep_wall) if traced else None
    spans = fastest["spans"] if fastest else {}
    for span, row in spans.items():
        metrics[f"{span}.calls"] = row["calls"]
        metrics[f"{span}.self_s"] = row["self_s"]
        if span in TOTAL_SPANS:
            metrics[f"{span}.total_s"] = row["total_s"]
    if fastest is not None:
        iterations = fastest["counters"].get("solver.iterations", 0)
        residuals = spans.get("solver.radial_residual", {}).get("calls", 0)
        metrics["solver.iterations"] = iterations
        metrics["solver.accept_ratio"] = iterations / residuals if residuals else 0.0
    if plain and traced:
        metrics["trace.overhead_s"] = rep_wall(fastest) - min(map(rep_wall, plain))

    per_case = {}
    points = workloads.verify_points(smoke)
    for case in workloads.workload_cases(workload):
        cmd = workloads.verify_command(f"{workload}-{case}", (case,), points, seed)
        clear_outputs([cmd])
        result = run_worker([cmd.argv], traced=True, parts=parts, deadline=deadline)
        tally.rep([cmd], result, f"traced case {case}")
        if result is None:
            continue
        metrics[f"cli.case.{case}.total_s"] = result["commands"][0]["wall_s"]
        sampled = workloads.sampled_points(case, points)
        ratios = {
            span: result["spans"].get(span, {}).get("calls", 0) / sampled for span in PER_POINT
        }
        per_case[case] = ratios
        for span, ratio in ratios.items():
            key = f"{span}.per_point"
            metrics[key] = max(metrics[key], ratio)
    detail = {"untraced": plain, "traced": traced, "per_case_per_point": per_case}
    return metrics, tally, detail


# -- output -----------------------------------------------------------------------------

def print_table(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        unit, better = units[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:48s} {shown:>14s} {unit:12s} ({better} is better)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal input sizes (self-tests)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    error = setup_error()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    env = environment()
    # Untimed: compile bytecode and warm the file cache, which users pay once.
    run_worker([], traced=False, parts=workloads.timed_parts(args.workload), deadline=deadline)

    if args.trace:
        metrics, tally, detail = traced_run(args.workload, args.seed, args.smoke, deadline)
        units = per_layer_units()
    else:
        metrics, tally, detail = measure(args.workload, args.seed, args.seconds, args.smoke, deadline)
        units = END_TO_END
    correct = tally.failed == 0 and not tally.problems

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print_table(metrics, units)
    if not args.trace:
        print(f"  fail_ratio = {tally.failed}/{tally.attempted} = {1.0 - metrics['pass_ratio']:.6g}")
        for label, rows in (("", detail["samples"]), ("raw ", detail["raw"])):
            for name, values in rows.items():
                if values:
                    print(f"  {label}{name} over {len(values)} reps: min {min(values):.6g}"
                          f"  median {statistics.median(values):.6g}  max {max(values):.6g}")
        ref = detail["reference_wall_s"]
        parts = workloads.REFERENCE_PARTS[args.workload]
        if ref:
            print(f"  reference {'+'.join(parts)}: median {statistics.median(ref):.6g} s"
                  f" ({quiet_seconds(parts):.6g} s on a quiet host)")
    for key, sha in tally.sha256.items():
        print(f"  sha256 {sha}  {key}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print("environment " + json.dumps(env, sort_keys=True))

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "environment": env, "metrics": metrics, "sha256": tally.sha256,
        "problems": tally.problems, "detail": detail,
    }
    smoke = "-smoke" if args.smoke else ""
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.json"
    with open(os.path.join(ROOT, OUT_DIR, name), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
