"""Call spans around ryslab's public functions, installed from outside the package.

A ``Tracer`` wraps functions so that every call adds to a per-name row
``[calls, total_s, self_s]``.  ``total_s`` counts only the outermost
activation of a name, so a recursive call is not counted twice.
``self_s`` is a call's duration minus the time covered by wrapped
callees, so the ``self_s`` column sums to the time spent inside the
outermost spans.

``install`` rebinds a function's public name in every ``ryslab.*``
module namespace (and class dict) that holds the same object, because
modules import functions by name; ``restore`` puts every original back.
Span names are ``<module>.<qualname>`` with the ``ryslab.`` prefix
dropped, e.g. ``curvature.ricci_generic`` or ``geometry.MetricField.matrix``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Layer -> public functions whose calls the traced run times.
LAYERS = {
    "ad": ("jet2", "value_and_gradient", "derive", "vlift"),
    "geometry": ("MetricField.matrix", "sample_points", "MetricField.require_spd"),
    "tensors": ("mat_inverse", "mat_det"),
    "curvature": (
        "christoffel_generic",
        "christoffel_with_partials",
        "ricci_generic",
        "ricci_with_partials",
        "scalar_curvature_generic",
        "hessian_generic",
        "laplacian_generic",
        "grad_norm_sq_generic",
        "lie_metric_generic",
    ),
    "soliton": (
        "residual_report",
        "defining_residual",
        "concircular_defect",
        "concircular_conclusions",
    ),
    "identities": (
        "check_trace_identity",
        "check_gradient_identity",
        "check_laplacian_identity",
        "check_splitting_identity",
        "check_scalar_constancy",
        "check_affine_splitting_flags",
        "require_soliton",
        "universal_residuals",
    ),
    "catalog": (
        "verify_cases",
        "get_entry",
        "catalog_entries",
        "make_perturbed_flat",
        "random_polynomial_field",
    ),
    "quadrature": ("build_grid", "integrate", "integrate_laplacian", "volume"),
    "solver": ("solve_radial", "radial_residual", "derivative_matrices", "residual_jacobian"),
    "report": ("write_report", "CheckReport.to_json"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Per-name call counts, total time and self time of wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.rows: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._children: list[float] = []  # time covered by wrapped callees, per open span
        self._depth: dict[str, int] = {}

    def wrap(self, name: str, fn):
        row = self.rows.setdefault(name, [0, 0.0, 0.0])
        children, depth, clock = self._children, self._depth, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            depth[name] = depth.get(name, 0) + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = children.pop()
                depth[name] -= 1
                row[0] += 1
                row[2] += elapsed - covered
                if depth[name] == 0:
                    row[1] += elapsed
                if children:
                    children[-1] += elapsed

        return span

    def table(self) -> dict:
        return {
            name: {"calls": calls, "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in sorted(self.rows.items())
        }


def count_accepted_steps(solve_radial, counters: dict):
    """Wrap ``solver.solve_radial`` so accepted LM steps add to
    ``counters["solver.iterations"]``.  The solver appends the initial cost
    and then one cost per accepted step to ``cost_trace``; a list is passed
    when the caller passes none."""

    @functools.wraps(solve_radial)
    def probe(params, background, grid, init=None, cost_trace=None):
        trace = [] if cost_trace is None else cost_trace
        before = len(trace)
        try:
            return solve_radial(params, background, grid, init, trace)
        finally:
            accepted = max(0, len(trace) - before - 1)
            counters["solver.iterations"] = counters.get("solver.iterations", 0) + accepted

    return probe


def _lookup(module, qualname: str):
    owner = module
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name]


def _holders(package: str, original):
    """Every (namespace, attribute) under ``package`` bound to ``original``."""
    found = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        namespaces = [module] + [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == mod_name
        ]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    found.append((namespace, attr))
    return found


def install(tracer: Tracer, spans=SPAN_NAMES, package: str = "ryslab") -> list:
    """Rebind every holder of each span's function to a wrapper.

    Returns the bindings ``(namespace, attr, original)`` that ``restore``
    undoes.
    """
    bindings = []
    for span_name in spans:
        layer, qualname = span_name.split(".", 1)
        module = importlib.import_module(f"{package}.{layer}")
        original = _lookup(module, qualname)
        target = original
        if span_name == "solver.solve_radial":
            target = count_accepted_steps(original, tracer.counters)
        wrapper = tracer.wrap(span_name, target)
        for namespace, attr in _holders(package, original):
            setattr(namespace, attr, wrapper)
            bindings.append((namespace, attr, original))
    return bindings


def restore(bindings: list) -> bool:
    """Put every original back; True when each name is again the original."""
    for namespace, attr, original in reversed(bindings):
        setattr(namespace, attr, original)
    return all(vars(namespace)[attr] is original for namespace, attr, original in bindings)
