"""Self-tests of the benchmark itself.

Run from the repository root:

    python3 bench/selftest.py

They cover self-time accounting, installing and restoring the span
wrappers, the host normalisation of timings, the correctness gate, the
seed reaching ``--seed``, a smoke run of every workload at minimal size
(traced and untraced), and the refusal to run without the ryslab source.
The file name keeps pytest from collecting them with the package's own
tests.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import types
import unittest

import reference
import run
import tracer
import workloads

ROOT = run.ROOT
SCRATCH = os.path.join(ROOT, workloads.OUT_DIR, "selftest")


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench_main(*args):
    return subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=175,
    )


class SelfTimeAccounting(unittest.TestCase):
    def test_nested_and_recursive_calls(self):
        now = [0.0]
        spans = tracer.Tracer(clock=lambda: now[0])

        def leaf():
            now[0] += 1.0

        def mid():
            now[0] += 2.0
            leaf_span()
            now[0] += 0.5

        def top(depth):
            now[0] += 3.0
            mid_span()
            leaf_span()
            if depth:
                top_span(depth - 1)

        leaf_span = spans.wrap("leaf", leaf)
        mid_span = spans.wrap("mid", mid)
        top_span = spans.wrap("top", top)
        top_span(1)

        table = spans.table()
        # top(1) = 3 + mid 3.5 + leaf 1 + top(0) 7.5; the inner top is not
        # counted again in total_s.
        self.assertEqual(table["top"], {"calls": 2, "total_s": 15.0, "self_s": 6.0})
        self.assertEqual(table["mid"], {"calls": 2, "total_s": 7.0, "self_s": 5.0})
        self.assertEqual(table["leaf"], {"calls": 4, "total_s": 4.0, "self_s": 4.0})
        self.assertEqual(sum(row["self_s"] for row in table.values()), 15.0)

    def test_raising_call_is_still_counted(self):
        now = [0.0]
        spans = tracer.Tracer(clock=lambda: now[0])

        def boom():
            now[0] += 2.0
            raise ValueError("x")

        def outer():
            now[0] += 1.0
            boom_span()

        boom_span = spans.wrap("boom", boom)
        outer_span = spans.wrap("outer", outer)
        with self.assertRaises(ValueError):
            outer_span()
        table = spans.table()
        self.assertEqual(table["boom"], {"calls": 1, "total_s": 2.0, "self_s": 2.0})
        self.assertEqual(table["outer"], {"calls": 1, "total_s": 3.0, "self_s": 1.0})


class InstallAndRestore(unittest.TestCase):
    def setUp(self):
        pkg = types.ModuleType("fakepkg")
        alpha = types.ModuleType("fakepkg.alpha")
        beta = types.ModuleType("fakepkg.beta")

        def f(x):
            return x + 1

        class K:
            def m(self):
                return 7

            __call__ = m

        f.__module__ = K.__module__ = "fakepkg.alpha"
        alpha.f, alpha.K = f, K
        beta.f = f  # imported by name, as ryslab's modules do
        pkg.alpha, pkg.beta = alpha, beta
        self.modules = {"fakepkg": pkg, "fakepkg.alpha": alpha, "fakepkg.beta": beta}
        sys.modules.update(self.modules)

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def test_every_holder_is_rebound_and_restored(self):
        alpha, beta = self.modules["fakepkg.alpha"], self.modules["fakepkg.beta"]
        f, m = alpha.f, alpha.K.m
        spans = tracer.Tracer()
        bindings = tracer.install(spans, spans=("alpha.f", "alpha.K.m"), package="fakepkg")
        self.assertIsNot(beta.f, f)
        self.assertIs(beta.f, alpha.f)
        self.assertIsNot(vars(alpha.K)["__call__"], m)
        self.assertEqual(beta.f(1), 2)
        self.assertEqual(alpha.K()(), 7)
        self.assertEqual(alpha.K().m(), 7)
        self.assertEqual(spans.table()["alpha.f"]["calls"], 1)
        self.assertEqual(spans.table()["alpha.K.m"]["calls"], 2)
        self.assertTrue(tracer.restore(bindings))
        self.assertIs(alpha.f, f)
        self.assertIs(beta.f, f)
        self.assertIs(vars(alpha.K)["m"], m)
        self.assertIs(vars(alpha.K)["__call__"], m)

    def test_all_ryslab_spans_install_and_restore(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        try:
            import ryslab.cli  # loads every module that holds a span
            from ryslab import curvature, identities, solver

            originals = {name: getattr(curvature, name) for name in ("ricci_generic", "jet2")}
            solve = solver.solve_radial
            spans = tracer.Tracer()
            bindings = tracer.install(spans)
            self.assertEqual(len({b[0:2] for b in bindings}), len(bindings))
            self.assertIs(identities.ricci_generic, curvature.ricci_generic)
            self.assertIsNot(curvature.ricci_generic, originals["ricci_generic"])
            self.assertIsNot(identities.jet2, originals["jet2"])
            trace = []
            grid = solver.make_grid(solver.MIN_INTERVALS)
            params = ryslab.cli.SolitonParams(1.0, 0.0, 2.0, 0.0)
            solver.solve_radial(params, solver.Background.flat(), grid, cost_trace=trace)
            self.assertEqual(spans.counters["solver.iterations"], len(trace) - 1)
            self.assertTrue(tracer.restore(bindings))
            self.assertIs(curvature.ricci_generic, originals["ricci_generic"])
            self.assertIs(identities.jet2, originals["jet2"])
            self.assertIs(solver.solve_radial, solve)
        finally:
            sys.path.remove(os.path.join(ROOT, "src"))


class CorrectnessGate(unittest.TestCase):
    def setUp(self):
        os.makedirs(SCRATCH, exist_ok=True)

    def write(self, name, text):
        path = os.path.join(SCRATCH, name)
        with open(path, "w") as handle:
            handle.write(text)
        return os.path.relpath(path, ROOT)

    def report(self, verdict="pass", names=("c:a", "c:b")):
        records = [{"name": n, "tol": 1e-8, "gap": 1e-12, "verdict": verdict} for n in names]
        return json.dumps({"records": records})

    def test_report_gate(self):
        out = self.write("r.json", self.report())
        good = workloads.Command(("verify",), out, ("c:a", "c:b"))
        self.assertTrue(run.gate(good, 0)["ok"])
        self.assertAlmostEqual(min(run.gate(good, 0)["headroom"]), 4.0)
        self.assertFalse(run.gate(good, 1)["ok"])
        self.assertFalse(run.gate(workloads.Command(("verify",), out, ("c:a",)), 0)["ok"])
        failing = self.write("f.json", self.report(verdict="fail"))
        self.assertFalse(run.gate(workloads.Command(("verify",), failing, ("c:a", "c:b")), 0)["ok"])

    def test_profile_gate(self):
        rows = ["r,f,residual"] + [f"{r!r},{-(r * r - 0.25)!r},1e-09" for r in (0.5, 0.75, 1.0)]
        exact = self.write("p.csv", "\n".join(rows) + "\n")
        self.assertTrue(run.gate(workloads.Command(("solve",), exact, quadratic=-1.0), 0)["ok"])
        self.assertFalse(run.gate(workloads.Command(("solve",), exact, quadratic=-1.001), 0)["ok"])


class SeedReachesCli(unittest.TestCase):
    def records(self, seed):
        cmds = workloads.commands("verify-soliton", seed, smoke=True)
        run.clear_outputs(cmds)
        result = run.run_worker([c.argv for c in cmds], traced=False, parts=(),
                                deadline=time.monotonic() + 120)
        self.assertEqual(result["commands"][0]["code"], 0)
        with open(os.path.join(ROOT, cmds[0].out)) as handle:
            payload = json.load(handle)
        self.assertEqual(payload["config"]["seed"], seed)
        return payload["records"]

    def test_different_seed_gives_different_report(self):
        os.makedirs(os.path.join(ROOT, workloads.OUT_DIR), exist_ok=True)
        first, second = self.records(1), self.records(2)
        self.assertEqual([r["name"] for r in first], [r["name"] for r in second])
        self.assertNotEqual([r["point"] for r in first], [r["point"] for r in second])


class HostNormalisation(unittest.TestCase):
    @staticmethod
    def rep(wall, ref, setup=0.1):
        def reading(scale):
            return {"parts": {p: {"wall_s": ref * scale, "cpu_s": ref * scale} for p in ("columns", "interpreted")}}

        return {
            "commands": [{"wall_s": wall / 2, "cpu_s": wall / 2}] * 2,
            "setup_s": setup,
            "peak_rss_mb": 40.0,
            "reference": [reading(1.0), reading(1.5)],
        }

    def test_host_speed_cancels(self):
        # The second rep ran on a host twice as slow: raw times double, normalised ones do not.
        reps = [self.rep(1.0, 0.1), self.rep(2.0, 0.2, setup=0.2)]
        samples, raw, ref_wall = run.rep_samples(reps, ("columns",), ("interpreted",))
        self.assertEqual(raw["wall_s"], [1.0, 2.0])
        self.assertEqual(ref_wall, [0.125, 0.25])  # the columns part, before and after
        for name in ("wall_s", "cpu_s"):
            self.assertAlmostEqual(samples[name][0], reference.QUIET_S["columns"] * 8.0)
            self.assertAlmostEqual(samples[name][1], samples[name][0])
        self.assertAlmostEqual(samples["setup_s"][0], reference.QUIET_S["interpreted"] * 0.8)
        self.assertAlmostEqual(samples["setup_s"][1], samples["setup_s"][0])
        self.assertEqual(samples["peak_rss_mb"], [40.0, 40.0])

    def test_reference_work_is_fixed(self):
        for workload in workloads.WORKLOADS:
            parts = workloads.timed_parts(workload)
            with self.subTest(workload=workload):
                self.assertTrue(set(workloads.REFERENCE_PARTS[workload]) <= set(parts))
                self.assertTrue(set(workloads.SETUP_PARTS) <= set(parts))
                first, second = reference.measure(parts), reference.measure(parts)
                self.assertEqual(first["checksum"], second["checksum"])
                self.assertEqual(set(first["parts"]), set(parts))
                self.assertGreater(reference.quiet_seconds(parts), 0.0)


class SmokeRuns(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            self.spec = json.load(handle)

    def smoke(self, workload, trace):
        proc = bench_main("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = last_json_line(proc.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in wanted},
        )
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_every_workload_untraced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.smoke(workload, 0)
                self.assertEqual(metrics["pass_ratio"], 1.0)
                for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "headroom_digits"):
                    self.assertGreater(metrics[name], 0.0)

    def test_every_workload_traced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.smoke(workload, 1)
                second = self.smoke(workload, 1)
                counts = {k: v for k, v in first.items() if k.endswith(".calls")}
                self.assertEqual(counts, {k: second[k] for k in counts})
                self.assertGreater(sum(counts.values()), 0)
                if workload == "verify-soliton":
                    self.assertEqual(first["soliton.defining_residual.per_point"], 5.0)
                if workload == "integrate-s3":
                    self.assertEqual(first["quadrature.volume.calls"], workloads.SMOKE["divergence"] + 1)
                if workload == "solve-sweep":
                    self.assertGreater(first["solver.iterations"], 0)


class RefusesWithoutSource(unittest.TestCase):
    def test_bare_directory_exits_nonzero_without_result(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "verify-soliton", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=175,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
