"""Time one ``ryslab`` command in alternating fresh processes from two checkouts.

Usage, from anywhere:

    python3 tools/fresh_pairs.py PARENT CHANGE [--pairs N] -- ARGV...

for example

    python3 tools/fresh_pairs.py ../parent . --pairs 20 -- verify --points 16

PARENT and CHANGE are checkout roots; each child process imports
``ryslab`` from that root's ``src``.  A child times its set-up (importing
``ryslab.cli`` and building ``catalog.catalog_entries()``, as the
benchmark's worker does) and then one ``ryslab.cli.main(ARGV)`` call, with
its output discarded and BLAS on one thread.  Each side runs in a
temporary directory of its own, so a relative ``--out`` lands there.
Pair k runs PARENT first when k is even and CHANGE first when it is odd.

Printed: each side's median and quartiles of the command's wall time and
of set-up, the median over pairs of CHANGE / PARENT, and in how many pairs
CHANGE was lower (ties count for neither side).  A gain holds when CHANGE
is lower in at least nine tenths of the pairs and the medians differ by
more than PARENT's interquartile distance.  Keep the two checkouts in
directories whose paths have the same length: the path alone can move a
fresh process's time by a few percent.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile

CHILD = """
import contextlib, io, os, sys, time
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
start = time.perf_counter()
import ryslab.cli
from ryslab import catalog
catalog.catalog_entries()
ready = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = ryslab.cli.main(sys.argv[2:])
done = time.perf_counter()
print(code, ready - start, done - ready)
"""
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(root: str, argv: list, cwd: str) -> tuple:
    """(exit code, set-up seconds, command seconds) of one fresh process."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.abspath(root), *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    code, setup, command = out.stdout.split()
    return int(code), float(setup), float(command)


def summary(values: list) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {median * 1e3:8.3f} ms   quartiles {q1 * 1e3:8.3f} .. {q3 * 1e3:8.3f} ms"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    cut = sys.argv.index("--") if "--" in sys.argv else len(sys.argv)
    args, argv = parser.parse_args(sys.argv[1:cut]), sys.argv[cut + 1 :]
    if not argv or args.pairs < 1:
        parser.error("give at least one pair and a ryslab argv after --")

    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: os.path.join(tmp, side) for side in sides}
        for path in dirs.values():
            os.mkdir(path)
        for k in range(args.pairs):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                runs[side].append(run_once(sides[side], argv, dirs[side]))

    print("argv:", " ".join(argv))
    for side in sides:
        codes = sorted({code for code, _, _ in runs[side]})
        print(f"{side:6s} command {summary([c for _, _, c in runs[side]])}   exit {codes}")
        print(f"{side:6s} set-up  {summary([s for _, s, _ in runs[side]])}")
    for label, col in (("command", 2), ("set-up", 1)):
        ratios = [b[col] / a[col] for a, b in zip(runs["parent"], runs["change"])]
        lower = sum(b[col] < a[col] for a, b in zip(runs["parent"], runs["change"]))
        print(f"{label}: change / parent median pair ratio {statistics.median(ratios):.4f}, "
              f"lower in {lower} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
