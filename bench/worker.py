"""One benchmark rep in a fresh interpreter: set up, run CLI commands, measure.

Usage (from the repository root):

    python3 bench/worker.py SPEC.json RESULT.json

SPEC holds ``{"commands": [argv, ...], "traced": bool, "reference": [part, ...]}``.  The worker
times set-up (importing ``ryslab.cli`` and building
``catalog.catalog_entries()``), then calls ``ryslab.cli.main`` once per
argv and records its exit code, wall time and process CPU time.  When
``traced`` is true the commands run under ``tracer.install`` and the
result carries the span table and whether every rebound name was
restored.  The named parts of ``reference.py`` are timed once before
and once after the commands, so the caller can take out the
host's drifting speed.  Correctness of the outputs is judged by the caller.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)

    start = time.perf_counter()
    import ryslab.cli
    from ryslab import catalog

    catalog.catalog_entries()
    setup_s = time.perf_counter() - start
    if not os.path.abspath(ryslab.cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"ryslab imported from {ryslab.cli.__file__}, not {src}")

    import reference  # after set-up: it imports numpy, which set-up must include

    before = reference.measure(spec["reference"])
    spans = bindings = None
    if spec["traced"]:
        import tracer

        spans = tracer.Tracer()
        bindings = tracer.install(spans)
    commands = []
    try:
        for argv in spec["commands"]:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            code = ryslab.cli.main(list(argv))
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            commands.append({"argv": argv, "code": code, "wall_s": wall, "cpu_s": cpu})
    finally:
        restored = tracer.restore(bindings) if bindings is not None else True
    # Read before the second reference, whose arrays would otherwise add to it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = reference.measure(spec["reference"])

    result = {
        "setup_s": setup_s,
        "commands": commands,
        "peak_rss_mb": peak_rss_mb,
        "restored": restored,
        "reference": [before, after],
    }
    if spans is not None:
        result["spans"] = spans.table()
        result["counters"] = dict(spans.counters)
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
