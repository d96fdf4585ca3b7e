"""The benchmark's tracer spans ryslab functions by name from outside the
package; a renamed or moved function must fail here, not only in a traced
benchmark run.  ``bench/tracer.py`` is loaded by path and only read."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_in_ryslab():
    tracer = _load_tracer()
    assert len(tracer.SPAN_NAMES) == 45
    missing = []
    for span in tracer.SPAN_NAMES:
        layer, qualname = span.split(".", 1)
        try:
            fn = tracer._lookup(importlib.import_module(f"ryslab.{layer}"), qualname)
        except (ImportError, AttributeError, KeyError):
            missing.append(span)
            continue
        assert callable(fn), span
    assert missing == []


def test_install_then_restore_puts_every_original_back():
    tracer = _load_tracer()
    bindings = []
    try:
        bindings = tracer.install(tracer.Tracer())
        assert bindings
    finally:
        assert tracer.restore(bindings)
