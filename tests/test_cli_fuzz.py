"""Argv fuzzing: every subcommand keeps the exit-code contract (0 all
checks pass, 1 a check failed, 2 usage error) and never ends in a
traceback, whatever its flags hold."""

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ryslab.cli import main  # noqa: E402

# Edge values: out of range, non-finite, underflowing, or not numbers.
BAD = ["nan", "inf", "-5", "0", "1e-300", "x"]
NUMBERS = ["1", "0.5", "-2", "1e300"]


def pick(name, values):
    return st.sampled_from(values).map(lambda v: [name, v])


def command(name, sizes, options):
    """``name`` with its size flags, each option absent or valid, and then
    up to two flags given again with an edge value (the parser keeps the
    last, or collects every --case and --tol).  The size flags are always
    given with tiny valid values, because their defaults are full-size runs."""
    valid = st.tuples(
        *[pick(f, v) for f, v in sizes],
        *[st.one_of(st.just([]), pick(f, v)) for f, v in options],
    )
    flags = [f for f, _ in sizes + options]
    edges = st.lists(st.tuples(st.sampled_from(flags), st.sampled_from(BAD)), max_size=2)
    return st.tuples(valid, edges).map(
        lambda t: [name] + [a for part in t[0] + tuple(t[1]) for a in part]
    )


VERIFY = command(
    "verify",
    [("--points", ["1", "3"])],
    [
        ("--case", ["gaussian", "einstein-s3", "concircular-flat", "perturbed-flat"]),
        ("--seed", ["0", "7"]),
        ("--alpha", NUMBERS),
        ("--beta", NUMBERS),
        ("--lambda", NUMBERS),
        ("--mu", NUMBERS),
        ("--tol", ["defining-residual=1e-3", "trace-identity=0"]),
    ],
)
INTEGRATE = command(
    "integrate",
    [("--case", ["unit-s3", "sphere-0.5", "gaussian"]), ("--resolution", ["8", "12"])],
    [
        ("--divergence", ["0", "1"]),
        ("--seed", ["0", "7"]),
        ("--tol", ["volume=1e-3", "divergence-theorem=0"]),
    ],
)
SOLVE = command(
    "solve",
    [("--grid", ["16"])],
    [
        ("--background", ["flat", "sphere", "hyperbolic"]),
        ("--radius", NUMBERS),
        ("--alpha", NUMBERS),
        ("--beta", NUMBERS),
        ("--lambda", NUMBERS),
        ("--r-max", ["1", "2", "1e300"]),
    ],
)
CATALOG = st.sampled_from([["catalog"], ["catalog", "--points", "3"]])
# Where --out points: a new file, an existing directory, or a path under a
# regular file (the last two cannot be written).
OUT = st.sampled_from(["file", "directory", "under-a-file"])
# Parser shapes applied to the whole argv, --out included, at a position
# picked by an integer: as drawn, a flag repeated at the end with no value,
# a flag joined to its value by "=", an unknown flag, a flag cut to a prefix
# (unique or ambiguous), or -h inserted anywhere.
SHAPES = st.tuples(st.sampled_from(["as-drawn", "trailing", "equals", "unknown", "prefix", "help"]), st.integers(0, 99))


def reshape(argv, shape, k):
    flags = [i for i, token in enumerate(argv) if token.startswith("--")]
    i = flags[k % len(flags)] if flags else None
    if shape == "trailing":
        return argv + [argv[i] if flags else "--out"]
    if shape == "equals" and flags and i + 1 < len(argv):
        return argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]
    if shape == "unknown":
        at = (flags + [len(argv)])[k % (len(flags) + 1)]
        return argv[:at] + ["--no-such-flag", "1"] + argv[at:]
    if shape == "prefix" and flags:  # odd k: the shortest prefix, ambiguous for solve's --r and --b
        cut = 3 if k % 2 else 3 + k % (len(argv[i]) - 2)
        return argv[:i] + [argv[i][:cut]] + argv[i + 1:]
    if shape == "help":
        at = k % (len(argv) + 1)
        return argv[:at] + ["-h"] + argv[at:]
    return argv


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.one_of(VERIFY, INTEGRATE, SOLVE, CATALOG), OUT, SHAPES)
def test_exit_code_contract_holds_for_every_argv(args, out, shape):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        blocker = os.path.join(tmp, "file")
        open(blocker, "w").close()
        target = {"file": os.path.join(tmp, "out"), "directory": tmp}.get(out, os.path.join(blocker, "out"))
        if args[0] != "catalog":
            args = args + ["--out", target]
        args = reshape(args, *shape)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 1, 2), args
    assert "Traceback" not in err.getvalue(), args
