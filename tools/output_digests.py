"""Print the sha256 of each reference output of ``verify``, ``integrate`` and ``solve``.

Usage, from the repository root:

    python3 tools/output_digests.py > digests.txt

Each command runs through ``ryslab.cli.main`` of the checkout that holds
this script, inside a temporary directory, with a fixed relative ``--out``
name: ``verify`` echoes ``--out`` into its report, so only the same name
gives the same bytes.  One ``name sha256`` line is printed per output
file.  Two checkouts keep their outputs byte for byte when ``diff`` finds
no difference between their listings.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ryslab.cli import main  # noqa: E402


# 2**64 + 1: a seed of three 32-bit words, which SeedSequence mixes by its
# multi-word path.
LONG_SEED = "18446744073709551617"


def _integrate(case, resolution, divergence, seed=None):
    name = f"integrate-{case}-{resolution}-{divergence}" + (f"-seed-{seed}" if seed else "") + ".json"
    argv = ["integrate", "--case", case, "--resolution", str(resolution), "--divergence", str(divergence)]
    return name, argv + (["--seed", seed] if seed else [])


# (output file, argv without --out): default verify, integrate on each
# compact case, and default solve on each background.  Three more verify
# runs reach point paths the default misses: two other seeds (one of them
# multi-word), and a draw over two charts above ``ad.CHUNK`` points
# (curvature lifts it in chunks) with perturbed-flat run as one-member
# groups.  Resolution 40 is the largest Gauss-Legendre rule the CLI builds.
OUTPUTS = (
    ("verify.json", ["verify"]),
    ("verify-seed-1.json", ["verify", "--seed", "1"]),
    (f"verify-seed-{LONG_SEED}.json", ["verify", "--seed", LONG_SEED]),
    ("verify-chunked.json", ["verify", "--case", "einstein-s3", "--case", "perturbed-flat", "--points", "1100"]),
    _integrate("unit-s3", 24, 20),
    _integrate("unit-s3", 40, 1000),
    _integrate("sphere-0.5", 12, 7),
    _integrate("sphere-2", 40, 3),
    _integrate("sphere-0.5", 40, 4, LONG_SEED),
    *((f"solve-{bg}.csv", ["solve", "--background", bg]) for bg in ("flat", "sphere", "hyperbolic")),
)


def digests():
    """(name, sha256 hex digest) of each output, in ``OUTPUTS`` order."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, argv in OUTPUTS:
                with contextlib.redirect_stdout(sys.stderr):  # keep stdout to the listing
                    code = main(argv + ["--out", name])
                if code == 2:
                    raise SystemExit(f"{name}: configuration error")
                yield name, hashlib.sha256(Path(name).read_bytes()).hexdigest()
        finally:
            os.chdir(here)


if __name__ == "__main__":
    for name, digest in digests():
        print(name, digest, flush=True)
