"""Machine-readable check reports.

A report is a JSON document with the tool version, an echo of the run
configuration, one record per check (worst sampled point attached), and
summary counts.  Serialization is canonical: sorted keys, round-trip
float formatting, a trailing newline, and no volatile fields (wall time
is reported on the console, never in the file), so identical
(config, seed, version) runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from .records import Fresh, Record

VERSION = "0.1.0"


class CheckRecord(Record):
    name: str
    anchor: str
    point: Optional[list]
    lhs: float
    rhs: float
    gap: float
    tol: float
    verdict: str  # "pass" | "fail"

    @classmethod
    def build(cls, name, anchor, point, lhs, rhs, gap, tol) -> "CheckRecord":
        return cls(
            name,
            anchor,
            None if point is None else [float(c) for c in point],
            float(lhs),
            float(rhs),
            float(gap),
            float(tol),
            "pass" if float(gap) <= float(tol) else "fail",
        )

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_payload(self) -> dict:
        """The record's fields by name; ``point`` is a fresh list."""
        point = self.point
        return {
            "name": self.name,
            "anchor": self.anchor,
            "point": None if point is None else list(point),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "tol": self.tol,
            "verdict": self.verdict,
        }


class CheckReport(Record):
    command: str
    config: dict
    records: list[CheckRecord] = Fresh(list)
    warnings: list[str] = Fresh(list)
    version: str = VERSION

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    @property
    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.passed)
        return {
            "pass": passed,
            "fail": len(self.records) - passed,
            "total": len(self.records),
        }

    @property
    def all_passed(self) -> bool:
        return self.summary["fail"] == 0

    def to_payload(self) -> dict:
        return {
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "records": [r.to_payload() for r in self.records],
            "warnings": list(self.warnings),
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Atomic write: temp file in the target directory, then rename.  The
    file gets the mode a plain ``open`` would give it (0o666 less the
    umask), not ``mkstemp``'s 0o600.  The temp file is removed on any
    failure, and the error is raised."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(report: CheckReport, path: str) -> None:
    """The report's JSON, written atomically to ``path``."""
    write_atomic(path, report.to_json())
