"""Correctness checks: operation accounting, exact-tier digests, self-test."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

from repro.core.export import report_to_dict

#: Report fields every analysis path must reproduce bit for bit.
EXACT_FIELDS = (
    "census",
    "adoption",
    "comparison",
    "apps",
    "domains",
    "weekly",
    "protocols",
    "devices",
    "encounters",
)


class Checks:
    """Counts operations (timed calls and checks) and the failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.op(ok)
        print(f"check {name}: {'ok' if ok else 'FAILED ' + detail}")
        if not ok:
            print(f"perfbench: check {name} failed {detail}", file=sys.stderr)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def exact_view(report) -> dict:
    """The exact-tier fields of a report as plain JSON-able data."""
    full = report_to_dict(report)
    return {name: full[name] for name in EXACT_FIELDS}


def exact_digest(report) -> str:
    blob = json.dumps(exact_view(report), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def exact_diff(ours, theirs) -> list[str]:
    """Names of the exact-tier fields on which two reports differ."""
    return [
        name
        for name in EXACT_FIELDS
        if getattr(ours, name) != getattr(theirs, name)
    ]


def perturbed(report):
    """A copy of ``report`` with one encounter event more."""
    encounters = dataclasses.replace(
        report.encounters, n_events=report.encounters.n_events + 1
    )
    return dataclasses.replace(report, encounters=encounters)


def check_self_test(checks: Checks, report, compare) -> None:
    """``compare(a, b)`` returns mismatch names; it must flag a perturbation."""
    caught = bool(compare(perturbed(report), report))
    checks.check("self-test perturbed report is caught", caught)
