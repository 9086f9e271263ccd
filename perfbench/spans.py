"""In-memory spans recorded around the benchmark's calls into the program.

The benchmark never switches on ``repro.obs``: its traced run wraps the
public calls it makes (load, attribute, one fold per panel, render,
ingest, ...) in spans of its own.  Spans stay in memory while the
workload runs and are written out once, when it ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Nested spans: name, start, end, parent and root id, attributes.

    A disabled recorder yields ``None`` from :meth:`span` and records
    nothing, so the untraced run pays one generator per call site.
    """

    def __init__(self, enabled: bool, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            # Spans under one top-level span share its id as their root.
            "root": parent["root"] if parent else len(self.spans),
            "name": name,
            "start": self._clock(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = self._clock()
            self._stack.pop()

    def durations(self) -> dict[str, list[float]]:
        """Wall time of every closed span, grouped by name."""
        out: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            if span["end"] is not None:
                out[span["name"]].append(span["end"] - span["start"])
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Per name, the summed span time not covered by child spans."""
        children: dict[int, list[dict]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span["end"] is None:
                continue
            covered = _covered(
                span["start"],
                span["end"],
                [(c["start"], c["end"]) for c in children[span["id"]]],
            )
            totals[span["name"]] += span["end"] - span["start"] - covered
        return dict(totals)

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": self.spans, "self_s": self.self_times()}
        path.write_text(json.dumps(payload, indent=1, default=str) + "\n")
        return path


def _covered(start: float, end: float, intervals: list[tuple]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(i for i in intervals if i[1] is not None):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
