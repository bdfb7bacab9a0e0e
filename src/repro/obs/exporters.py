"""Snapshot exporter: JSON.

:func:`to_json` serializes a :class:`~repro.obs.MetricsSnapshot` — samples,
histogram summaries (each with its cumulative ``buckets``), spans and,
when profiled, the profile — as one document; it is the format CI
archives and ``repro.analysis verify-network --metrics-out`` writes.
"""

from __future__ import annotations

import json
from typing import Any

from .metrics import MetricsSnapshot

__all__ = ["to_json", "write_json"]


def _labels_dict(key: tuple[tuple[str, str], ...]) -> dict[str, str]:
    return {k: v for k, v in key}


def to_json(snap: MetricsSnapshot, indent: int = 2) -> str:  # taint: sink
    """The snapshot as one JSON document."""
    doc: dict[str, Any] = {
        "version": snap.version,
        "sim_time_s": snap.sim_time_s,
        "samples": [
            {"name": s.name, "labels": _labels_dict(s.labels), "value": s.value}
            for s in snap.samples
        ],
        "histograms": [
            {"name": name, "labels": _labels_dict(key), "summary": summary}
            for (name, key), summary in sorted(snap.histograms.items())
        ],
        "spans": [
            {
                "name": r.name,
                "start_s": r.start_s,
                "end_s": r.end_s,
                "duration_s": r.duration_s,
                "labels": _labels_dict(r.labels),
            }
            for r in snap.spans
        ],
    }
    if snap.profile is not None:
        doc["profile"] = snap.profile
    return json.dumps(doc, indent=indent, sort_keys=False)


def write_json(snap: MetricsSnapshot, path: str) -> None:  # taint: sink
    """Write :func:`to_json` output to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(snap))
        fh.write("\n")
