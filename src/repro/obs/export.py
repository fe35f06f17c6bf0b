"""Trace exporters: JSONL (native), Chrome trace (Perfetto), sha256 digest.

Two on-disk formats:

* **JSONL** -- one span dict per line, full fidelity, loadable back
  with :func:`load_jsonl`.  This is the native dump format; everything
  else derives from it.
* **Chrome trace** -- the ``{"traceEvents": [...]}`` JSON understood
  by Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.
  Spans become ``ph: "X"`` complete events with microsecond
  timestamps; threads map to stable integer ``tid``\\ s in order of
  first appearance, so the layout is deterministic.

:func:`write_trace` picks the format from the extension (``.jsonl``
-> JSONL, anything else -> Chrome JSON).

:func:`trace_digest` is the determinism anchor: a sha256 over a
canonical JSON encoding of only the *deterministic* span fields --
names, parent links, creation order, attributes (floats via ``repr``
for bit-exactness), correlation IDs, and drop count.  Wall-clock
timestamps and thread names are excluded, so two seeded runs digest
identically even under a wall-clock tracer, while any change to what
the run actually did (an extra cache miss, a different solver pick)
changes the digest.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..digest import canonical_digest, exact_floats
from .tracing import SpanRecord, Tracer


def span_dicts(spans: List[SpanRecord]) -> List[Dict[str, Any]]:
    """Spans as JSON-safe dicts in seq order, with stable thread indices."""
    ordered = sorted(spans, key=lambda s: s.seq)
    thread_ids: Dict[str, int] = {}
    out = []
    for record in ordered:
        tid = thread_ids.setdefault(record.thread, len(thread_ids))
        out.append(
            {
                "seq": record.seq,
                "name": record.name,
                "parent_seq": record.parent_seq,
                "correlation": record.correlation,
                "start_s": record.start_s,
                "end_s": record.end_s,
                "thread": record.thread,
                "tid": tid,
                "attrs": dict(record.attrs),
            }
        )
    return out


def trace_digest(spans: List[SpanRecord], dropped: int = 0) -> str:
    """sha256 over the deterministic span fields (see module docstring)."""
    rows = []
    for entry in span_dicts(spans):
        rows.append(
            {
                "seq": entry["seq"],
                "name": entry["name"],
                "parent_seq": entry["parent_seq"],
                "correlation": entry["correlation"],
                "attrs": exact_floats(entry["attrs"]),
            }
        )
    return canonical_digest({"spans": rows, "dropped": dropped})


def chrome_trace(spans: List[SpanRecord]) -> Dict[str, Any]:
    """Chrome trace-event JSON (``ph: "X"`` complete events, ts/dur in µs)."""
    events = []
    for entry in span_dicts(spans):
        start_s = entry["start_s"]
        end_s = entry["end_s"] if entry["end_s"] is not None else start_s
        args = dict(entry["attrs"])
        if entry["correlation"] is not None:
            args["correlation"] = entry["correlation"]
        args["seq"] = entry["seq"]
        if entry["parent_seq"] is not None:
            args["parent_seq"] = entry["parent_seq"]
        events.append(
            {
                "name": entry["name"],
                "ph": "X",
                "ts": start_s * 1e6,
                "dur": max(0.0, (end_s - start_s) * 1e6),
                "pid": 1,
                "tid": entry["tid"],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_jsonl(spans: List[SpanRecord], path: str) -> None:
    """Write one span dict per line (the native full-fidelity format)."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in span_dicts(spans):
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace back into span dicts."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def dicts_to_records(entries: List[Dict[str, Any]]) -> List[SpanRecord]:
    """Rehydrate span dicts (e.g. from :func:`load_jsonl`) into records."""
    records = []
    for entry in entries:
        records.append(
            SpanRecord(
                seq=entry["seq"],
                name=entry["name"],
                start_s=entry["start_s"],
                thread=entry.get("thread", "main"),
                parent_seq=entry.get("parent_seq"),
                correlation=entry.get("correlation"),
                end_s=entry.get("end_s"),
                attrs=dict(entry.get("attrs", {})),
            )
        )
    return records


def write_trace(
    tracer: Tracer, path: str, fmt: Optional[str] = None
) -> Dict[str, Any]:
    """Write the tracer's spans to ``path``; returns a summary.

    ``fmt`` is ``"jsonl"`` or ``"chrome"``; when None it is inferred
    from the extension (``.jsonl`` -> JSONL, else Chrome JSON).  The
    summary carries the path, format, span/drop counts, and the
    deterministic digest -- this is what the ``--trace`` CLI flags
    attach to their JSON payloads.
    """
    spans = tracer.spans()
    if fmt is None:
        fmt = "jsonl" if path.endswith(".jsonl") else "chrome"
    if fmt == "jsonl":
        dump_jsonl(spans, path)
    elif fmt == "chrome":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(spans), fh, sort_keys=True)
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    return {
        "path": path,
        "format": fmt,
        "spans": len(spans),
        "dropped": tracer.dropped,
        "digest": trace_digest(spans, tracer.dropped),
    }
