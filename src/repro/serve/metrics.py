"""Serve-layer observability: the counters behind ``stats.metrics``.

The ``stats`` endpoint's ``metrics`` block -- request counts by op,
typed error counts, shed counts by reason, batch coalescing ratios and
per-op latency histograms (p50/p95/p99 plus the exact per-bucket
counts) -- has exactly one derivation, :func:`serve_totals`, which
reads it out of a :meth:`~repro.obs.registry.MetricsRegistry.snapshot`.
A single server feeds it its own registry; the shard router feeds it
the lossless merge of its workers' registries, so both report the
same schema from the same code.

:class:`ServeMetrics` records every counted serve event twice, into
the same ``serve.*`` families and labels: once into its private
per-server registry (so two servers in one process keep separate
counts) and once into the process-wide registry (so the serve numbers
appear alongside pipeline/fleet metrics in the ``metrics`` op, SLO
sampling and the scenario's health gates).  The queue-depth gauges are
server state and go to the process registry only.

Everything is lock-protected and cheap to record -- one bisect and a
few float adds per registry -- so metrics never become the reason the
event loop stalls.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

from ..obs.registry import MetricsRegistry, get_registry


def serve_totals(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The ``metrics`` totals block of any registry snapshot.

    Works on a single server's registry and on a
    :func:`~repro.obs.registry.merge_snapshot` of many (counters and
    histogram buckets add cell-wise, so the merged totals are the sum
    of the per-server ones).
    """
    counters = snapshot.get("counters", {})

    def _by_label(family: str) -> Dict[str, int]:
        return {
            label_repr.partition("=")[2]: int(value)
            for label_repr, value in sorted(
                counters.get(family, {}).items()
            )
        }

    def _total(family: str) -> int:
        return int(sum(counters.get(family, {}).values()))

    batches = _total("serve.batches")
    batched = _total("serve.batched_requests")
    latency = snapshot.get("histograms", {}).get("serve.latency", {})
    return {
        "requests_total": _total("serve.requests"),
        "requests_by_op": _by_label("serve.requests"),
        "errors_by_kind": _by_label("serve.errors"),
        "sheds_by_reason": _by_label("serve.sheds"),
        "shed_count": _total("serve.sheds"),
        "batches": batches,
        "batched_requests": batched,
        "coalesce_ratio": batched / batches if batches else 0.0,
        "latency_by_op": {
            label_repr.partition("=")[2]: summary
            for label_repr, summary in sorted(latency.items())
        },
    }


class ServeMetrics:
    """All counters and histograms of one server instance."""

    def __init__(self):
        self._lock = threading.Lock()
        self.registry = MetricsRegistry()
        self.queue_depth = 0
        self.queue_depth_peak = 0
        self.telemetry_samples: Dict[str, Dict[str, float]] = {}

    # -- recording ---------------------------------------------------------------

    def record_request(self, op: str, latency_s: float) -> None:
        """Count one completed request and its service latency."""
        for registry in (self.registry, get_registry()):
            registry.count("serve.requests", op=op)
            registry.observe("serve.latency", latency_s, op=op)

    def record_error(self, kind: str) -> None:
        """Count one failed request by its typed error kind."""
        for registry in (self.registry, get_registry()):
            registry.count("serve.errors", kind=kind)

    def record_shed(self, reason: str) -> None:
        """Count one admission-control shed by reason."""
        for registry in (self.registry, get_registry()):
            registry.count("serve.sheds", reason=reason)

    def record_queue_depth(self, depth: int) -> None:
        """Track the in-flight gauge (and its high-water mark)."""
        with self._lock:
            self.queue_depth = depth
            self.queue_depth_peak = peak = max(self.queue_depth_peak, depth)
        # Server state, not a total: only the process registry
        # publishes it (``snapshot`` reads the attributes).
        registry = get_registry()
        registry.gauge_set("serve.queue_depth", float(depth))
        registry.gauge_set("serve.queue_depth_peak", float(peak))

    def record_batch(self, size: int) -> None:
        """Count one coalesced exploration batch of ``size`` requests."""
        for registry in (self.registry, get_registry()):
            registry.count("serve.batches")
            registry.count("serve.batched_requests", n=size)

    def record_telemetry(
        self, model: str, predicted_j: float, measured_j: float
    ) -> Dict[str, float]:
        """Fold one field sample into the per-model drift aggregate
        (the server has checked ``predicted_j > 0``)."""
        drift = (measured_j - predicted_j) / predicted_j
        for registry in (self.registry, get_registry()):
            registry.count("serve.telemetry_samples", model=model)
        with self._lock:
            entry = self.telemetry_samples.setdefault(
                model, {"count": 0.0, "drift_sum": 0.0, "abs_drift_max": 0.0}
            )
            entry["count"] += 1
            entry["drift_sum"] += drift
            entry["abs_drift_max"] = max(entry["abs_drift_max"], abs(drift))
            return {
                "samples": int(entry["count"]),
                "mean_drift": entry["drift_sum"] / entry["count"],
                "max_abs_drift": entry["abs_drift_max"],
            }

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe copy of every metric (the ``stats`` payload)."""
        totals = serve_totals(self.registry.snapshot())
        with self._lock:
            return {
                **totals,
                "queue_depth": self.queue_depth,
                "queue_depth_peak": self.queue_depth_peak,
                "telemetry": {
                    model: {
                        "samples": int(entry["count"]),
                        "mean_drift": (
                            entry["drift_sum"] / entry["count"]
                            if entry["count"]
                            else 0.0
                        ),
                        "max_abs_drift": entry["abs_drift_max"],
                    }
                    for model, entry in sorted(
                        self.telemetry_samples.items()
                    )
                },
            }
