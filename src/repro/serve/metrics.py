"""Serve-layer observability: latency histograms and counters.

The ``stats`` endpoint answers straight from a
:class:`ServeMetrics` snapshot: per-endpoint latency percentiles
(p50/p95/p99 out of log-spaced histogram buckets plus the exact
per-bucket counts), queue depth (current and peak), shed counts by
reason, batch coalescing ratios and the plan cache's
hit/miss/eviction counters.

:class:`ServeMetrics` keeps its histograms as
:class:`~repro.obs.registry.LatencyHistogram` and mirrors its counters
into the process-wide registry, so the serve numbers appear alongside
pipeline/fleet metrics in one
:meth:`~repro.obs.registry.MetricsRegistry.snapshot`.

Everything is lock-protected and cheap to record -- one bisect and a
few integer adds per request -- so metrics never become the reason the
event loop stalls.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

from ..obs.registry import LatencyHistogram, get_registry


class ServeMetrics:
    """All counters and histograms of one server instance."""

    def __init__(self):
        self._lock = threading.Lock()
        self._latency: Dict[str, LatencyHistogram] = {}
        self._requests: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._sheds: Dict[str, int] = {}
        self.queue_depth = 0
        self.queue_depth_peak = 0
        self.batches = 0
        self.batched_requests = 0
        self.telemetry_samples: Dict[str, Dict[str, float]] = {}

    # -- recording ---------------------------------------------------------------

    def record_request(self, op: str, latency_s: float) -> None:
        """Count one completed request and its service latency."""
        with self._lock:
            self._requests[op] = self._requests.get(op, 0) + 1
            histogram = self._latency.get(op)
            if histogram is None:
                histogram = self._latency.setdefault(op, LatencyHistogram())
            histogram.record(latency_s)
        registry = get_registry()
        registry.count("serve.requests", op=op)
        registry.observe("serve.latency", latency_s, op=op)

    def record_error(self, kind: str) -> None:
        """Count one failed request by its typed error kind."""
        with self._lock:
            self._errors[kind] = self._errors.get(kind, 0) + 1
        get_registry().count("serve.errors", kind=kind)

    def record_shed(self, reason: str) -> None:
        """Count one admission-control shed by reason."""
        with self._lock:
            self._sheds[reason] = self._sheds.get(reason, 0) + 1
        get_registry().count("serve.sheds", reason=reason)

    def record_queue_depth(self, depth: int) -> None:
        """Track the in-flight gauge (and its high-water mark)."""
        with self._lock:
            self.queue_depth = depth
            self.queue_depth_peak = max(self.queue_depth_peak, depth)
        registry = get_registry()
        registry.gauge_set("serve.queue_depth", float(depth))
        registry.gauge_set(
            "serve.queue_depth_peak", float(self.queue_depth_peak)
        )

    def record_batch(self, size: int) -> None:
        """Count one coalesced exploration batch of ``size`` requests."""
        with self._lock:
            self.batches += 1
            self.batched_requests += size
        registry = get_registry()
        registry.count("serve.batches")
        registry.count("serve.batched_requests", n=size)

    def record_telemetry(
        self, model: str, predicted_j: float, measured_j: float
    ) -> Dict[str, float]:
        """Fold one field sample into the per-model drift aggregate."""
        drift = 0.0
        if predicted_j > 0:
            drift = (measured_j - predicted_j) / predicted_j
        get_registry().count("serve.telemetry_samples", model=model)
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

    @property
    def shed_count(self) -> int:
        """Total sheds across all reasons."""
        with self._lock:
            return sum(self._sheds.values())

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe copy of every metric (the ``stats`` payload)."""
        with self._lock:
            requests_total = sum(self._requests.values())
            batched = self.batched_requests
            return {
                "requests_total": requests_total,
                "requests_by_op": dict(self._requests),
                "errors_by_kind": dict(self._errors),
                "sheds_by_reason": dict(self._sheds),
                "shed_count": sum(self._sheds.values()),
                "queue_depth": self.queue_depth,
                "queue_depth_peak": self.queue_depth_peak,
                "batches": self.batches,
                "batched_requests": batched,
                "coalesce_ratio": (
                    batched / self.batches if self.batches else 0.0
                ),
                "latency_by_op": {
                    op: histogram.to_dict(include_buckets=True)
                    for op, histogram in sorted(self._latency.items())
                },
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
