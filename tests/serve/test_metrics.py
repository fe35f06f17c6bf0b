"""Serve metrics: histograms, counters, telemetry aggregation."""

import pytest

from repro.obs.registry import LatencyHistogram
from repro.serve.metrics import ServeMetrics


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.percentile_s(50) == 0.0
        assert histogram.to_dict()["count"] == 0

    def test_percentiles_bracket_observations(self):
        histogram = LatencyHistogram()
        for _ in range(90):
            histogram.record(0.001)
        for _ in range(10):
            histogram.record(0.1)
        p50 = histogram.percentile_s(50)
        p99 = histogram.percentile_s(99)
        # Bucket upper bounds: within one bucket ratio of the truth.
        assert 0.001 <= p50 <= 0.00134
        assert 0.1 <= p99 <= 0.134
        assert p50 < p99

    def test_summary_stats(self):
        histogram = LatencyHistogram()
        histogram.record(0.002)
        histogram.record(0.004)
        data = histogram.to_dict()
        assert data["count"] == 2
        assert data["mean_s"] == pytest.approx(0.003)
        assert data["min_s"] == pytest.approx(0.002)
        assert data["max_s"] == pytest.approx(0.004)

    def test_out_of_range_observation(self):
        histogram = LatencyHistogram()
        histogram.record(1e9)  # beyond the last bound
        assert histogram.percentile_s(99) == pytest.approx(1e9)


class TestServeMetrics:
    def test_request_and_error_counters(self):
        metrics = ServeMetrics()
        metrics.record_request("plan", 0.01)
        metrics.record_request("plan", 0.02)
        metrics.record_request("stats", 0.001)
        metrics.record_error("qos_infeasible")
        snapshot = metrics.snapshot()
        assert snapshot["requests_total"] == 3
        assert snapshot["requests_by_op"]["plan"] == 2
        assert snapshot["errors_by_kind"]["qos_infeasible"] == 1
        assert snapshot["latency_by_op"]["plan"]["count"] == 2

    def test_shed_counters(self):
        metrics = ServeMetrics()
        metrics.record_shed("queue_full")
        metrics.record_shed("queue_full")
        metrics.record_shed("rate_limited")
        assert metrics.snapshot()["shed_count"] == 3
        assert metrics.snapshot()["sheds_by_reason"]["queue_full"] == 2

    def test_queue_depth_peak(self):
        metrics = ServeMetrics()
        metrics.record_queue_depth(3)
        metrics.record_queue_depth(1)
        snapshot = metrics.snapshot()
        assert snapshot["queue_depth"] == 1
        assert snapshot["queue_depth_peak"] == 3

    def test_coalesce_ratio(self):
        metrics = ServeMetrics()
        metrics.record_batch(8)
        metrics.record_batch(2)
        assert metrics.snapshot()["coalesce_ratio"] == pytest.approx(5.0)

    def test_telemetry_drift(self):
        metrics = ServeMetrics()
        metrics.record_telemetry("tiny", predicted_j=1.0, measured_j=1.1)
        aggregate = metrics.record_telemetry(
            "tiny", predicted_j=1.0, measured_j=0.9
        )
        assert aggregate["samples"] == 2
        assert aggregate["mean_drift"] == pytest.approx(0.0, abs=1e-12)
        assert aggregate["max_abs_drift"] == pytest.approx(0.1)
