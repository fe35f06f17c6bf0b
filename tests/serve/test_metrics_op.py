"""The ``metrics`` protocol op: per-worker registries and the merged
fleet view.

The class spawning real worker processes uses a single router scenario
to keep spawn cost down; the acceptance pin lives in
``test_merged_registry_is_the_exact_sum_of_worker_registries``.
"""

import asyncio

import pytest

from repro.errors import ProtocolError
from repro.obs.prom import lint_exposition
from repro.obs.registry import get_registry, snapshot_digest
from repro.serve.client import InProcessClient
from repro.serve.metrics import serve_totals
from repro.serve.router import RouterConfig, ShardRouter
from repro.serve.server import PlanServer, ServeConfig

MIXED = [
    ("tiny", 30.0),
    ("tiny", 50.0),
    ("tiny", 30.0),
    ("tiny", 10.0),
    ("tiny", 50.0),
]


def run(coro):
    return asyncio.run(coro)


def counter_cells(snapshot):
    """Flatten a snapshot's counters to {(family, label): value}."""
    return {
        (family, label): value
        for family, cells in snapshot.get("counters", {}).items()
        for label, value in cells.items()
    }


def bucket_cells(snapshot):
    """Flatten histogram buckets to {(family, label, le): count}."""
    return {
        (family, label, bucket["le"]): bucket["count"]
        for family, cells in snapshot.get("histograms", {}).items()
        for label, summary in cells.items()
        for bucket in summary["buckets"]
    }


class TestServerMetricsOp:
    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        """The in-process server publishes into the process-wide
        registry; isolate it from residue left by earlier tests."""
        from repro.obs.registry import MetricsRegistry, set_registry

        original = set_registry(MetricsRegistry())
        yield
        set_registry(original)

    def test_payload_has_registry_and_matching_digest(self):
        async def scenario():
            server = PlanServer(
                ServeConfig(batch_window_s=0.001, worker_id=7)
            )
            client = InProcessClient(server, client_id="m")
            try:
                await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                return await client.request("metrics")
            finally:
                await server.stop()

        payload = run(scenario())
        assert payload["worker_id"] == 7
        registry = payload["registry"]
        assert registry["counters"]["serve.requests"]["op=plan"] == 1
        assert payload["digest"] == snapshot_digest(registry)
        assert "exposition" not in payload  # json is the default

    def test_prom_format_adds_lint_clean_exposition(self):
        async def scenario():
            server = PlanServer(ServeConfig(batch_window_s=0.001))
            client = InProcessClient(server, client_id="m")
            try:
                await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                return await client.request(
                    "metrics", format="prom"
                )
            finally:
                await server.stop()

        payload = run(scenario())
        assert payload["exposition"].startswith("# HELP ")
        assert lint_exposition(payload["exposition"]) == []

    def test_bad_format_raises_protocol_error(self):
        async def scenario():
            server = PlanServer(ServeConfig(batch_window_s=0.001))
            client = InProcessClient(server, client_id="m")
            try:
                await client.request("metrics", format="xml")
            finally:
                await server.stop()

        with pytest.raises(ProtocolError):
            run(scenario())

    def test_each_server_counts_only_its_own_requests(self):
        """Two servers in one process: per-server ``metrics`` blocks,
        their sum in the process registry, one derivation for both."""

        async def scenario():
            first = PlanServer(ServeConfig(batch_window_s=0.001))
            second = PlanServer(ServeConfig(batch_window_s=0.001))
            try:
                client = InProcessClient(first, client_id="a")
                await client.request("plan", model="tiny", qos_percent=30.0)
                await client.request("plan", model="tiny", qos_percent=30.0)
                await client.request(
                    "telemetry",
                    model="tiny",
                    predicted_energy_j=1.0,
                    measured_energy_j=1.1,
                )
                await InProcessClient(second, client_id="b").request(
                    "plan", model="tiny", qos_percent=50.0
                )
                await second.handle_request_dict(
                    {
                        "v": 1,
                        "id": "bad",
                        "op": "plan",
                        "params": {"model": "resnet152", "qos_percent": 30},
                    }
                )
                return first, first.stats(), second.stats()
            finally:
                await first.stop()
                await second.stop()

        first, a, b = run(scenario())
        a, b = a["metrics"], b["metrics"]
        assert a["requests_by_op"] == {"plan": 2, "telemetry": 1}
        assert a["errors_by_kind"] == {}
        assert b["requests_by_op"] == {"plan": 1}
        assert b["errors_by_kind"] == {"bad_request": 1}
        assert a["latency_by_op"]["plan"]["count"] == 2
        assert b["latency_by_op"]["plan"]["count"] == 1

        # The process registry holds the sum of both servers.
        process = serve_totals(get_registry().snapshot())
        for key in (
            "requests_total", "shed_count", "batches", "batched_requests",
        ):
            assert process[key] == a[key] + b[key]
        assert process["requests_by_op"] == {"plan": 3, "telemetry": 1}
        assert process["errors_by_kind"] == {"bad_request": 1}
        assert process["latency_by_op"]["plan"]["count"] == 3

        # A server's block is serve_totals of its own registry plus
        # the server-only fields.
        totals = serve_totals(first.metrics.registry.snapshot())
        assert {key: a[key] for key in totals} == totals
        assert set(a) - set(totals) == {
            "queue_depth", "queue_depth_peak", "telemetry",
        }


class TestRouterMetricsOp:
    """One spawned 2-worker router exercises the whole fleet view."""

    def test_merged_registry_is_the_exact_sum_of_worker_registries(
        self,
    ):
        async def scenario():
            router = ShardRouter(
                RouterConfig(
                    shards=2,
                    serve=ServeConfig(batch_window_s=0.001),
                )
            )
            await router.start()
            try:
                client = InProcessClient(router, client_id="t")
                await asyncio.gather(
                    *(
                        client.request(
                            "plan", model=model, qos_percent=qos
                        )
                        for model, qos in MIXED
                    )
                )
                metrics = await client.request("metrics")
                prom = await client.request(
                    "metrics", format="prom"
                )
                stats = await router.stats()
                return metrics, prom, stats
            finally:
                await router.stop()

        metrics, prom, stats = run(scenario())

        # The fleet payload: merged view, no single worker identity,
        # per-worker digests for auditability.
        assert metrics["worker_id"] is None
        assert set(metrics["workers"]) == {"0", "1"}
        assert metrics["digest"] == snapshot_digest(
            metrics["registry"]
        )
        assert (
            metrics["registry"]["counters"]["serve.requests"][
                "op=plan"
            ]
            >= len(MIXED)
        )

        # THE ACCEPTANCE PIN: every merged counter cell and every
        # histogram bucket equals the exact sum over the per-worker
        # registries returned in the same stats response -- nothing
        # lost, nothing invented, no float drift.
        worker_snaps = [
            w["registry"] for w in stats["workers"].values()
        ]
        assert len(worker_snaps) == 2
        merged_counters = counter_cells(stats["registry"])
        assert merged_counters  # the burst produced traffic
        summed: dict = {}
        for snap in worker_snaps:
            for cell, value in counter_cells(snap).items():
                summed[cell] = summed.get(cell, 0.0) + value
        assert merged_counters == summed

        merged_buckets = bucket_cells(stats["registry"])
        expected_buckets: dict = {}
        for snap in worker_snaps:
            for cell, count in bucket_cells(snap).items():
                expected_buckets[cell] = (
                    expected_buckets.get(cell, 0) + count
                )
        assert merged_buckets == expected_buckets

        # Histogram totals stay exact too, not just the buckets.
        for family, cells in stats["registry"][
            "histograms"
        ].items():
            for label, summary in cells.items():
                per_worker = [
                    snap["histograms"].get(family, {}).get(label)
                    for snap in worker_snaps
                ]
                per_worker = [s for s in per_worker if s]
                assert summary["count"] == sum(
                    s["count"] for s in per_worker
                )
                assert summary["sum_s"] == sum(
                    s["sum_s"] for s in per_worker
                )

        # Legacy totals are derived from the same merged registry.
        assert stats["metrics"]["requests_total"] == sum(
            cells.get("op=plan", 0)
            + cells.get("op=stats", 0)
            + cells.get("op=metrics", 0)
            + cells.get("op=health", 0)
            + cells.get("op=reprice", 0)
            + cells.get("op=telemetry", 0)
            for cells in [
                stats["registry"]["counters"]["serve.requests"]
            ]
        )

        # And the fleet exposition is valid Prometheus text.
        assert lint_exposition(prom["exposition"]) == []
