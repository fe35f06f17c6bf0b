"""Shard router: ring stability, routing, churn, cross-process digests.

The end-to-end classes spawn real worker processes; they reuse one
router per class scope to keep the spawn count (and wall time) down.
"""

import asyncio

import pytest

from repro.errors import OverloadedError, ReproError
from repro.faults import FaultKind, FaultPlan
from repro.serve import LoadGenConfig, run_loadgen
from repro.serve.client import InProcessClient
from repro.serve.router import (
    HashRing,
    RouterConfig,
    ShardRouter,
    shard_key,
)
from repro.serve.server import PlanServer, ServeConfig


def run(coro):
    return asyncio.run(coro)


def keys(n: int = 200):
    return [f"key-{i}" for i in range(n)]


class TestHashRing:
    def test_route_is_deterministic(self):
        ring_a, ring_b = HashRing(), HashRing()
        for node in (0, 1, 2):
            ring_a.add(node)
            ring_b.add(node)
        assert [ring_a.route(k) for k in keys()] == [
            ring_b.route(k) for k in keys()
        ]

    def test_every_node_owns_keys(self):
        ring = HashRing()
        for node in (0, 1, 2, 3):
            ring.add(node)
        owners = {ring.route(k) for k in keys(500)}
        assert owners == {0, 1, 2, 3}

    def test_remove_only_remaps_removed_nodes_keys(self):
        """The churn property: survivors keep their keys exactly."""
        ring = HashRing()
        for node in (0, 1, 2):
            ring.add(node)
        before = {k: ring.route(k) for k in keys(500)}
        ring.remove(1)
        for key, owner in before.items():
            if owner != 1:
                assert ring.route(key) == owner
            else:
                assert ring.route(key) in (0, 2)

    def test_readding_restores_ownership(self):
        ring = HashRing()
        for node in (0, 1, 2):
            ring.add(node)
        before = {k: ring.route(k) for k in keys(500)}
        ring.remove(1)
        ring.add(1)
        assert {k: ring.route(k) for k in keys(500)} == before

    def test_add_is_idempotent(self):
        ring = HashRing()
        ring.add(0)
        points = list(ring._points)
        ring.add(0)
        assert ring._points == points

    def test_empty_ring_raises(self):
        with pytest.raises(ReproError):
            HashRing().route("anything")

    def test_validation(self):
        with pytest.raises(ReproError):
            HashRing(replicas=0)


class TestShardKey:
    def test_same_identity_same_key(self):
        assert shard_key(
            {"model": "tiny", "qos_percent": 30.0}
        ) == shard_key({"model": "tiny", "qos_percent": 30.0})

    def test_qos_separates(self):
        assert shard_key(
            {"model": "tiny", "qos_percent": 30.0}
        ) != shard_key({"model": "tiny", "qos_percent": 50.0})

    def test_model_separates(self):
        assert shard_key(
            {"model": "tiny", "qos_percent": 30.0}
        ) != shard_key({"model": "mbv2", "qos_percent": 30.0})

    def test_drift_params_do_not_separate(self):
        """Reprice co-locates with the plan that warmed its fronts."""
        assert shard_key(
            {"model": "tiny", "qos_percent": 30.0}
        ) == shard_key(
            {
                "model": "tiny",
                "qos_percent": 30.0,
                "extra_power_w": 0.01,
                "max_hfo_mhz": 100.0,
            }
        )


class TestRouterConfig:
    def test_validation(self):
        with pytest.raises(ReproError):
            RouterConfig(shards=0)


def make_router(**overrides) -> ShardRouter:
    overrides.setdefault("shards", 2)
    overrides.setdefault(
        "serve", ServeConfig(batch_window_s=0.001)
    )
    return ShardRouter(RouterConfig(**overrides))


MIXED = [
    ("tiny", 30.0),
    ("tiny", 50.0),
    ("tiny", 30.0),
    ("tiny", 10.0),
    ("tiny", 50.0),
]


class TestRouterEndToEnd:
    def test_mixed_burst_digests_match_single_process(self):
        async def scenario():
            router = make_router()
            await router.start()
            try:
                client = InProcessClient(router, client_id="t")
                routed = await asyncio.gather(
                    *(
                        client.request(
                            "plan", model=model, qos_percent=qos
                        )
                        for model, qos in MIXED
                    )
                )
                # Same burst against one single-process server.
                server = PlanServer(ServeConfig(batch_window_s=0.001))
                local_client = InProcessClient(server, client_id="l")
                local = await asyncio.gather(
                    *(
                        local_client.request(
                            "plan", model=model, qos_percent=qos
                        )
                        for model, qos in MIXED
                    )
                )
                await server.stop()

                stats = await router.stats()
                health = await client.request("health")
                return routed, local, stats, health
            finally:
                await router.stop()

        routed, local, stats, health = run(scenario())
        assert [r["digest"] for r in routed] == [
            l["digest"] for l in local
        ]
        # Both shards took traffic (the mixed keys spread).
        assert stats["router"]["live_workers"] == 2
        assert isinstance(stats["audit_dropped"], int)
        assert sum(stats["router"]["routed"].values()) >= len(MIXED)
        # Merged metrics equal the sum of the per-worker views.
        per_worker = sum(
            w["metrics"]["requests_total"]
            for w in stats["workers"].values()
        )
        assert stats["metrics"]["requests_total"] == per_worker
        latency = stats["metrics"]["latency_by_op"]
        assert latency["plan"]["count"] >= len(MIXED)
        for op, summary in latency.items():
            assert summary["count"] == sum(
                w["metrics"]["latency_by_op"].get(op, {"count": 0})["count"]
                for w in stats["workers"].values()
            )
        assert health["ok"] is True
        assert set(health["workers"]) == {"0", "1"}

    def test_same_key_same_shard_and_shared_cache_publishes(self):
        async def scenario():
            router = make_router()
            await router.start()
            try:
                client = InProcessClient(router, client_id="t")
                first = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                second = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                stats = await router.stats()
                return first, second, stats
            finally:
                await router.stop()

        first, second, stats = run(scenario())
        assert second["cached"] is True
        assert second["digest"] == first["digest"]
        shared = stats["router"]["shared_cache"]
        assert shared["publishes"] >= 1
        # Same key twice: exactly one shard saw both requests.
        assert sorted(stats["router"]["routed"].values()) in (
            [2],
            [0, 2],
        )


class TestRouterChurn:
    def test_killed_worker_is_respawned_with_same_ownership(self):
        async def scenario():
            router = make_router(max_respawns=2, health_timeout_s=30.0)
            await router.start()
            try:
                client = InProcessClient(router, client_id="t")
                before = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                owner = max(
                    router.routed, key=lambda w: router.routed[w]
                )
                router._workers[owner].process.kill()
                verdicts = await router.check_workers()
                after = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                stats = await router.stats()
                return before, owner, verdicts, after, stats
            finally:
                await router.stop()

        before, owner, verdicts, after, stats = run(scenario())
        assert verdicts == {0: True, 1: True}  # respawned, healthy
        assert after["digest"] == before["digest"]
        assert stats["router"]["respawns"] == {str(owner): 1}
        assert stats["router"]["live_workers"] == 2

    def test_exhausted_budget_evicts_and_ring_redistributes(self):
        async def scenario():
            router = make_router(max_respawns=0, health_timeout_s=30.0)
            await router.start()
            try:
                client = InProcessClient(router, client_id="t")
                await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                victim = max(
                    router.routed, key=lambda w: router.routed[w]
                )
                router._workers[victim].process.kill()
                verdicts = await router.check_workers()
                # The victim's keys remap to the survivor.
                rerouted = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                health = await client.request("health")
                stats = await router.stats()
                return victim, verdicts, rerouted, health, stats
            finally:
                await router.stop()

        victim, verdicts, rerouted, health, stats = run(scenario())
        survivor = 1 - victim
        assert verdicts[victim] is False
        assert verdicts[survivor] is True
        assert rerouted["digest"]  # still answered
        assert health["ok"] is False  # fleet degraded
        assert stats["router"]["evicted_workers"] == [victim]
        assert stats["router"]["live_workers"] == 1


class TestRouterStop:
    def test_stop_reaps_every_worker_process(self):
        """No zombie children after stop: every spawned process is
        joined and the bookkeeping slot cleared."""

        async def scenario():
            router = make_router()
            await router.start()
            procs = [w.process for w in router._workers.values()]
            assert all(p.is_alive() for p in procs)
            await router.stop()
            return procs, [w.process for w in router._workers.values()]

        procs, after = run(scenario())
        assert len(procs) == 2
        for process in procs:
            assert not process.is_alive()
            assert process.exitcode is not None  # joined, not zombied
        assert after == [None, None]

    def test_stop_reaps_a_worker_that_died_mid_flight(self):
        """A worker SIGKILLed before stop cannot drain; stop must
        still join it rather than hang or leak."""

        async def scenario():
            router = make_router()
            await router.start()
            procs = [w.process for w in router._workers.values()]
            procs[0].kill()
            await router.stop()
            return procs

        for process in run(scenario()):
            assert not process.is_alive()
            assert process.exitcode is not None


class TestRouterFailover:
    def test_dead_shard_fails_over_on_the_request_path(self):
        """No manual ``check_workers()``: the request that hits the
        dead shard runs the health pass and retry itself."""

        async def scenario():
            router = make_router(max_respawns=2, health_timeout_s=30.0)
            await router.start()
            try:
                client = InProcessClient(router, client_id="t")
                before = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                owner = max(
                    router.routed, key=lambda w: router.routed[w]
                )
                process = router._workers[owner].process
                process.kill()
                process.join(5)
                after = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                stats = await router.stats()
                return owner, before, after, stats
            finally:
                await router.stop()

        owner, before, after, stats = run(scenario())
        assert after["digest"] == before["digest"]
        failovers = stats["router"]["failovers"]
        assert failovers["triggered"] >= 1
        assert failovers["retried_ok"] >= 1
        assert stats["router"]["respawns"] == {str(owner): 1}
        assert stats["router"]["live_workers"] == 2

    def test_degraded_ladder_shared_cache_then_uniform_fallback(self):
        """Every worker gone: a known request identity serves the
        digest-verified shared-cache hit; an unknown one gets the
        explicit uniform-fallback payload, never an error."""

        async def scenario():
            router = make_router(
                shards=1, max_respawns=0, health_timeout_s=30.0
            )
            await router.start()
            try:
                client = InProcessClient(router, client_id="t")
                warm = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                process = router._workers[0].process
                process.kill()
                process.join(5)
                degraded = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                fallback = await client.request(
                    "plan", model="tiny", qos_percent=50.0
                )
                stats = await router.stats()
                return warm, degraded, fallback, stats
            finally:
                await router.stop()

        warm, degraded, fallback, stats = run(scenario())
        assert degraded["degraded"] == "shared-cache"
        assert degraded["cached"] is True
        assert degraded["digest"] == warm["digest"]
        assert fallback["degraded"] == "uniform-fallback"
        assert fallback["policy"] == "hold-uniform-baseline"
        assert fallback["model"] == "tiny"
        failovers = stats["router"]["failovers"]
        assert failovers["degraded_shared_cache"] >= 1
        assert failovers["degraded_uniform_fallback"] >= 1
        assert stats["router"]["evicted_workers"] == [0]

    def test_non_plan_ops_do_not_degrade_silently(self):
        """The degraded ladder is for plan/reprice only: telemetry
        against a dead fleet surfaces a typed error."""

        async def scenario():
            router = make_router(
                shards=1, max_respawns=0, health_timeout_s=30.0
            )
            await router.start()
            try:
                client = InProcessClient(router, client_id="t")
                await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                process = router._workers[0].process
                process.kill()
                process.join(5)
                with pytest.raises((ReproError, OverloadedError)):
                    await client.request(
                        "telemetry", model="tiny", qos_percent=30.0
                    )
            finally:
                await router.stop()

        run(scenario())

    def test_scheduled_worker_kill_is_transparent_to_the_client(self):
        """The chaos hook: a pinned WORKER_KILL SIGKILLs the owner on
        the first plan opportunity; the failover ladder still answers
        with the canonical digest."""

        async def scenario():
            router = make_router(
                max_respawns=2,
                health_timeout_s=30.0,
                fault_plan=FaultPlan(
                    seed=11,
                    scheduled=((FaultKind.WORKER_KILL, 0),),
                ),
            )
            await router.start()
            try:
                client = InProcessClient(router, client_id="t")
                killed = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                clean = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                stats = await router.stats()
                return killed, clean, stats
            finally:
                await router.stop()

        killed, clean, stats = run(scenario())
        assert killed["digest"] == clean["digest"]
        failovers = stats["router"]["failovers"]
        assert failovers["chaos_kills"] == 1
        assert failovers["triggered"] >= 1


class TestRouterJournal:
    def test_journal_replays_into_a_restarted_router(self, tmp_path):
        """Crash-restart warmth: a second router over the same journal
        rebuilds the shared tier and serves the first router's plan
        bytes without a cold solve."""

        path = str(tmp_path / "serve.journal")

        async def first():
            router = make_router(journal_path=path)
            await router.start()
            try:
                client = InProcessClient(router, client_id="t")
                return await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
            finally:
                await router.stop()

        async def second():
            router = make_router(journal_path=path)
            await router.start()
            try:
                client = InProcessClient(router, client_id="t")
                result = await client.request(
                    "plan", model="tiny", qos_percent=30.0
                )
                stats = await router.stats()
                return result, stats
            finally:
                await router.stop()

        cold = run(first())
        assert cold.get("cached") is False
        warm, stats = run(second())
        assert warm["cached"] is True
        assert warm["digest"] == cold["digest"]
        journal = stats["router"]["journal"]
        assert journal["path"] == path
        assert journal["replay"]["replayed"] >= 1
        assert journal["replay"]["requests"] >= 1
        # The warm hit came from the rebuilt tier, not a re-solve.
        assert stats["router"]["shared_cache"]["replayed"] >= 1
        assert stats["router"]["shared_cache"]["misses"] == 0


class TestShardedLoadgen:
    def test_per_shard_sheds_reproduce_and_digests_match(self):
        """The sharded acceptance gates, driven end to end."""

        def one_run():
            summary = run_loadgen(
                LoadGenConfig(
                    requests=12,
                    qos_percents=(10.0, 30.0, 50.0),
                    burst=True,
                    seed=3,
                    serve=ServeConfig(
                        batch_window_s=0.001,
                        max_queue_depth=2,
                        rate_per_s=2.0,
                        burst=1.0,
                        admission_tick_s=0.05,
                    ),
                    shards=2,
                )
            )
            per_shard = {
                wid: (
                    worker["metrics"]["sheds_by_reason"],
                    worker["metrics"]["requests_total"],
                )
                for wid, worker in summary["server"]["workers"].items()
            }
            return summary, per_shard

        first, first_shards = one_run()
        second, second_shards = one_run()
        assert first["shards"] == 2
        assert first["ok"] + first["sheds"] == 12
        assert first["sheds"] > 0
        # Per-shard shed counts are a pure function of the seed.
        assert first_shards == second_shards
        assert first["sheds"] == second["sheds"]
        # Every served plan digested identically to a cold solve.
        assert first["digest_checks"] > 0
        assert first["cache_consistent"]
