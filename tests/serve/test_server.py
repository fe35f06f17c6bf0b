"""PlanServer endpoints, overload behavior, TCP transport, drain."""

import asyncio
import json

import pytest

from repro.errors import OverloadedError, QoSInfeasibleError
from repro.serve import (
    InProcessClient,
    PlanServer,
    ServeClient,
    ServeConfig,
)

def run(coro):
    return asyncio.run(coro)


def make_server(**overrides):
    defaults = dict(workers=2, batch_window_s=0.001)
    defaults.update(overrides)
    return PlanServer(ServeConfig(**defaults))


class TestPlanEndpoint:
    def test_plan_and_cache_hit_share_digest(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            first = await client.request(
                "plan", model="tiny", qos_percent=30
            )
            second = await client.request(
                "plan", model="tiny", qos_percent=30
            )
            stats = await client.request("stats")
            await server.stop()
            return first, second, stats

        first, second, stats = run(main())
        assert not first["cached"]
        assert second["cached"]
        assert first["digest"] == second["digest"]
        assert first["plan"]["layers"]
        assert stats["cache"]["hits"] == 1
        assert isinstance(stats["audit_dropped"], int)

    def test_no_cache_param_recomputes(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            first = await client.request(
                "plan", model="tiny", qos_percent=30
            )
            fresh = await client.request(
                "plan", model="tiny", qos_percent=30, no_cache=True
            )
            await server.stop()
            return first, fresh

        first, fresh = run(main())
        assert not fresh["cached"]
        assert fresh["digest"] == first["digest"]

    def test_concurrent_same_key_coalesce(self):
        async def main():
            server = make_server(batch_window_s=0.02)
            client = InProcessClient(server)
            results = await asyncio.gather(
                *(
                    client.request("plan", model="tiny", qos_percent=40)
                    for _ in range(8)
                )
            )
            stats = await client.request("stats")
            await server.stop()
            return results, stats

        results, stats = run(main())
        assert len({r["digest"] for r in results}) == 1
        metrics = stats["metrics"]
        assert metrics["batches"] >= 1
        assert metrics["coalesce_ratio"] > 1.0

    def test_stateless_digest_matches_warm(self):
        async def main():
            warm = make_server()
            cold = make_server(stateless=True)
            warm_result = await InProcessClient(warm).request(
                "plan", model="tiny", qos_percent=30
            )
            cold_result = await InProcessClient(cold).request(
                "plan", model="tiny", qos_percent=30
            )
            await warm.stop()
            await cold.stop()
            return warm_result, cold_result

        warm_result, cold_result = run(main())
        assert warm_result["digest"] == cold_result["digest"]


class TestErrorsAndValidation:
    def test_unknown_model_is_bad_request(self):
        async def main():
            server = make_server()
            response = await server.handle_request_dict(
                {
                    "v": 1,
                    "id": "r1",
                    "op": "plan",
                    "params": {"model": "resnet152", "qos_percent": 30},
                }
            )
            await server.stop()
            return response

        response = run(main())
        assert not response["ok"]
        assert response["error"]["kind"] == "bad_request"

    def test_infeasible_qos_is_typed(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            try:
                with pytest.raises(QoSInfeasibleError) as info:
                    await client.request(
                        "plan", model="tiny", qos_ms=0.001
                    )
                return info.value
            finally:
                await server.stop()

        exc = run(main())
        assert exc.min_latency_s > exc.qos_s

    def test_malformed_line_answers_bad_request(self):
        async def main():
            server = make_server()
            line = await server.handle_line("{not json")
            await server.stop()
            return line

        assert '"bad_request"' in run(main())

    def test_both_qos_forms_rejected(self):
        async def main():
            server = make_server()
            response = await server.handle_request_dict(
                {
                    "v": 1,
                    "id": "r1",
                    "op": "plan",
                    "params": {
                        "model": "tiny",
                        "qos_percent": 30,
                        "qos_ms": 5,
                    },
                }
            )
            await server.stop()
            return response

        assert run(main())["error"]["kind"] == "bad_request"

    @pytest.mark.parametrize(
        "param,value",
        [
            ("extra_power_w", "nan"),
            ("extra_power_w", "inf"),
            ("extra_power_w", "-inf"),
            ("max_hfo_mhz", "nan"),
            ("max_hfo_mhz", "inf"),
        ],
    )
    def test_non_finite_drift_parameters_rejected(self, param, value):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            await client.request("plan", model="tiny", qos_percent=30)
            response = await server.handle_request_dict(
                {
                    "v": 1,
                    "id": "r1",
                    "op": "reprice",
                    "params": {
                        "model": "tiny", "qos_percent": 30, param: value,
                    },
                }
            )
            await server.stop()
            return response

        response = run(main())
        assert not response["ok"]
        assert response["error"]["kind"] == "bad_request"

    @pytest.mark.parametrize(
        "field", ["predicted_energy_j", "measured_energy_j"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_telemetry_rejected(self, field, value):
        async def main():
            server = make_server()
            sample = {
                "model": "tiny",
                "predicted_energy_j": 1.0,
                "measured_energy_j": 1.05,
            }
            rejected = await server.handle_request_dict(
                {
                    "v": 1,
                    "id": "bad",
                    "op": "telemetry",
                    "params": {**sample, field: value},
                }
            )
            accepted = await server.handle_line(
                json.dumps(
                    {"v": 1, "id": "ok", "op": "telemetry", "params": sample}
                )
            )
            await server.stop()
            return rejected, accepted

        rejected, accepted = run(main())
        assert rejected["error"]["kind"] == "bad_request"

        def strict(token):
            raise ValueError(f"non-finite JSON token {token}")

        # The model's drift aggregate holds only the finite sample.
        result = json.loads(accepted, parse_constant=strict)["result"]
        assert result["samples"] == 1
        assert result["mean_drift"] == pytest.approx(0.05)


    def test_telemetry_rejects_unusable_energies(self):
        """A prediction <= 0 has no drift and an energy cannot be
        negative: both are refused, and only the usable sample moves
        the model's drift aggregate (which once read 0.167 here)."""

        async def main():
            server = make_server()
            responses = [
                await server.handle_request_dict(
                    {
                        "v": 1,
                        "id": f"t{i}",
                        "op": "telemetry",
                        "params": {
                            "model": "tiny",
                            "predicted_energy_j": predicted,
                            "measured_energy_j": measured,
                        },
                    }
                )
                for i, (predicted, measured) in enumerate(
                    [(0, 5.0), (-1, 3.0), (1.0, -0.5), (1.0, 1.5)]
                )
            ]
            await server.stop()
            return responses

        *rejected, accepted = run(main())
        assert [r["error"]["kind"] for r in rejected] == ["bad_request"] * 3
        assert accepted["result"]["samples"] == 1
        assert accepted["result"]["mean_drift"] == pytest.approx(0.5)

    def test_telemetry_accepts_zero_measured_energy(self):
        """An invalid-telemetry epoch reports measured 0.0; it stays
        a legal sample (drift -1)."""

        async def main():
            server = make_server()
            response = await InProcessClient(server).request(
                "telemetry",
                model="tiny",
                predicted_energy_j=2.0,
                measured_energy_j=0.0,
            )
            await server.stop()
            return response

        assert run(main())["mean_drift"] == pytest.approx(-1.0)


class TestOtherEndpoints:
    def test_reprice_telemetry_health(self):
        async def main():
            server = make_server()
            client = InProcessClient(server)
            await client.request("plan", model="tiny", qos_percent=30)
            repriced = await client.request(
                "reprice",
                model="tiny",
                qos_percent=30,
                extra_power_w=0.01,
            )
            telemetry = await client.request(
                "telemetry",
                model="tiny",
                predicted_energy_j=1.0,
                measured_energy_j=1.05,
            )
            health = await client.request("health")
            await server.stop()
            return repriced, telemetry, health

        repriced, telemetry, health = run(main())
        assert repriced["drift"]["extra_power_w"] == pytest.approx(0.01)
        assert telemetry["samples"] == 1
        assert health["ok"]
        assert len(health["checks"]) == 3  # the quick selftest subset


class TestOverload:
    def test_burst_sheds_deterministically(self):
        async def burst():
            server = make_server(max_queue_depth=2)
            client = InProcessClient(server)
            results = await asyncio.gather(
                *(
                    client.request("plan", model="tiny", qos_percent=30)
                    for _ in range(8)
                ),
                return_exceptions=True,
            )
            stats = await client.request("stats")
            await server.stop()
            sheds = sum(
                1 for r in results if isinstance(r, OverloadedError)
            )
            return sheds, stats["metrics"]["sheds_by_reason"]

        sheds_a, reasons_a = run(burst())
        sheds_b, reasons_b = run(burst())
        assert sheds_a == sheds_b == 6
        assert reasons_a == reasons_b == {"queue_full": 6}

    def test_draining_server_sheds(self):
        async def main():
            server = make_server()
            server._draining = True
            response = await server.handle_request_dict(
                {
                    "v": 1,
                    "id": "r1",
                    "op": "plan",
                    "params": {"model": "tiny", "qos_percent": 30},
                }
            )
            server._draining = False
            await server.stop()
            return response

        response = run(main())
        assert not response["ok"]
        assert response["error"]["kind"] == "overloaded"
        assert response["error"]["detail"]["reason"] == "draining"

    def test_stats_bypasses_admission(self):
        async def main():
            server = make_server(max_queue_depth=1)
            server.admission.admit()  # fill the only slot
            client = InProcessClient(server)
            stats = await client.request("stats")
            server.admission.release()
            await server.stop()
            return stats

        assert run(main())["admission"]["depth"] == 1


class TestTCP:
    def test_tcp_round_trip_and_drain(self):
        async def main():
            server = make_server()
            await server.start()
            client = await ServeClient("127.0.0.1", server.port).connect()
            result = await client.request(
                "plan", model="tiny", qos_percent=30
            )
            health = await client.request("health")
            await client.close()
            await server.stop()
            return result, health

        result, health = run(main())
        assert result["digest"]
        assert health["ok"]

    def test_tcp_concurrent_clients(self):
        async def main():
            server = make_server(batch_window_s=0.02)
            await server.start()
            clients = [
                await ServeClient(
                    "127.0.0.1", server.port, client_id=f"c{i}"
                ).connect()
                for i in range(3)
            ]
            results = await asyncio.gather(
                *(
                    c.request("plan", model="tiny", qos_percent=50)
                    for c in clients
                )
            )
            for c in clients:
                await c.close()
            await server.stop()
            return results

        results = run(main())
        assert len({r["digest"] for r in results}) == 1

    def test_stop_without_start_is_clean(self):
        async def main():
            server = make_server()
            await server.stop()

        run(main())
