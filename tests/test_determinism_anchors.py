"""Literal pins for every determinism anchor without a pin elsewhere.

Each value below was captured before canonical JSON and sha256 moved
into one module, and must never move: a failure here means a digest's
byte format changed, which silently breaks every stored journal,
snapshot and report that carries the old value.  The fleet, scenario,
plan and optimize digests are pinned in
``tests/boards/test_golden_digests.py`` and ``tests/faults/test_chaos.py``.

The re-plan pins (serve ``reprice`` payloads and a scenario with oracle
twins) were captured before the re-plan ladder moved into one owner,
:meth:`repro.pipeline.DAEDVFSPipeline.replan`.
"""

import hashlib
import json
import math

import pytest

from repro.boards import get_spec
from repro.boards.registry import board_names
from repro.cli import main
from repro.errors import QoSInfeasibleError
from repro.faults import ChaosConfig, FaultPlan, run_campaign
from repro.nn import build_tiny_test_model
from repro.obs.audit import DecisionLog, get_audit_log, set_audit_log
from repro.obs.export import trace_digest
from repro.obs.registry import snapshot_digest
from repro.obs.tracing import SpanRecord
from repro.recovery.journal import encode_record
from repro.scenario import ScenarioEngine
from repro.scenario.library import build_preset
from repro.serve.protocol import Response, encode_response
from repro.serve.service import PlanService
from repro.serve.shared_cache import wire_key

CHAOS_DIGEST = (
    "d1f5d42fdee25d2139f634198200679032ee5a8de1a8b8921c85df4548dcb87b"
)
CHAOS_ROWS_DIGEST = (
    "01e99cab7a61e4a96383595600bafa7383cbc41ea1fa4806affa58ea0af3f24a"
)
BOARD_DIGESTS = {
    "nucleo-f767zi": (
        "12029c88b038ad06fa5176c4d4195e2718d330871ce75ec17787f833ef779cbb"
    ),
    "nucleo-f746zg": (
        "6ed1f3425e1c8f6a385d36ea58142c12b7d9b14e1ffacdf80e6b9625b0a1ace3"
    ),
    "frdm-mcxn947": (
        "7050aef4da027960773d70036f18c4202ca6bc219c3319170898a4612e15fee2"
    ),
    "nucleo-n657x0": (
        "aa63618b5da2419e5ef09e2a48f5297e66fa5b123adbac0b5661adb09e48b90a"
    ),
}
CROSSBOARD_TINY_30 = (
    "c26d7590e7607bc8a19bbe497d382a3b8af0e22ceb05a85582cf09cc92047ecb"
)
SNAPSHOT_DIGEST = (
    "efa1787a5f8f4bb0fea0e575ceca3cfe473ae7532d2ac61f0cd204f379246973"
)
TRACE_DIGEST = (
    "c13015fb3b46a7314475ab24bbf766db7a1d28856481aed2e49f53f4a8521522"
)
TRACE_DIGEST_DROPPED_2 = (
    "dc30928fbd04f7543d23c343dc9b370ce653457177c55832338f501211efa0f9"
)
JOURNAL_LINE = (
    '{"data":{"digest":"' + "ab" * 32 + '",'
    '"key":"[\\"tiny\\",[\\"percent\\",\\"30.0\\"]]","qos":0.3},'
    '"kind":"request",'
    '"sha256":"c0e78abb70e1919c289195cd9064098c'
    'b6eba34c15c23d76622a86fe82e59bc3"}'
)
#: sha256 of the (2725-character) wire key, not a digest the code takes.
WIRE_KEY_SHA256 = (
    "04e507091d57397352ba4707c479de3593f6fb9bc0d5ce67a38b7cff706cc23f"
)
RESPONSE_LINE = (
    '{"id":"c1-7","ok":true,"result":{"digest":"ab","energy_j":0.00125,'
    '"plan":{"layers":[1,2]}},"v":1}'
)
PLAN_TINY_30_TRACE = (
    "dc04676a617cb30a914b5f239b4f7edae91d3fafb1744a4c0209faa0c6071727"
)

#: tiny at 30% after a plan, +10 mW: the free re-solve cannot converge,
#: so the reply comes from the uniform single-HFO fallback.
REPRICE_TINY_30_HOT = (
    "eedfc55e674e794e9844991451bf5c4cb4156ed143c64f8893ebd2318c6d3d0d"
)
#: tiny at 30% capped at 108 MHz: no schedule meets the stored budget.
REPRICE_TINY_30_CAP_108_MIN_LATENCY_S = 0.001917149330687831
#: mbv2 at 30% capped at 168 MHz: the free solve under a cap.
REPRICE_MBV2_30_CAP_168 = (
    "d6fbd759930c67ce1aabeec0adb9326525dd8e61190e9ead91284b7d6b55f0cc"
)
#: 13 applied governor replans, 14 twin replans, both error kinds.
BROWNOUT_SUMMER_40 = (
    "414a69c33be75e2632ba8d712373e43c335c2a445b39364c235d39e192a16209"
)


def run_json(capsys, argv):
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestReportDigests:
    def test_chaos_campaign_digests(self):
        plan = FaultPlan(
            seed=7,
            hse_dropout_rate=0.02,
            pll_lock_timeout_rate=0.05,
            sensor_dropout_rate=0.05,
            sensor_stuck_rate=0.02,
            sensor_nack_rate=0.02,
            brownout_rate=0.05,
            watchdog_rate=0.002,
        )
        report = run_campaign(
            build_tiny_test_model(),
            plan,
            ChaosConfig(devices=6, seed=3, epochs=2, max_workers=2),
        )
        assert report.digest() == CHAOS_DIGEST
        assert report.rows_digest() == CHAOS_ROWS_DIGEST

    @pytest.mark.parametrize("name", sorted(BOARD_DIGESTS))
    def test_board_spec_digest(self, name):
        assert get_spec(name).digest() == BOARD_DIGESTS[name]

    def test_every_registry_board_pinned(self):
        assert sorted(board_names()) == sorted(BOARD_DIGESTS)

    def test_crossboard_digest(self, capsys):
        payload = run_json(
            capsys, ["crossboard", "tiny", "--qos-percent", "30"]
        )
        assert payload["digest"] == CROSSBOARD_TINY_30


class TestCompactDigests:
    def test_snapshot_digest_with_inf_bucket(self):
        snapshot = {
            "counters": {"serve.requests": {"op=plan": 3.0}},
            "gauges": {"serve.inflight": {"": 0.5}},
            "histograms": {
                "serve.latency": {
                    "op=plan": {
                        "count": 3,
                        "sum_s": 0.1,
                        "buckets": [
                            {"le": 0.001, "count": 1},
                            {"le": math.inf, "count": 2},
                        ],
                    }
                }
            },
        }
        assert snapshot_digest(snapshot) == SNAPSHOT_DIGEST

    def test_trace_digest_of_fixed_spans(self):
        spans = [
            SpanRecord(
                seq=0, name="serve.request", start_s=0.0,
                thread="MainThread", correlation="c1", end_s=5.0,
                attrs={"model": "tiny", "qos": 0.1, "ok": True},
            ),
            SpanRecord(
                seq=1, name="serve.plan", start_s=1.0,
                thread="worker-1", parent_seq=0, correlation="c1",
                end_s=4.0,
                attrs={
                    "front": [1, 2.5, (3, 0.25)],
                    "labels": {"b": 1e-07, "a": {"x": None}},
                },
            ),
        ]
        assert trace_digest(spans) == TRACE_DIGEST
        assert trace_digest(spans, dropped=2) == TRACE_DIGEST_DROPPED_2

    def test_journal_record_line(self):
        line = encode_record(
            "request",
            {
                "key": '["tiny",["percent","30.0"]]',
                "digest": "ab" * 32,
                "qos": 0.3,
            },
        )
        assert line == JOURNAL_LINE

    def test_wire_key_of_service_cache_key(self):
        service = PlanService()
        key = service.cache_key(
            service.resolve_model("tiny"), ("percent", 30.0)
        )
        wk = wire_key(key)
        assert len(wk) == 2725
        assert hashlib.sha256(wk.encode()).hexdigest() == WIRE_KEY_SHA256

    def test_response_line(self):
        response = Response.success(
            "c1-7",
            {"digest": "ab", "energy_j": 0.00125, "plan": {"layers": [1, 2]}},
        )
        assert encode_response(response) == RESPONSE_LINE

    def test_plan_trace_digest(self, capsys, tmp_path):
        payload = run_json(
            capsys,
            [
                "plan", "tiny", "--qos-percent", "30",
                "--trace", str(tmp_path / "x.jsonl"),
            ],
        )
        assert payload["trace"]["digest"] == PLAN_TINY_30_TRACE


class TestReplanDigests:
    def test_reprice_uniform_fallback_payload(self):
        service = PlanService()
        service.plan("tiny", ("percent", 30.0))
        previous = set_audit_log(DecisionLog())
        try:
            reply = service.reprice(
                "tiny", ("percent", 30.0), extra_power_w=0.01
            )
            counts = get_audit_log().counts()
        finally:
            set_audit_log(previous)
        assert reply["digest"] == REPRICE_TINY_30_HOT
        # The fallback is recorded once, by the replan core itself.
        assert counts["pipeline.replan:uniform_fallback"] == 1
        assert "serve.reprice:uniform_fallback" not in counts

    def test_reprice_infeasible_under_cap(self):
        service = PlanService()
        service.plan("tiny", ("percent", 30.0))
        with pytest.raises(QoSInfeasibleError) as info:
            service.reprice("tiny", ("percent", 30.0), max_hfo_mhz=108)
        assert info.value.min_latency_s == (
            REPRICE_TINY_30_CAP_108_MIN_LATENCY_S
        )

    def test_reprice_cap_below_every_hfo_keeps_budget(self):
        # At 60 MHz no tiny layer keeps an operating point: the reply
        # carries the stored budget and no finite minimum latency, not
        # the class filter's unbudgeted error.
        service = PlanService()
        planned = service.plan("tiny", ("percent", 30.0))
        with pytest.raises(QoSInfeasibleError) as info:
            service.reprice("tiny", ("percent", 30.0), max_hfo_mhz=60)
        assert info.value.qos_s == planned["qos"]["budget_s"] > 0.0
        assert info.value.min_latency_s == math.inf

    def test_reprice_free_solve_under_cap(self):
        reply = PlanService().reprice(
            "mbv2", ("percent", 30.0), max_hfo_mhz=168
        )
        assert reply["digest"] == REPRICE_MBV2_30_CAP_168

    def test_scenario_with_twins_digest(self):
        report = ScenarioEngine(
            build_preset("brownout-summer", devices=40)
        ).run()
        assert report.digest() == BROWNOUT_SUMMER_40
