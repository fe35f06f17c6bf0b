"""Decision log: recording, querying, bounded capacity."""

from repro.obs.audit import DecisionLog
from repro.obs.tracing import correlation


class TestDecisionLog:
    def test_record_and_query(self, audit):
        audit.record("serve.cache", "miss", model="tiny")
        audit.record("serve.cache", "hit", model="tiny")
        audit.record("governor.epoch", "replan", drift=0.3)
        assert len(audit) == 3
        hits = audit.query(kind="serve.cache", decision="hit")
        assert len(hits) == 1
        assert hits[0].inputs == {"model": "tiny"}
        assert [r.seq for r in audit.query()] == [0, 1, 2]

    def test_counts(self, audit):
        audit.record("serve.admission", "shed", reason="queue_full")
        audit.record("serve.admission", "shed", reason="rate_limited")
        audit.record("serve.cache", "hit")
        assert audit.counts() == {
            "serve.admission:shed": 2,
            "serve.cache:hit": 1,
        }

    def test_capacity_drops_oldest(self):
        log = DecisionLog(capacity=3)
        for i in range(5):
            log.record("k", "d", i=i)
        assert len(log) == 3
        assert log.dropped == 2
        assert [r.inputs["i"] for r in log.query()] == [2, 3, 4]

    def test_counts_include_dropped_records(self):
        log = DecisionLog(capacity=4)
        for i in range(10):
            log.record("k", "even" if i % 2 == 0 else "odd")
        assert sum(log.counts().values()) == 10
        assert log.counts() == {"k:even": 5, "k:odd": 5}
        assert log.dropped == 6

    def test_correlation_captured(self, audit):
        with correlation("req-3"):
            audit.record("serve.cache", "miss")
        audit.record("serve.cache", "miss")
        by_corr = audit.query(correlation="req-3")
        assert len(by_corr) == 1
        assert audit.query()[1].correlation is None

    def test_to_dicts_json_shape(self, audit):
        audit.record("fleet.scheduler", "quarantine", device_id=7)
        (entry,) = audit.to_dicts(kind="fleet.scheduler")
        assert entry == {
            "seq": 0,
            "kind": "fleet.scheduler",
            "decision": "quarantine",
            "correlation": None,
            "inputs": {"device_id": 7},
        }

    def test_clear(self, audit):
        audit.record("k", "d")
        audit.clear()
        assert len(audit) == 0
        assert audit.counts() == {}
        audit.record("k", "d")
        assert audit.query()[0].seq == 0
