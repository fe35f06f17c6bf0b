"""Checkpoint/resume: the resume-at-any-boundary parity invariant.

Every test builds a *fresh* config per run: stochastic arrival models
carry their consumed per-device RNG streams as instance state, so
sharing one config object between the baseline run and the
checkpointed run would diverge the draws (and the digests) for
reasons that have nothing to do with the checkpoint machinery.
"""

import pytest

from repro.errors import ReproError
from repro.recovery import load_checkpoint, save_checkpoint
from repro.scenario import ScenarioEngine, resume_scenario, run_scenario
from repro.scenario.library import (
    brownout_summer,
    churn_heavy,
    flash_crowd,
    smoke,
)

HOUR_S = 3600.0


def small_smoke():
    return smoke(devices=6, horizon_s=1.5 * HOUR_S, seed=4)


def checkpoint_at(config, boundary: int, path: str) -> int:
    """Run ``config`` to the given event boundary, snapshot, abandon.

    Returns the number of events actually dispatched (the run may be
    shorter than the requested boundary).
    """
    engine = ScenarioEngine(config)
    try:
        engine.start()
        while engine.events_processed < boundary and engine.step():
            pass
        save_checkpoint(engine.checkpoint(), str(path))
        return engine.events_processed
    finally:
        engine.close()


class TestResumeParity:
    @pytest.mark.parametrize("boundary", [0, 1, 3, 7])
    def test_smoke_resume_any_boundary_is_byte_identical(
        self, tmp_path, boundary
    ):
        baseline = run_scenario(small_smoke())
        path = tmp_path / "smoke.ckpt"
        reached = checkpoint_at(small_smoke(), boundary, path)
        assert reached == boundary
        resumed = resume_scenario(str(path))
        assert resumed.digest() == baseline.digest()
        assert resumed.to_dict() == baseline.to_dict()

    def test_churn_and_faults_resume_identically(self, tmp_path):
        """Churned fleet + staged fault campaign: the hardest state to
        snapshot (victim RNG, campaign clocks, joined governors)."""

        def config():
            return churn_heavy(devices=5, horizon_s=6 * HOUR_S, seed=1)

        baseline = run_scenario(config())
        path = tmp_path / "churn.ckpt"
        checkpoint_at(config(), 9, path)
        resumed = resume_scenario(str(path))
        assert resumed.digest() == baseline.digest()

    def test_rate_limited_serve_resumes_identically(self, tmp_path):
        """Admission bucket/shed counters cross the boundary intact."""

        def config():
            return flash_crowd(devices=4, horizon_s=3 * HOUR_S, seed=2)

        baseline = run_scenario(config())
        path = tmp_path / "flash.ckpt"
        checkpoint_at(config(), 5, path)
        resumed = resume_scenario(str(path))
        assert resumed.digest() == baseline.digest()

    @pytest.mark.parametrize("boundary", [6, 12])
    def test_brownout_summer_resumes_identically(self, tmp_path, boundary):
        """Oracle twin, heat-wave ambient, brownout-capped and clamped
        plans: boundary 6 falls before the wave, 12 inside it."""

        def config():
            return brownout_summer(devices=6, horizon_s=3 * HOUR_S, seed=0)

        baseline = run_scenario(config())
        assert baseline.oracle is not None
        assert baseline.faults_injected
        path = tmp_path / "brownout.ckpt"
        assert checkpoint_at(config(), boundary, path) == boundary
        resumed = resume_scenario(str(path))
        assert resumed.digest() == baseline.digest()
        assert resumed.to_dict() == baseline.to_dict()

    def test_checkpoint_past_end_resumes_to_same_report(self, tmp_path):
        """A boundary beyond the horizon snapshots the drained run."""
        baseline = run_scenario(small_smoke())
        path = tmp_path / "late.ckpt"
        checkpoint_at(small_smoke(), 10**9, path)
        resumed = resume_scenario(str(path))
        assert resumed.digest() == baseline.digest()


class TestCheckpointRestrictions:
    def test_sharded_engine_refuses_to_checkpoint(self):
        config = small_smoke()
        config.shards = 2
        engine = ScenarioEngine(config)
        with pytest.raises(ReproError, match="shard"):
            engine.checkpoint()

    def test_checkpoint_records_progress(self, tmp_path):
        path = tmp_path / "progress.ckpt"
        checkpoint_at(small_smoke(), 3, path)
        checkpoint = load_checkpoint(str(path))
        assert checkpoint.events_processed == 3
        assert checkpoint.clock_now >= 0.0
        assert checkpoint.governors  # initial fleet snapshotted
