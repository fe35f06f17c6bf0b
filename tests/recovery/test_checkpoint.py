"""Checkpoint file format: save/load round trip and typed failures."""

import pickle

import pytest

from repro.errors import ReproError
from repro.recovery import (
    CHECKPOINT_VERSION,
    ScenarioCheckpoint,
    load_checkpoint,
    save_checkpoint,
)


def make_checkpoint(**overrides) -> ScenarioCheckpoint:
    fields = {
        "config": {"name": "stub"},
        "events_processed": 4,
        "clock_now": 1800.0,
        "queue_seq": 9,
    }
    fields.update(overrides)
    return ScenarioCheckpoint(**fields)


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(make_checkpoint(), path)
        loaded = load_checkpoint(path)
        assert loaded.version == CHECKPOINT_VERSION
        assert loaded.events_processed == 4
        assert loaded.clock_now == 1800.0
        assert loaded.config == {"name": "stub"}

    def test_save_is_atomic_replace(self, tmp_path):
        """A re-save over an existing file never leaves a torn one."""
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(make_checkpoint(events_processed=1), path)
        save_checkpoint(make_checkpoint(events_processed=2), path)
        assert load_checkpoint(path).events_processed == 2
        assert not (tmp_path / "run.ckpt.tmp").exists()


class TestTypedFailures:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot load"):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        blob = pickle.dumps(make_checkpoint())
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ReproError, match="cannot load"):
            load_checkpoint(str(path))

    def test_wrong_type(self, tmp_path):
        path = tmp_path / "other.ckpt"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(ReproError, match="ScenarioCheckpoint"):
            load_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path):
        """Version 1 stored governor and twin state as per-attribute
        dicts: it is refused typed, like a newer version."""
        for version in (1, CHECKPOINT_VERSION + 1):
            path = str(tmp_path / f"v{version}.ckpt")
            save_checkpoint(make_checkpoint(version=version), path)
            with pytest.raises(ReproError, match=f"version {version}"):
                load_checkpoint(path)
