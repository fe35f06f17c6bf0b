"""Event-boundary scenario checkpoints.

A :class:`~repro.scenario.engine.ScenarioEngine` run is a pure
function of its config: every random draw comes from named seeded
streams, the clock is simulated, and the serve tier's admission
decisions are a function of arrival order.  That purity is what makes
checkpointing *exact* rather than approximate -- a checkpoint is the
complete set of mutable state reached after N event dispatches, and
resuming from it replays the remaining events over byte-identical
state, so the resumed run's :class:`~repro.scenario.report.ScenarioReport`
digest equals the uninterrupted run's.  That invariant is enforced in
``tests/scenario/test_checkpoint.py`` and gated in
``benchmarks/bench_scenario.py``.

The snapshot deliberately stores *state records*, not live objects
with pipelines inside: governors, oracle twins and fault clocks are
rebuilt deterministically from the config on resume, then handed back
the state they exported -- a governor's frozen
:class:`~repro.fleet.governor.DeviceState` plus its sensor's RNG
state, a twin's :class:`~repro.scenario.oracle.TwinState`, the serve
bridge's ``state()``.  No private attribute is read, so a field added
to a record is checkpointed with it.  That keeps checkpoints small,
avoids pickling thread locks, and leaves a schema that evolves behind
``version``.

One deliberate exception: ``config`` is pickled whole, and stochastic
arrival models carry their lazily-spawned per-device RNG streams as
instance state -- so the pickle captures the arrival streams exactly
at the boundary, and the resumed engine's ``windows_at`` draws
continue the original sequence without any explicit restore step.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..errors import ReproError

#: Bumped on incompatible snapshot-schema changes (2: governor and
#: twin state as records instead of per-attribute dicts).
CHECKPOINT_VERSION = 2


@dataclass
class ScenarioCheckpoint:
    """Complete mutable state of a scenario run at an event boundary.

    Attributes:
        version: snapshot schema version.
        config: the (picklable) :class:`ScenarioConfig` the run was
            built from; resume reconstructs the engine from it.
        events_processed: dispatched-event count (informational).
        clock_now: the simulated clock.
        queue_heap / queue_seq: the pending event heap, verbatim.
        churn_rng_state: the churn victim-picker bit-generator state.
        campaign_clocks: :meth:`CampaignClocks.state` -- per
            ``(device, stage)`` fault-clock counters and RNG states.
        governors: ``(device_id, DeviceState, sensor RNG state)`` per
            governor, in registration order (report row order derives
            from it).
        twins: ``(device_id, TwinState)`` per oracle twin.
        engine: engine-level sets, counters and timelines; its
            ``planned_pool_indices`` let resume rebuild joined devices.
        serve: :meth:`ServeBridge.state` -- bridge counters plus
            admission/token-bucket state.
    """

    config: Any
    version: int = CHECKPOINT_VERSION
    events_processed: int = 0
    clock_now: float = 0.0
    queue_heap: List[Tuple] = field(default_factory=list)
    queue_seq: int = 0
    churn_rng_state: Dict[str, Any] = field(default_factory=dict)
    campaign_clocks: List[Tuple] = field(default_factory=list)
    governors: List[Tuple] = field(default_factory=list)
    twins: List[Tuple] = field(default_factory=list)
    engine: Dict[str, Any] = field(default_factory=dict)
    serve: Dict[str, Any] = field(default_factory=dict)


def save_checkpoint(checkpoint: ScenarioCheckpoint, path: str) -> None:
    """Pickle a checkpoint to ``path`` (atomic rename on same dir)."""
    import os

    blob = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> ScenarioCheckpoint:
    """Load and validate a pickled checkpoint.

    Raises:
        ReproError: unreadable file, wrong type, or a snapshot written
            by an incompatible schema version.
    """
    try:
        with open(path, "rb") as handle:
            checkpoint = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError) as err:
        raise ReproError(f"cannot load checkpoint {path!r}: {err}") from err
    if not isinstance(checkpoint, ScenarioCheckpoint):
        raise ReproError(
            f"{path!r} does not contain a ScenarioCheckpoint"
        )
    if checkpoint.version != CHECKPOINT_VERSION:
        raise ReproError(
            f"checkpoint version {checkpoint.version} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return checkpoint
