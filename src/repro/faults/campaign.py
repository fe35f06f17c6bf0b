"""Staged fault campaigns: time-windowed fault plans for scenarios.

A chaos run (:mod:`repro.faults.chaos`) applies one :class:`FaultPlan`
uniformly over a campaign.  Long-horizon scenarios need *staged*
injection instead: a brownout wave between simulated hours 6 and 9, a
sensor-failure burst overnight, nothing in between.  This module
layers that on the existing fault machinery without touching it:

* :class:`FaultStage` binds one :class:`FaultPlan` to a half-open
  simulated-time window ``[start_s, end_s)``;
* :class:`FaultCampaign` is an ordered, non-overlapping set of stages
  with ``stage_at(t)`` lookup;
* :class:`CampaignClocks` lazily materializes one deterministic
  :class:`~repro.faults.plan.FaultClock` per (device, stage) so the
  decision stream of one stage never shifts another's.  Stage clocks
  spawn at :data:`SCENARIO_STAGE_BASE` + stage index, disjoint from the
  scheduler's ``PLAN_STAGE`` and the governor's ``GOVERN_STAGE`` keys,
  so a scenario that also plans under faults stays order-invariant.

Outside every stage window the clock is ``None`` -- the hardened code
paths then run bit-identical to the fault-free build, which is what
lets the zero-event scenario pin the plain fleet digest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import FaultInjectionError
from .plan import FaultClock, FaultPlan

#: First spawn-key stage index used by campaign clocks; PLAN_STAGE (0)
#: and GOVERN_STAGE (1) stay reserved for the scheduler/governor
#: streams of the same seed.
SCENARIO_STAGE_BASE = 16


@dataclass(frozen=True)
class FaultStage:
    """One fault plan active over a simulated-time window.

    Attributes:
        start_s: window start (inclusive), simulated seconds.
        end_s: window end (exclusive); ``inf`` keeps the stage active
            for the rest of the scenario.
        plan: the fault mix injected while the stage is active.
        label: human-readable tag carried into reports and audits.
    """

    start_s: float
    end_s: float
    plan: FaultPlan
    label: str = ""

    def __post_init__(self) -> None:
        if self.start_s < 0 or math.isnan(self.start_s):
            raise FaultInjectionError("start_s must be >= 0")
        if not self.end_s > self.start_s:
            raise FaultInjectionError("end_s must exceed start_s")

    def active_at(self, t_s: float) -> bool:
        """Whether ``t_s`` falls inside the stage window."""
        return self.start_s <= t_s < self.end_s

    def to_dict(self) -> Dict:
        """JSON-ready description (for scenario reports)."""
        return {
            "start_s": self.start_s,
            "end_s": self.end_s if math.isfinite(self.end_s) else None,
            "label": self.label,
            "plan": self.plan.to_dict(),
        }


@dataclass(frozen=True)
class FaultCampaign:
    """An ordered, non-overlapping sequence of fault stages.

    Stages are sorted by start time at construction; overlapping
    windows are rejected -- a simulated instant must map to at most
    one fault mix, or per-stage decision streams would race.
    """

    stages: Tuple[FaultStage, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.stages, key=lambda s: (s.start_s, s.end_s))
        )
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start_s < earlier.end_s:
                raise FaultInjectionError(
                    f"fault stages overlap: "
                    f"[{earlier.start_s}, {earlier.end_s}) and "
                    f"[{later.start_s}, {later.end_s})"
                )
        object.__setattr__(self, "stages", ordered)

    @property
    def any_faults(self) -> bool:
        """Whether any stage can inject anything at all."""
        return any(stage.plan.any_faults for stage in self.stages)

    def stage_index_at(self, t_s: float) -> Optional[int]:
        """Index of the stage covering ``t_s`` (None outside all)."""
        for index, stage in enumerate(self.stages):
            if stage.active_at(t_s):
                return index
            if t_s < stage.start_s:
                return None
        return None

    def stage_at(self, t_s: float) -> Optional[FaultStage]:
        """The stage covering ``t_s`` (None outside all windows)."""
        index = self.stage_index_at(t_s)
        return None if index is None else self.stages[index]

    def to_dict(self) -> Dict:
        """JSON-ready description (for scenario reports)."""
        return {"stages": [stage.to_dict() for stage in self.stages]}


class CampaignClocks:
    """Deterministic per-(device, stage) clocks for a campaign.

    Clocks are created lazily on first use and cached, so a device
    that re-enters a stage window (the engine queries every tick)
    continues its stream rather than restarting it.

    Args:
        campaign: the staged campaign.
    """

    def __init__(self, campaign: FaultCampaign):
        self.campaign = campaign
        self._clocks: Dict[Tuple[int, int], FaultClock] = {}

    def clock_at(
        self, device_id: int, t_s: float
    ) -> Optional[FaultClock]:
        """The device's fault clock at ``t_s`` (None between stages)."""
        index = self.campaign.stage_index_at(t_s)
        return None if index is None else self._clock(device_id, index)

    def _clock(self, device_id: int, index: int) -> FaultClock:
        key = (device_id, index)
        clock = self._clocks.get(key)
        if clock is None:
            stage = self.campaign.stages[index]
            clock = stage.plan.clock_for(
                device_id, stage=SCENARIO_STAGE_BASE + index
            )
            self._clocks[key] = clock
        return clock

    def state(self) -> List[Tuple[int, int, Dict]]:
        """``(device_id, stage index, FaultClock.state())`` per clock
        created so far, in key order."""
        return [
            (device_id, index, clock.state())
            for (device_id, index), clock in sorted(self._clocks.items())
        ]

    def restore(self, state: List[Tuple[int, int, Dict]]) -> None:
        """Return to a :meth:`state` snapshot."""
        self._clocks = {}
        for device_id, index, clock_state in state:
            self._clock(device_id, index).restore(clock_state)

    def injected_by_kind(self) -> Dict[str, int]:
        """Total injections across every device and stage (JSON-ready)."""
        totals: Dict[str, int] = {}
        for clock in self._clocks.values():
            for kind, count in clock.injected_by_kind().items():
                totals[kind] = totals.get(kind, 0) + count
        return dict(sorted(totals.items()))

    @property
    def total_injected(self) -> int:
        """Faults fired so far, all devices, all stages."""
        return sum(
            clock.total_injected for clock in self._clocks.values()
        )
