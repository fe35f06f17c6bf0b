"""Device churn: joins, departures, quarantine and repair.

Fleet membership over a multi-day scenario is not static: new boards
are provisioned (JOIN), others are decommissioned or die in the field
(LEAVE), and devices whose telemetry goes persistently invalid are
quarantined by the governor's supervision loop and later repaired
(REPAIR) after a technician visit.

:class:`ChurnModel` is the seeded description; :class:`ChurnProcess`
materializes it: Poisson join/leave event times over the horizon
(sampled up front so the event queue is fully populated before the
clock starts) plus a dedicated victim-selection stream used when a
LEAVE fires.  Victims are drawn from the *sorted* live-device list at
execution time, so the pick depends only on the membership state --
itself deterministic -- and the stream position.

Quarantine is not sampled here: it is a *reaction* (the engine
quarantines a device after ``quarantine_after`` consecutive invalid
telemetry epochs and schedules its REPAIR ``repair_delay_s`` later).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..errors import ReproError

_JOIN_STREAM = 0
_LEAVE_STREAM = 1
_VICTIM_STREAM = 2


@dataclass(frozen=True)
class ChurnModel:
    """Seeded churn description for one scenario.

    Attributes:
        join_per_hour: Poisson rate of fleet-wide JOIN events.
        leave_per_hour: Poisson rate of fleet-wide LEAVE events.
        repair_delay_s: time a quarantined device waits for repair.
        quarantine_after: consecutive invalid telemetry epochs that
            trigger quarantine (0 disables quarantine).
        max_devices: hard cap on fleet size (joins beyond it are
            dropped and counted as rejected).
        seed: root of the event-time and victim-pick streams.
    """

    join_per_hour: float = 0.0
    leave_per_hour: float = 0.0
    repair_delay_s: float = 4.0 * 3600.0
    quarantine_after: int = 3
    max_devices: int = 16384
    seed: int = 0

    def __post_init__(self) -> None:
        if self.join_per_hour < 0 or self.leave_per_hour < 0:
            raise ReproError("churn rates must be >= 0")
        if self.repair_delay_s < 0:
            raise ReproError("repair_delay_s must be >= 0")
        if self.quarantine_after < 0:
            raise ReproError("quarantine_after must be >= 0")
        if self.max_devices < 1:
            raise ReproError("max_devices must be >= 1")

    def to_dict(self) -> Dict:
        """JSON-ready description (for scenario reports)."""
        return {
            "join_per_hour": self.join_per_hour,
            "leave_per_hour": self.leave_per_hour,
            "repair_delay_s": self.repair_delay_s,
            "quarantine_after": self.quarantine_after,
            "max_devices": self.max_devices,
            "seed": self.seed,
        }


class ChurnProcess:
    """Materialized churn for one run: event times + victim stream."""

    def __init__(self, model: ChurnModel):
        self.model = model
        self._victim_rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=model.seed, spawn_key=(_VICTIM_STREAM,)
            )
        )

    def _event_times(
        self, rate_per_hour: float, horizon_s: float, stream: int
    ) -> List[float]:
        if rate_per_hour <= 0 or horizon_s <= 0:
            return []
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.model.seed, spawn_key=(stream,)
            )
        )
        rate_per_s = rate_per_hour / 3600.0
        times: List[float] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate_per_s))
            if t >= horizon_s:
                return times
            times.append(t)

    def join_times(self, horizon_s: float) -> List[float]:
        """Simulated timestamps of every JOIN in ``[0, horizon_s)``."""
        return self._event_times(
            self.model.join_per_hour, horizon_s, _JOIN_STREAM
        )

    def leave_times(self, horizon_s: float) -> List[float]:
        """Simulated timestamps of every LEAVE in ``[0, horizon_s)``."""
        return self._event_times(
            self.model.leave_per_hour, horizon_s, _LEAVE_STREAM
        )

    def pick_victim(self, live_ids: Sequence[int]) -> int:
        """Choose the device a LEAVE removes.

        ``live_ids`` must be the sorted live membership; the draw
        consumes exactly one value from the victim stream either way,
        so the stream position depends only on how many LEAVEs fired.
        """
        if not live_ids:
            raise ReproError("cannot pick a victim from an empty fleet")
        index = int(self._victim_rng.integers(0, len(live_ids)))
        return live_ids[index]
