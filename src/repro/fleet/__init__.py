"""repro.fleet -- fleet-scale deployment of DAE+DVFS plans.

Scales the single-device pipeline to a heterogeneous population:
seeded device variation (:mod:`.variation`), shared-timing pricing
(:mod:`.pricing`), a worker-pool scheduler (:mod:`.scheduler`), an
adaptive re-plan governor (:mod:`.governor`) and deterministic fleet
aggregation (:mod:`.report`).
"""

from .governor import (
    DeviceState,
    EpochSample,
    FleetGovernor,
    GovernorConfig,
    GovernorResult,
    supervise_device,
)
from .pricing import (
    FleetSharedState,
    ReplayingRuntime,
    SharedComponentExplorer,
    plan_signature,
)
from .report import DeviceSummary, FleetReport, aggregate_fleet
from .scheduler import DeviceResult, FleetScheduler
from .variation import (
    DeviceProfile,
    VariationModel,
    sample_device,
    sample_fleet,
)

__all__ = [
    "DeviceProfile",
    "DeviceResult",
    "DeviceState",
    "DeviceSummary",
    "EpochSample",
    "FleetGovernor",
    "FleetReport",
    "FleetScheduler",
    "FleetSharedState",
    "GovernorConfig",
    "GovernorResult",
    "ReplayingRuntime",
    "SharedComponentExplorer",
    "VariationModel",
    "aggregate_fleet",
    "plan_signature",
    "sample_device",
    "sample_fleet",
    "supervise_device",
]
