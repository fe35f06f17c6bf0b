"""Clairvoyant oracle twin: the energy lower bound for the gap metric.

The governor reacts: it measures drift with a noisy INA219, waits for
a trigger, then re-solves.  The oracle *knows*: it sees the true
junction temperature and rail state before every window, re-prices the
cached Pareto fronts the moment the operating point moves to a new
quantized bucket, and runs fault-free with no sensor in the loop.  Its
summed true energy over the same activity schedule is (up to bucket
quantization) the best any re-planning policy could have done with the
same plan space -- so the scenario report's ``oracle_gap`` is the
closed-loop tax: energy the fleet burned because it had to *discover*
the drift instead of knowing it.

The twin shares the governed device's physics rather than copying it:
its state embeds the same :class:`~repro.fleet.governor.DeviceState`
record (ambient shift, exact-exponential idle, post-window battery and
temperature step), and it runs the same
:func:`~repro.fleet.governor.clamp_plan_to_cap` clamping and leaky
thermal excess on :data:`~repro.fleet.governor.LEAKY_STATES` -- with
the sensor, faults, and drift trigger removed.  It consumes no RNG,
so adding or removing oracle twins never perturbs a scenario's
stochastic streams.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from ..errors import PowerModelError, ReproError
from ..fleet.governor import (
    DeviceState,
    GovernorConfig,
    LEAKY_STATES,
    clamp_plan_to_cap,
    resolve_replan,
)
from ..fleet.variation import DeviceProfile
from ..nn.graph import Model
from ..pipeline import DAEDVFSPipeline, OptimizationResult, front_classes


class TwinState(NamedTuple):
    """Everything about one twin that changes between epochs.

    Attributes:
        device: the shadowed device's physics (plan, battery, thermal,
            temperature); its telemetry counters stay at zero.
        bucket: the quantized operating point ``(extra_w bucket,
            frequency cap)`` the plan in force was solved for.
        replans / epochs / epochs_met / true_energy_j: running totals.
    """

    device: DeviceState
    bucket: Tuple[int, float]
    replans: int = 0
    epochs: int = 0
    epochs_met: int = 0
    true_energy_j: float = 0.0


class OracleTwin:
    """Clairvoyant shadow of one device.

    Args:
        pipeline: the (shared, board-keyed) planning pipeline.
        profile: the device being shadowed.
        model: the deployed network.
        optimized: the deployment-time optimization result.
        config: governor tuning (only ``epoch_s`` is used).
        quant_w: thermal-excess quantization bucket.  The twin
            re-solves only when ``extra_w`` crosses into a new bucket
            (or the frequency cap moves), bounding re-solves while
            staying within one bucket of the continuous optimum.
    """

    def __init__(
        self,
        pipeline: DAEDVFSPipeline,
        profile: DeviceProfile,
        model: Model,
        optimized: OptimizationResult,
        config: Optional[GovernorConfig] = None,
        quant_w: float = 0.002,
    ):
        if quant_w <= 0:
            raise PowerModelError("quant_w must be positive")
        self.pipeline = pipeline
        self.profile = profile
        self.model = model
        self.optimized = optimized
        self.config = config or GovernorConfig()
        self.quant_w = quant_w
        self.base_classes = front_classes(optimized.pareto_fronts)
        device = DeviceState.deployed(profile, optimized.plan)
        self.state = TwinState(
            device=device, bucket=(0, device.battery.max_sysclk_hz())
        )

    def set_ambient(self, t_ambient_c: float) -> None:
        """Mirror the governed device's ambient shift."""
        device = self.state.device.with_ambient(t_ambient_c)
        self.state = self.state._replace(device=device)

    def idle(
        self, duration_s: float, sleep_power_w: float = 0.25e-3
    ) -> None:
        """Mirror the governed device's window-free stretch."""
        device = self.state.device.idled(duration_s, sleep_power_w)
        self.state = self.state._replace(device=device)

    def step(self) -> bool:
        """Run one clairvoyant epoch; True when the window met QoS.

        The twin re-solves *before* the window whenever the quantized
        operating point moved -- the defining clairvoyance: it never
        pays a drifted window to learn the drift exists.
        """
        state = self.state
        device = state.device
        cap_hz = device.battery.max_sysclk_hz()
        extra_w = device.extra_w
        bucket = (int(round(extra_w / self.quant_w)), cap_hz)
        plan = device.plan
        replans = state.replans
        if bucket != state.bucket:
            new_plan = resolve_replan(
                self.pipeline,
                self.model,
                self.base_classes,
                extra_w=extra_w,
                cap_hz=cap_hz,
                budget=self.optimized.qos_s,
                fixed=self.optimized.fixed_overhead_s,
            )
            if new_plan is not None:
                plan = new_plan
                replans += 1
        exec_plan, _clamped = clamp_plan_to_cap(
            plan, cap_hz, self.pipeline.space.hfo_configs
        )
        try:
            ref = self.pipeline.runtime.run(
                self.model,
                exec_plan,
                qos_s=self.optimized.qos_s,
                initial_config=exec_plan.initial_config(),
            )
        except ReproError:
            # Fault-free runs do not die; treat defensively as a
            # missed window with no energy accounted.
            self.state = state._replace(
                device=device._replace(plan=plan),
                bucket=bucket,
                replans=replans,
                epochs=state.epochs + 1,
            )
            return False
        true_energy = sum(
            iv.duration_s
            * (
                iv.power_w
                + (extra_w if iv.state in LEAKY_STATES else 0.0)
            )
            for iv in ref.account.intervals
        )
        window_s = ref.qos_s if ref.qos_s is not None else ref.latency_s
        avg_power = true_energy / window_s if window_s > 0 else 0.0
        battery, temperature = device.after_windows(
            avg_power, self.config.epoch_s
        )
        self.state = TwinState(
            device=device._replace(
                plan=plan, battery=battery, temperature=temperature
            ),
            bucket=bucket,
            replans=replans,
            epochs=state.epochs + 1,
            epochs_met=state.epochs_met + (1 if ref.met_qos else 0),
            true_energy_j=state.true_energy_j + true_energy,
        )
        return ref.met_qos

    def summary(self) -> Dict:
        """JSON-ready twin outcome."""
        state = self.state
        return {
            "device_id": self.profile.device_id,
            "epochs": state.epochs,
            "epochs_met": state.epochs_met,
            "replans": state.replans,
            "true_energy_j": state.true_energy_j,
        }
