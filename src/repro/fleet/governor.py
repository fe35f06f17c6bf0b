"""Adaptive per-device re-plan governor.

The MCKP plan a device ships with was priced against its power model
at deployment time.  In the field the operating point drifts: the die
heats up (leakage grows exponentially with temperature) and the
battery sags (the supply can no longer hold the top VOS scales, which
caps the usable SYSCLK).  The governor closes the loop the paper's
differential-measurement methodology opens:

1. every telemetry epoch, simulate one QoS window under the *true*
   conditions (thermal excess leakage, frequency clamping) and measure
   it with the device's own seeded INA219;
2. compare the measurement against the plan's prediction;
3. when the drift breaches the tolerance -- or the window misses its
   QoS budget outright -- **re-solve** the MCKP from the cached
   Pareto fronts, re-priced for the drifted conditions
   (:func:`repro.optimize.mckp.reprice_classes`), via
   :meth:`DAEDVFSPipeline.replan`.  No design-space re-exploration
   happens: the fronts' timing is drift-invariant, only the energy
   ranking moved.

The thermal response pushes hot devices toward *faster* schedules
(slow choices soak up more of the extra leakage joules); the battery
response pushes sagging devices onto HFOs their supply can still
hold.  Both re-converge within an epoch or two, which the fleet
report quantifies across the population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Optional, Tuple

from ..analysis.battery import BatteryState
from ..engine.schedule import DeploymentPlan, LayerPlan
from ..errors import PowerModelError, ReproError, SensorReadError
from ..nn.graph import Model
from ..obs.audit import get_audit_log
from ..obs.registry import get_registry
from ..optimize.mckp import MCKPItem, reprice_classes
from ..pipeline import DAEDVFSPipeline, OptimizationResult, front_classes
from ..power.energy import EnergyInterval
from ..power.model import PowerState
from ..power.sensor import INA219Config
from ..power.thermal import ThermalModelParams
from .variation import DeviceProfile

#: Sentinel distinguishing "use the governor's own fault clock" from an
#: explicit per-step override (including an explicit ``None``).
_UNSET = object()

#: Power states that carry the MCU leakage term (and therefore the
#: thermal excess); gated/deep-sleep states power the leaky domains
#: down.
LEAKY_STATES = frozenset(
    {
        PowerState.ACTIVE_COMPUTE,
        PowerState.ACTIVE_MEMORY,
        PowerState.IDLE,
        PowerState.SWITCHING,
    }
)


@dataclass(frozen=True)
class GovernorConfig:
    """Tuning of the re-plan loop.

    Attributes:
        epochs: telemetry epochs to simulate.
        epoch_s: sustained operation per epoch (back-to-back QoS
            windows); sets how fast temperature and battery move.
        drift_threshold: fractional measured-vs-predicted energy
            drift that triggers a re-plan.  The default sits about
            2x above the worst INA219 quantization+noise drift a
            nominal device shows (~1.5%), and below the steady-state
            thermal excess of a hot, leaky-corner device (~4%).
        max_replans: re-plan budget per device.
        sensor_config: INA219 configuration for the telemetry sensor.
        min_coverage: fraction of the window's trace time the sensor
            train must cover for the epoch's telemetry to count.
            Dropped conversions below this bar invalidate the epoch
            (the governor holds the last plan) instead of feeding a
            biased energy estimate into the drift trigger.
        widen_factor: multiplier applied to the drift tolerance per
            consecutive invalid-telemetry epoch -- after blind epochs
            the first fresh measurement is judged against a wider
            window so a momentarily stale prediction does not trigger
            a spurious re-plan.
        max_widen: cap on the accumulated widening factor.
    """

    epochs: int = 20
    epoch_s: float = 2.0
    drift_threshold: float = 0.03
    max_replans: int = 4
    sensor_config: Optional[INA219Config] = None
    min_coverage: float = 0.5
    widen_factor: float = 2.0
    max_widen: float = 8.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise PowerModelError("epochs must be >= 1")
        if self.epoch_s <= 0:
            raise PowerModelError("epoch_s must be positive")
        if self.drift_threshold <= 0:
            raise PowerModelError("drift_threshold must be positive")
        if self.max_replans < 0:
            raise PowerModelError("max_replans must be >= 0")
        if not 0.0 <= self.min_coverage <= 1.0:
            raise PowerModelError("min_coverage must be in [0, 1]")
        if self.widen_factor < 1.0:
            raise PowerModelError("widen_factor must be >= 1")
        if self.max_widen < 1.0:
            raise PowerModelError("max_widen must be >= 1")


@dataclass(frozen=True)
class EpochSample:
    """Telemetry of one epoch.

    ``valid`` is False when the epoch's telemetry was unusable (sensor
    NACK, stuck register, coverage below the bar, or the window itself
    failed under injected faults); measured/drift are zeroed then and
    never feed the drift trigger.
    """

    epoch: int
    measured_energy_j: float
    predicted_energy_j: float
    drift: float
    met_qos: bool
    clamped: bool
    temperature_c: float
    charge_fraction: float
    replanned: bool
    valid: bool = True
    #: Energy the window actually burned under the true conditions
    #: (thermal excess included) -- the scenario engine compares this
    #: against its clairvoyant oracle.  Zero for failed windows.
    true_energy_j: float = 0.0


@dataclass(frozen=True)
class ReplanIntent:
    """A replan the governor wants but has not applied yet.

    Returned by :meth:`FleetGovernor.step` so a control plane can
    approve the re-solve (:meth:`FleetGovernor.apply_replan`) or shed
    it (:meth:`FleetGovernor.decline_replan`).  :meth:`supervise`
    approves every one; the scenario engine first routes each through
    the serve tier's admission.

    Attributes:
        device_id: the device asking to re-plan.
        epoch: the epoch index the trigger fired in.
        extra_w: thermal excess leakage the re-price must compensate.
        cap_hz: battery/brownout frequency cap in force.
        drift: the measured-vs-predicted drift that (possibly)
            triggered the request.
        reason: machine-readable trigger (``qos_miss`` / ``clamped`` /
            ``drift``); the first that applies, in that priority.
    """

    device_id: int
    epoch: int
    extra_w: float
    cap_hz: float
    drift: float
    reason: str


class SampleLog:
    """Append-only epoch history that successive records share.

    :meth:`appended` extends the shared list in place when this log
    is its longest view -- O(1), the one-record-per-epoch case -- and
    copies only when an older record is extended a second time (a
    restored or forked state).  No element below a log's length is
    ever rewritten, so every log reads the same forever.
    """

    __slots__ = ("_items", "_n")

    def __init__(self, items=()) -> None:
        self._items = list(items)
        self._n = len(self._items)

    def appended(self, sample: EpochSample) -> "SampleLog":
        log = SampleLog.__new__(SampleLog)
        items = self._items
        log._items = items if len(items) == self._n else items[: self._n]
        log._items.append(sample)
        log._n = self._n + 1
        return log

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self._items[: self._n])

    def __eq__(self, other) -> bool:
        return isinstance(other, SampleLog) and list(self) == list(other)

    def __reduce__(self):
        return SampleLog, (self._items[: self._n],)


class DeviceState(NamedTuple):
    """Everything about one device that changes between epochs.

    An immutable value: an epoch, an idle stretch, an ambient shift or
    a replan decision each yield a new record (``_replace``), so a
    checkpoint stores the record and no field can be left out of it.
    A named tuple because the scenario loop builds several per epoch:
    ``_replace`` costs about a quarter of ``dataclasses.replace``.
    The oracle twin uses the physics (plan, battery, thermal,
    temperature) and leaves the telemetry fields empty.

    Attributes:
        plan: the plan currently in force.
        battery: the cell's discharge state.
        thermal: the device's thermal network; only its ambient moves.
        temperature: junction temperature.
        samples: telemetry of every decided epoch, in order.
        pending: the latest epoch's sample while the replan it asked
            for awaits :meth:`FleetGovernor.apply_replan` or
            :meth:`FleetGovernor.decline_replan`; None otherwise.
        compensated_w: extra leakage power the plan's pricing already
            accounts for (set at re-plan time); drift is measured
            against the prediction *including* this compensation.
        epoch: epochs stepped since deployment.
        replans: re-solves applied.
        invalid_streak: consecutive epochs with unusable telemetry;
            widens the drift window the first fresh measurement is
            judged against.
        invalid_epochs / css_events / watchdog_resets / pll_retries:
            running totals over the epochs.
    """

    plan: DeploymentPlan
    battery: BatteryState
    thermal: ThermalModelParams
    temperature: float
    samples: SampleLog
    pending: Optional[EpochSample] = None
    compensated_w: float = 0.0
    epoch: int = 0
    replans: int = 0
    invalid_streak: int = 0
    invalid_epochs: int = 0
    css_events: int = 0
    watchdog_resets: int = 0
    pll_retries: int = 0

    @classmethod
    def deployed(
        cls, profile: DeviceProfile, plan: DeploymentPlan
    ) -> "DeviceState":
        """The device as shipped: ``plan`` in force, die at ambient."""
        return cls(
            plan=plan,
            battery=profile.battery,
            thermal=profile.thermal,
            temperature=profile.thermal.t_ambient_c,
            samples=SampleLog(),
        )

    @property
    def extra_w(self) -> float:
        """Thermal excess leakage over the calibration reference."""
        thermal = self.thermal
        return thermal.leakage_at(self.temperature) - thermal.leakage_ref_w

    def with_ambient(self, t_ambient_c: float) -> "DeviceState":
        """The device moved into a new ambient temperature.

        Only the thermal network's relaxation target moves; the leakage
        calibration reference stays at deployment conditions, so a
        hotter ambient raises the junction trajectory and with it the
        thermal excess the governor must compensate.
        """
        return self._replace(
            thermal=replace(self.thermal, t_ambient_c=t_ambient_c)
        )

    def idled(
        self, duration_s: float, sleep_power_w: float = 0.25e-3
    ) -> "DeviceState":
        """The device after a window-free stretch of time.

        The device sleeps: the cell drains at the sleep floor and the
        die relaxes toward its (sleep-power) steady state on the exact
        exponential solution of the RC model -- idle stretches span
        many thermal time constants, where the per-window explicit
        Euler step would be unstable.  No RNG is consumed, so idling
        never shifts the telemetry noise stream.
        """
        if duration_s < 0:
            raise PowerModelError("duration_s must be >= 0")
        thermal = self.thermal
        t_ss = thermal.t_ambient_c + sleep_power_w * thermal.r_th_c_per_w
        decay = math.exp(-duration_s / thermal.time_constant_s)
        return self._replace(
            battery=self.battery.discharged(sleep_power_w * duration_s),
            temperature=t_ss + (self.temperature - t_ss) * decay,
        )

    def decided(self, sample: EpochSample) -> "DeviceState":
        """The record with its pending epoch settled: ``sample`` (the
        pending one, marked ``replanned`` if a plan landed) joins
        ``samples``."""
        return self._replace(
            samples=self.samples.appended(sample), pending=None
        )

    def after_windows(
        self, avg_power_w: float, duration_s: float
    ) -> Tuple[BatteryState, float]:
        """Battery and junction temperature after ``duration_s`` of
        back-to-back windows at ``avg_power_w``: the die integrates
        toward its operating temperature, the cell drains."""
        return (
            self.battery.discharged(avg_power_w * duration_s),
            self.thermal.temperature_step(
                self.temperature, avg_power_w, duration_s
            ),
        )


@dataclass
class GovernorResult:
    """Outcome of supervising one device.

    Attributes:
        profile: the supervised device.
        final_plan: the plan in force after the last epoch.
        samples: per-epoch telemetry, in order.
        replans: re-solves actually applied.
        converged: the last epoch met its QoS budget with drift inside
            the tolerance and no frequency clamping.
        invalid_epochs: epochs whose telemetry was unusable.
        css_events: CSS failsafe interventions across the epochs.
        watchdog_resets: watchdog resets survived across the epochs.
        pll_retries: PLL lock retries absorbed across the epochs.
    """

    profile: DeviceProfile
    final_plan: DeploymentPlan
    samples: List[EpochSample] = field(default_factory=list)
    replans: int = 0
    drift_threshold: float = float("inf")
    invalid_epochs: int = 0
    css_events: int = 0
    watchdog_resets: int = 0
    pll_retries: int = 0

    @property
    def converged(self) -> bool:
        last = self.samples[-1] if self.samples else None
        return bool(
            last
            and last.met_qos
            and not last.clamped
            and abs(last.drift) <= self.drift_threshold
        )

    @property
    def epochs_met(self) -> int:
        """Epochs whose window met the QoS budget."""
        return sum(1 for s in self.samples if s.met_qos)


def clamp_plan_to_cap(
    plan: DeploymentPlan, cap_hz: float, hfo_configs
) -> "tuple[DeploymentPlan, bool]":
    """Force every over-cap layer onto the fastest supplied HFO.

    This is what the hardware would do: the regulator cannot hold the
    VOS scale the plan asked for, so the runtime falls back to the
    fastest configuration the rail supports (and the schedule slows
    down accordingly -- possibly past its budget, which is the
    governor's re-plan trigger).
    """
    if all(
        lp.hfo.sysclk_hz <= cap_hz for lp in plan.layer_plans.values()
    ):
        return plan, False
    allowed = [c for c in hfo_configs if c.sysclk_hz <= cap_hz]
    if not allowed:
        # The rail sagged below even the slowest HFO (deep brownout).
        # Run at the slowest grid point rather than crashing: the
        # window will miss its budget, which is exactly the re-plan /
        # QoS-miss signal the governor acts on.
        allowed = [min(hfo_configs, key=lambda c: c.sysclk_hz)]
    fastest = max(allowed, key=lambda c: c.sysclk_hz)
    clamped_plans = {}
    for node_id, lp in plan.layer_plans.items():
        if lp.hfo.sysclk_hz <= cap_hz:
            clamped_plans[node_id] = lp
        else:
            clamped_plans[node_id] = LayerPlan(
                node_id=lp.node_id,
                granularity=lp.granularity,
                hfo=fastest,
                predicted_latency_s=lp.predicted_latency_s,
                predicted_energy_j=lp.predicted_energy_j,
            )
    return (
        DeploymentPlan(
            model_name=plan.model_name,
            lfo=plan.lfo,
            layer_plans=clamped_plans,
            qos_s=plan.qos_s,
            predicted_latency_s=plan.predicted_latency_s,
            predicted_energy_j=plan.predicted_energy_j,
        ),
        True,
    )


class FleetGovernor:
    """Supervises one device's deployed plan across telemetry epochs.

    Tolerates faulty telemetry: missing (NACKed), stuck or
    under-covered sensor readings invalidate the epoch -- the governor
    holds the last plan and judges the next fresh measurement against
    a temporarily widened drift window -- and a window that fails
    outright under injected faults is recorded as a missed, invalid
    epoch rather than killing the supervision loop.  ``fault_clock``
    is ``None`` by default, in which case every epoch is bit-identical
    to the fault-free governor.

    Everything of the governor's own that changes between epochs lives
    in :attr:`state`, a frozen :class:`DeviceState`, plus the noise
    stream of :attr:`sensor`; no other attribute is rebound after
    construction.  An injected ``fault_clock`` is the caller's object:
    its RNG streams advance as the epochs draw faults, and the caller
    checkpoints them (the scenario engine stores its campaign clocks).
    """

    def __init__(
        self,
        pipeline: DAEDVFSPipeline,
        profile: DeviceProfile,
        model: Model,
        optimized: OptimizationResult,
        config: Optional[GovernorConfig] = None,
        fault_clock=None,
    ):
        self.pipeline = pipeline
        self.profile = profile
        self.model = model
        self.optimized = optimized
        self.config = config or GovernorConfig()
        self.fault_clock = fault_clock
        #: Device-priced MCKP classes rebuilt from the cached fronts;
        #: every re-plan re-prices THESE -- exploration never re-runs.
        self.base_classes = front_classes(optimized.pareto_fronts)
        self.sensor = profile.make_sensor(
            self.config.sensor_config, fault_clock=fault_clock
        )
        self.start()

    def start(self) -> None:
        """Restart from the deployment plan with a re-seeded sensor."""
        self.sensor.reset()
        self.state = DeviceState.deployed(self.profile, self.optimized.plan)

    @property
    def plan(self) -> DeploymentPlan:
        """The plan currently in force."""
        return self.state.plan

    # -- external-environment hooks (scenario engine) ----------------------------

    def set_ambient(self, t_ambient_c: float) -> None:
        """Move the device into a new ambient temperature."""
        self.state = self.state.with_ambient(t_ambient_c)

    def set_battery(self, battery: BatteryState) -> None:
        """Replace the cell state (swap / recharge events)."""
        self.state = self.state._replace(battery=battery)

    def idle(self, duration_s: float, sleep_power_w: float = 0.25e-3) -> None:
        """Advance physics across a window-free stretch of time."""
        self.state = self.state.idled(duration_s, sleep_power_w)

    # -- the supervision loop ----------------------------------------------------

    def supervise(self) -> GovernorResult:
        """Run the configured epochs on the governor's own clock.

        The zero-argument path: epoch *k* is measured at
        ``k * epoch_s``, exactly the back-to-back window train the
        fleet path has always simulated, and every replan the epoch
        asks for is applied at once (admission always granted).
        """
        self.start()
        for epoch in range(self.config.epochs):
            _sample, intent = self.step(epoch * self.config.epoch_s)
            if intent is not None:
                self.apply_replan(intent)
        return self.result()

    def step(
        self,
        now: Optional[float] = None,
        fault_clock=_UNSET,
    ) -> Tuple[EpochSample, Optional[ReplanIntent]]:
        """Run one telemetry epoch at an injected timestamp.

        Args:
            now: absolute simulation time the epoch's measurement
                starts at; the INA219's deterministic thermal drift is
                a function of this time.  ``None`` keeps the internal
                clock (``state.epoch * epoch_s``).
            fault_clock: per-step fault stream override (the scenario
                engine stages campaign windows this way); omitted, the
                governor's own clock applies.

        Returns:
            The epoch's :class:`EpochSample` and the
            :class:`ReplanIntent` the epoch triggered, if any.  The
            sample joins ``state.samples`` at once, or -- with an
            intent -- waits in ``state.pending`` until the intent is
            passed to :meth:`apply_replan` or :meth:`decline_replan`
            (or lapses at the next step).
        """
        cfg = self.config
        profile = self.profile
        state = self.state
        fault = self.fault_clock if fault_clock is _UNSET else fault_clock
        budget = self.optimized.qos_s
        sensor = self.sensor
        sensor.fault_clock = fault
        hfo_configs = self.pipeline.space.hfo_configs
        runtime = self.pipeline.runtime
        epoch = state.epoch
        if now is None:
            now = epoch * cfg.epoch_s
        if state.pending is not None:
            state = state.decided(state.pending)  # the intent lapsed

        cap_hz = state.battery.max_sysclk_hz()
        if fault is not None and fault.brownout_sag():
            # The rail sags below nominal for this epoch: derate
            # the sustainable SYSCLK on top of the battery cap.
            cap_hz *= fault.plan.brownout_derate
        exec_plan, clamped = clamp_plan_to_cap(
            state.plan, cap_hz, hfo_configs
        )
        try:
            ref = runtime.run(
                self.model,
                exec_plan,
                qos_s=budget,
                initial_config=exec_plan.initial_config(),
                fault_clock=fault,
            )
        except ReproError:
            # The window itself died (watchdog never made forward
            # progress, PLL never locked): a missed, invalid epoch.
            # The plan is held; the next epoch tries again.
            get_audit_log().record(
                "governor.epoch",
                "window_failed",
                device_id=profile.device_id,
                epoch=epoch,
                clamped=clamped,
            )
            get_registry().count(
                "fleet.governor", event="window_failed"
            )
            sample = EpochSample(
                epoch=epoch,
                measured_energy_j=0.0,
                predicted_energy_j=0.0,
                drift=0.0,
                met_qos=False,
                clamped=clamped,
                temperature_c=state.temperature,
                charge_fraction=state.battery.charge_fraction,
                replanned=False,
                valid=False,
            )
            self.state = state._replace(
                epoch=epoch + 1,
                invalid_streak=state.invalid_streak + 1,
                invalid_epochs=state.invalid_epochs + 1,
                samples=state.samples.appended(sample),
            )
            return sample, None
        extra_w = state.extra_w
        # The window as the silicon actually burns it: leaky
        # states carry the thermal excess on top of the calibrated
        # model.
        true_trace = [
            EnergyInterval(
                duration_s=iv.duration_s,
                power_w=iv.power_w
                + (extra_w if iv.state in LEAKY_STATES else 0.0),
                category=iv.category,
                label=iv.label,
            )
            for iv in ref.account.intervals
        ]
        true_energy = sum(iv.energy_j for iv in true_trace)
        leaky_t = sum(
            iv.duration_s
            for iv in ref.account.intervals
            if iv.state in LEAKY_STATES
        )
        telemetry_valid = True
        try:
            train = sensor.measure(true_trace, start_time_s=now)
        except SensorReadError:
            train = []
            telemetry_valid = False
        if telemetry_valid and fault is not None:
            # Sanity-screen the train before trusting it: too many
            # dropped conversions bias the rectangle-rule energy
            # low, and a stuck power register reads as a perfectly
            # flat train.  (Guarded on fault mode: a nominal
            # sensor never produces either.)
            total_t = sum(iv.duration_s for iv in true_trace)
            covered = sensor.covered_duration_s(train)
            if covered < cfg.min_coverage * total_t:
                telemetry_valid = False
            elif len(train) >= 2 and len(
                {s.power_w for s in train}
            ) == 1:
                telemetry_valid = False
        predicted = ref.energy_j + state.compensated_w * leaky_t
        if telemetry_valid:
            measured = sensor.estimate_energy(train)
            drift = (
                (measured - predicted) / predicted
                if predicted > 0
                else 0.0
            )
        else:
            measured = 0.0
            drift = 0.0
        window_s = ref.qos_s if ref.qos_s is not None else ref.latency_s
        avg_power = true_energy / window_s if window_s > 0 else 0.0
        met = ref.met_qos

        # Blind epochs widen the tolerance the next fresh
        # measurement is judged against (stale compensation would
        # otherwise read as drift); QoS-miss and clamp triggers
        # stay live -- they come from the run, not the sensor.
        threshold = cfg.drift_threshold * min(
            cfg.widen_factor**state.invalid_streak, cfg.max_widen
        )
        drift_trigger = telemetry_valid and abs(drift) > threshold
        intent = None
        if not met or clamped or drift_trigger:
            if state.replans < cfg.max_replans:
                intent = ReplanIntent(
                    device_id=profile.device_id,
                    epoch=epoch,
                    extra_w=extra_w,
                    cap_hz=cap_hz,
                    drift=drift,
                    reason=(
                        "qos_miss"
                        if not met
                        else ("clamped" if clamped else "drift")
                    ),
                )
                decision = "replan_pending"
            else:
                decision = "replan_unavailable"
        elif not telemetry_valid:
            decision = "hold_invalid_telemetry"
        else:
            decision = "hold"
        # Audit the epoch's decision with the inputs it was made
        # from -- strictly observational, recorded after every
        # value above is already computed.
        get_audit_log().record(
            "governor.epoch",
            decision,
            device_id=profile.device_id,
            epoch=epoch,
            drift=drift,
            threshold=threshold,
            predicted_energy_j=predicted,
            measured_energy_j=measured,
            met_qos=met,
            clamped=clamped,
            telemetry_valid=telemetry_valid,
        )
        get_registry().count("fleet.governor", event=decision)

        # Physics advance even when telemetry was unusable -- the
        # window still ran and burned energy.
        battery, temperature = state.after_windows(avg_power, cfg.epoch_s)
        sample = EpochSample(
            epoch=epoch,
            measured_energy_j=measured,
            predicted_energy_j=predicted,
            drift=drift,
            met_qos=met,
            clamped=clamped,
            temperature_c=temperature,
            charge_fraction=battery.charge_fraction,
            replanned=False,
            valid=telemetry_valid,
            true_energy_j=true_energy,
        )
        self.state = state._replace(
            battery=battery,
            temperature=temperature,
            epoch=epoch + 1,
            invalid_streak=0 if telemetry_valid else state.invalid_streak + 1,
            invalid_epochs=state.invalid_epochs + (not telemetry_valid),
            css_events=state.css_events + ref.css_events,
            watchdog_resets=state.watchdog_resets + ref.watchdog_resets,
            pll_retries=state.pll_retries + ref.pll_retries,
            samples=(
                state.samples.appended(sample) if intent is None
                else state.samples
            ),
            pending=None if intent is None else sample,
        )
        return sample, intent

    def apply_replan(self, intent: ReplanIntent) -> bool:
        """Apply a replan the latest :meth:`step` asked for.

        The re-solve runs with exactly the inputs the trigger fired
        on; a landed plan marks the epoch's sample ``replanned``.

        Returns:
            True when a plan landed; False when no schedule fits.
        """
        state = self._latest_step(intent)
        new_plan = resolve_replan(
            self.pipeline,
            self.model,
            self.base_classes,
            extra_w=intent.extra_w,
            cap_hz=intent.cap_hz,
            budget=self.optimized.qos_s,
            fixed=self.optimized.fixed_overhead_s,
        )
        applied = new_plan is not None
        sample = state.pending
        if applied:
            state = state._replace(
                plan=new_plan,
                compensated_w=intent.extra_w,
                replans=state.replans + 1,
            )
            sample = replace(sample, replanned=True)
        self.state = state.decided(sample)
        decision = "replan" if applied else "replan_unavailable"
        get_audit_log().record(
            "governor.epoch",
            decision,
            device_id=intent.device_id,
            epoch=intent.epoch,
            drift=intent.drift,
            reason=intent.reason,
            deferred=True,
        )
        get_registry().count("fleet.governor", event=decision)
        return applied

    def decline_replan(
        self, intent: ReplanIntent, reason: str = "shed"
    ) -> None:
        """Drop a replan (the control plane shed the request)."""
        state = self._latest_step(intent)
        self.state = state.decided(state.pending)
        get_audit_log().record(
            "governor.epoch",
            "replan_shed",
            device_id=intent.device_id,
            epoch=intent.epoch,
            drift=intent.drift,
            reason=reason,
        )
        get_registry().count("fleet.governor", event="replan_shed")

    def _latest_step(self, intent: ReplanIntent) -> DeviceState:
        """The state, once ``intent`` is known to be from this
        governor's latest step and not yet applied or declined."""
        state = self.state
        if (
            intent.device_id != self.profile.device_id
            or intent.epoch != state.epoch - 1
            or state.pending is None
        ):
            raise ReproError(
                f"replan intent for device {intent.device_id} epoch "
                f"{intent.epoch} is stale or already decided"
            )
        return state

    def result(self) -> GovernorResult:
        """The supervision record accumulated so far."""
        state = self.state
        samples = list(state.samples)
        if state.pending is not None:
            samples.append(state.pending)
        return GovernorResult(
            profile=self.profile,
            final_plan=state.plan,
            samples=samples,
            replans=state.replans,
            drift_threshold=self.config.drift_threshold,
            invalid_epochs=state.invalid_epochs,
            css_events=state.css_events,
            watchdog_resets=state.watchdog_resets,
            pll_retries=state.pll_retries,
        )


def resolve_replan(
    pipeline: DAEDVFSPipeline,
    model: Model,
    base_classes: List[List[MCKPItem]],
    *,
    extra_w: float,
    cap_hz: float,
    budget: float,
    fixed: float,
) -> Optional[DeploymentPlan]:
    """Re-price cached fronts and re-solve; None if infeasible.

    The shared re-solve core of the governor and the scenario
    engine's clairvoyant oracle twin: re-price the device's cached
    Pareto fronts for the drifted conditions and hand them to
    :meth:`DAEDVFSPipeline.replan`, which owns the free re-solve and
    its uniform single-HFO fallback.
    """
    try:
        classes = reprice_classes(
            base_classes,
            extra_power_w=extra_w,
            item_filter=lambda item: (
                item.payload.hfo.sysclk_hz <= cap_hz
            ),
        )
        return pipeline.replan(model, classes, budget, fixed)
    except ReproError:
        return None


def supervise_device(
    pipeline: DAEDVFSPipeline,
    profile: DeviceProfile,
    model: Model,
    optimized: OptimizationResult,
    config: Optional[GovernorConfig] = None,
    fault_clock=None,
) -> GovernorResult:
    """Convenience wrapper: build a governor and run it."""
    return FleetGovernor(
        pipeline, profile, model, optimized, config, fault_clock=fault_clock
    ).supervise()
