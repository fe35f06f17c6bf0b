"""Device state as one record: nothing a step changes lives elsewhere.

A governor or oracle twin keeps everything that moves between epochs
in its frozen ``state`` record (plus the governor sensor's noise
stream), which is what lets a scenario checkpoint store the record and
nothing more.  These tests drive each object through an applied
re-plan and check that every other attribute is still the very object
it was before (and that builtin containers kept their contents) -- so
a new field rebound outside the record fails here instead of silently
breaking resume.  The check is by identity: objects that legitimately
move in place (the sensor's noise stream, an injected fault clock)
are asserted on explicitly.
"""

import pickle

import numpy as np
import pytest

from repro.analysis import Battery, BatteryState
from repro.errors import PowerModelError, ReproError
from repro.faults import FaultPlan
from repro.fleet import DeviceState, FleetGovernor, FleetScheduler
from repro.fleet.governor import GovernorConfig, SampleLog
from repro.fleet.variation import DeviceProfile
from repro.mcu import make_nucleo_f767zi
from repro.nn import build_tiny_test_model
from repro.optimize import MODERATE
from repro.power.model import PowerModelParams
from repro.power.thermal import ThermalModelParams
from repro.scenario import OracleTwin

CONFIG = GovernorConfig(epochs=6, max_replans=4)


@pytest.fixture(scope="module")
def planned():
    """A hot, leaky-corner device: its first window drifts far past
    the tolerance, so the governor asks for a re-plan at once."""
    model = build_tiny_test_model()
    base = PowerModelParams()
    params = base.scaled(p_mcu_leakage_w=base.p_mcu_leakage_w * 6.0)
    profile = DeviceProfile(
        device_id=0,
        board=make_nucleo_f767zi(power_params=params),
        thermal=ThermalModelParams(
            t_ambient_c=55.0, leakage_ref_w=params.p_mcu_leakage_w
        ),
        battery=BatteryState(battery=Battery()),
        sensor_seed=np.random.SeedSequence(123),
    )
    scheduler = FleetScheduler(model, qos_level=MODERATE)
    result = scheduler.plan_device(profile)
    assert result.error is None, result.error
    return scheduler.pipeline_for(profile), profile, model, result.optimized


def snapshot(obj):
    """Each attribute, plus the repr of any builtin container (which
    could change in place without being rebound)."""
    return {
        name: (
            value,
            repr(value) if isinstance(value, (list, dict, set)) else None,
        )
        for name, value in vars(obj).items()
    }


def moved(before, obj):
    """Attributes rebound, added, removed or mutated in place."""
    after = snapshot(obj)
    return {
        name
        for name in before.keys() | after.keys()
        if name not in before
        or name not in after
        or after[name][0] is not before[name][0]
        or after[name][1] != before[name][1]
    }


def step_through_replan(governor, epochs=3):
    """Step until a re-plan lands; True once one has."""
    for _ in range(epochs):
        _sample, intent = governor.step()
        if intent is not None and governor.apply_replan(intent):
            return True
    return False


class TestRecordCompleteness:
    def test_governor_moves_only_its_state(self, planned):
        governor = FleetGovernor(*planned, CONFIG)
        before, sensor_before = snapshot(governor), snapshot(governor.sensor)
        rng_before = governor.sensor.rng_state
        assert step_through_replan(governor)
        assert moved(before, governor) == {"state"}
        # The sensor object stays; only its noise stream advanced.
        assert moved(sensor_before, governor.sensor) == set()
        assert governor.sensor.rng_state != rng_before
        assert governor.state.replans == 1
        assert governor.result().samples[-1].replanned

    def test_faulted_governor_moves_only_its_state(self, planned):
        clock = FaultPlan(
            seed=7, brownout_rate=0.5, sensor_dropout_rate=0.3
        ).clock_for(0)
        governor = FleetGovernor(*planned, CONFIG, fault_clock=clock)
        before, sensor_before = snapshot(governor), snapshot(governor.sensor)
        clock_before = snapshot(clock)
        assert step_through_replan(governor, epochs=6)
        assert moved(before, governor) == {"state"}
        assert moved(sensor_before, governor.sensor) == set()
        # The injected clock is the caller's: it stays the same object
        # but its fault draws advance in place.
        assert governor.fault_clock is clock
        clock_moved = moved(clock_before, clock)
        assert "opportunities" in clock_moved
        assert clock_moved <= {"opportunities", "injected"}

    def test_twin_moves_only_its_state(self, planned):
        twin = OracleTwin(*planned, CONFIG)
        twin.set_ambient(70.0)
        twin.idle(600.0)
        before = snapshot(twin)
        twin.step()
        assert moved(before, twin) == {"state"}
        assert twin.state.replans == 1
        assert twin.state.device.plan is not planned[3].plan

    def test_record_is_frozen(self, planned):
        state = FleetGovernor(*planned, CONFIG).state
        with pytest.raises(AttributeError):
            state.epoch = 3
        assert isinstance(state.samples, SampleLog)


class TestSampleLog:
    def test_views_never_change(self):
        base = SampleLog(["a"])
        first = base.appended("b")
        # Extending the same record twice forks instead of
        # overwriting the first extension.
        second = base.appended("c")
        assert list(base) == ["a"]
        assert list(first) == ["a", "b"]
        assert list(second) == ["a", "c"]
        assert list(first.appended("d")) == ["a", "b", "d"]
        assert list(second) == ["a", "c"] and len(second) == 2

    def test_pickles_only_its_view(self):
        base = SampleLog(["a"])
        base.appended("b")
        restored = pickle.loads(pickle.dumps(base))
        assert restored == base and list(restored) == ["a"]
        assert list(restored.appended("c")) == ["a", "c"]


class TestReplanIntent:
    def test_supervise_is_step_then_apply(self, planned):
        """The fleet path is the deferred path with every replan
        admitted: same samples, same final plan."""
        supervised = FleetGovernor(*planned, CONFIG).supervise()
        governor = FleetGovernor(*planned, CONFIG)
        for _ in range(CONFIG.epochs):
            _sample, intent = governor.step()
            if intent is not None:
                governor.apply_replan(intent)
        assert governor.result().samples == supervised.samples
        assert governor.state.plan == supervised.final_plan
        assert supervised.replans >= 1

    def test_declined_intent_keeps_the_plan(self, planned):
        governor = FleetGovernor(*planned, CONFIG)
        sample, intent = governor.step()
        assert intent is not None
        state = governor.state
        assert state.pending == sample
        governor.decline_replan(intent)
        assert governor.state == state._replace(
            samples=state.samples.appended(sample), pending=None
        )

    def test_stale_or_repeated_intent_is_refused(self, planned):
        governor = FleetGovernor(*planned, CONFIG)
        _sample, intent = governor.step()
        assert governor.apply_replan(intent)
        with pytest.raises(ReproError, match="stale or already decided"):
            governor.apply_replan(intent)
        governor.step()
        with pytest.raises(ReproError, match="stale or already decided"):
            governor.decline_replan(intent)

    @pytest.mark.parametrize(
        "first, second",
        [
            ("decline", "apply"),
            ("decline", "decline"),
            ("unavailable", "apply"),
            ("unavailable", "decline"),
        ],
    )
    def test_decided_intent_is_refused(
        self, planned, monkeypatch, first, second
    ):
        """Once shed, or re-solved without a schedule, an intent is
        decided: neither decision may follow."""
        governor = FleetGovernor(*planned, CONFIG)
        _sample, intent = governor.step()
        if first == "decline":
            governor.decline_replan(intent)
        else:
            monkeypatch.setattr(
                "repro.fleet.governor.resolve_replan",
                lambda *args, **kwargs: None,
            )
            assert not governor.apply_replan(intent)
        state = governor.state
        decide = (
            governor.apply_replan
            if second == "apply"
            else governor.decline_replan
        )
        with pytest.raises(ReproError, match="stale or already decided"):
            decide(intent)
        assert governor.state is state
        assert state.replans == 0 and state.pending is None
        assert [s.replanned for s in governor.result().samples] == [False]

    def test_undecided_intent_lapses_at_the_next_step(self, planned):
        governor = FleetGovernor(*planned, CONFIG)
        first, intent = governor.step()
        second, _ = governor.step()
        assert governor.result().samples[:2] == [first, second]
        with pytest.raises(ReproError, match="stale or already decided"):
            governor.apply_replan(intent)


class TestPhysics:
    def test_idle_rejects_negative_duration(self, planned):
        with pytest.raises(PowerModelError):
            FleetGovernor(*planned, CONFIG).idle(-1.0)

    def test_governor_and_twin_share_the_physics(self, planned):
        """Same ambient shift and idle stretch: the same record
        physics on both sides."""
        governor = FleetGovernor(*planned, CONFIG)
        twin = OracleTwin(*planned, CONFIG)
        for device in (governor, twin):
            device.set_ambient(40.0)
            device.idle(900.0)
        expected = DeviceState.deployed(
            planned[1], planned[3].plan
        ).with_ambient(40.0).idled(900.0)
        assert governor.state == expected
        assert twin.state.device == expected
