"""Tests of the benchmark's own layer timer, patching and metric names.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from layertimer import (  # noqa: E402
    LayerTimer,
    Patches,
    carry_context,
    is_restored,
    wrapper_floor_s,
)


class TickClock:
    """A clock that moves only when a synthetic call says it worked."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def nested_calls(timer: LayerTimer, busy):
    """root(1) -> [mid(2) -> leaf(3)] x 2 -> leaf(4); ``busy(layer, units)``."""
    leaf = timer.timed("leaf", lambda units: busy("leaf", units))

    def mid_body():
        busy("mid", 2)
        leaf(3)

    mid = timer.timed("mid", mid_body)

    def root_body():
        busy("root", 1)
        mid()
        mid()
        leaf(4)

    return timer.timed("root", root_body)


def test_self_times_exact_on_synthetic_clock():
    clock = TickClock()
    timer = LayerTimer(clock=clock)
    nested_calls(timer, lambda layer, units: clock.work(units))()
    summary = timer.summary()
    assert summary["root"] == (1, 15.0, 1.0)
    assert summary["mid"] == (2, 10.0, 4.0)
    assert summary["leaf"] == (3, 10.0, 10.0)


def test_self_times_match_real_busy_work():
    unit = 0.004
    spent = {"root": 0.0, "mid": 0.0, "leaf": 0.0}

    def busy(layer, units):
        start = time.perf_counter()
        while time.perf_counter() < start + units * unit:
            pass
        spent[layer] += time.perf_counter() - start

    timer = LayerTimer()
    nested_calls(timer, busy)()
    summary = timer.summary()
    # Each layer's self time is the busy work done in its own body, up
    # to the cost of the wrappers around it.
    for layer in spent:
        assert summary[layer][2] == pytest.approx(spent[layer], abs=0.002)
    # The root's inclusive time is the sum of every self time under it.
    total_self = sum(entry[2] for entry in summary.values())
    assert summary["root"][1] == pytest.approx(total_self, rel=1e-9)


def test_same_name_nesting_counts_one_call():
    clock = TickClock()
    timer = LayerTimer(clock=clock)

    class Base:
        def run(self):
            clock.work(2)

    class Child(Base):
        def run(self):
            clock.work(1)
            super().run()

    patches = Patches()
    patches.set(Base, "run", lambda fn: timer.timed("run", fn))
    patches.set(Child, "run", lambda fn: timer.timed("run", fn))
    try:
        Child().run()
        Base().run()
    finally:
        patches.restore()
    assert timer.summary()["run"] == (2, 5.0, 5.0)


def test_interleaved_coroutines_keep_their_own_stacks():
    clock = TickClock()
    timer = LayerTimer(clock=clock)

    async def inner_body():
        clock.work(1)

    inner = timer.timed("inner", inner_body)

    async def outer_body(units):
        clock.work(units)
        await asyncio.sleep(0)  # let the other task run here
        await inner()

    outer = timer.timed("outer", outer_body)

    async def main():
        await asyncio.gather(outer(2), outer(3))

    asyncio.run(main())
    summary = timer.summary()
    assert summary["inner"] == (2, 2.0, 2.0)
    assert summary["outer"][0] == 2
    # Each outer's interval also covers the other task's work while it
    # waited, but never counts the other task's inner call as its child.
    assert summary["outer"][1] - summary["outer"][2] == pytest.approx(2.0)


def test_pool_threads_are_roots_and_self_time_can_exceed_wall():
    timer = LayerTimer()
    barrier = threading.Barrier(2)

    def body():
        barrier.wait(timeout=5)
        time.sleep(0.05)

    work = timer.timed("work", body)
    outer = timer.timed("outer", lambda: list(pool.map(lambda _: work(), range(2))))
    with ThreadPoolExecutor(max_workers=2) as pool:
        start = time.perf_counter()
        outer()
        wall = time.perf_counter() - start
    summary = timer.summary()
    assert summary["work"][0] == 2
    # Pool workers do not inherit the submitter's frame ...
    assert summary["outer"][2] == pytest.approx(summary["outer"][1])
    # ... so the summed self time of parallel work exceeds the wall.
    assert summary["work"][2] + summary["outer"][2] > wall


def test_carry_context_nests_executor_work_under_its_submitter():
    clock = TickClock()
    timer = LayerTimer(clock=clock)
    hop = carry_context(lambda fn: fn)
    child = timer.timed("child", lambda: clock.work(3))

    def parent_body():
        clock.work(1)
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(hop(child)).result(timeout=5)

    timer.timed("parent", parent_body)()
    summary = timer.summary()
    assert summary["parent"] == (1, 4.0, 1.0)
    assert summary["child"] == (1, 3.0, 3.0)


def test_counted_wrapper_counts_without_timing():
    timer = LayerTimer()
    add = timer.counted("adds", lambda a, b: a + b)
    assert [add(1, 2), add(3, 4)] == [3, 7]
    assert timer.counts == {"adds": 2}
    assert timer.summary() == {}


def test_install_then_restore_puts_every_original_back():
    targets = [t for layer in layers.LAYERS for t in layer.targets]
    targets += list(layers.COUNTED) + [
        layers.CACHE_GET, layers.TRACE_BUILDER_INIT, layers.BATCHER_WRAP,
    ]
    before = {}
    for target in targets:
        owner, attr = layers.resolve(target)
        before[target] = vars(owner)[attr]
    patches = layers.install(LayerTimer(), [])
    for target in targets:
        owner, attr = layers.resolve(target)
        assert vars(owner)[attr] is not before[target], target
    restored = patches.restore()
    assert len(restored) == len(targets)
    assert is_restored(restored)
    for target in targets:
        owner, attr = layers.resolve(target)
        assert vars(owner)[attr] is before[target], target


def test_patching_an_inherited_attribute_is_refused():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        Patches().set(Child, "run", lambda fn: fn)
    assert "run" not in vars(Child)


def test_wrapper_floor_is_small_and_positive():
    floor = wrapper_floor_s(repeats=3, calls=2000)
    assert 0.0 < floor < 1e-4


def test_benchmark_json_declares_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {
        m["name"]: m["unit"] for m in spec["per_layer"]
    } == run.per_layer_units()
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_scenario_preset_matches_bench_scenario():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import bench_scenario
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    from workloads import SCENARIO_DEVICES, scenario_config

    preset = bench_scenario.build_config()
    ours = scenario_config(bench_scenario.SEED)
    assert ours.describe() == preset.describe()
    assert (ours.horizon_s, ours.tick_s, ours.seed, ours.name) == (
        preset.horizon_s, preset.tick_s, preset.seed, preset.name
    )
    assert ours.devices == SCENARIO_DEVICES >= 500


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-plan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
