"""Tests of the benchmark's CPU pinning, steal and host-probe timing.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

import hostclock
from hostclock import REFERENCE_PROBE_S, HostClock, Probe

HERE = os.path.dirname(os.path.abspath(__file__))


def write_stat(path, steal_ticks: int) -> None:
    path.write_text(
        "cpu  10 0 10 100 0 0 0 99 0 0\n"
        "cpu0 5 0 5 50 0 0 0 7 0 0\n"
        f"cpu1 5 0 5 50 0 0 0 {steal_ticks} 0 0\n"
    )


def test_steal_of_the_pinned_cpu_is_subtracted(tmp_path):
    stat = tmp_path / "stat"
    write_stat(stat, 100)
    clock = HostClock(1, probe=False, stat_path=str(stat))
    assert clock.steal_s() == pytest.approx(100 * clock.tick_s)
    mark = clock.start()
    time.sleep(0.05)
    write_stat(stat, 102)
    wall, net = clock.stop(mark)
    assert wall >= 0.05
    assert net == pytest.approx(wall - 2 * clock.tick_s)


def test_net_time_is_never_negative(tmp_path):
    stat = tmp_path / "stat"
    write_stat(stat, 0)
    clock = HostClock(1, probe=False, stat_path=str(stat))
    mark = clock.start()
    write_stat(stat, 10_000)
    wall, net = clock.stop(mark)
    assert net == 0.0 < wall


@pytest.mark.parametrize("cpu, name", [(None, "stat"), (1, "missing"), (5, "stat")])
def test_unknown_steal_leaves_wall_time(tmp_path, cpu, name):
    write_stat(tmp_path / "stat", 100)
    clock = HostClock(cpu, probe=False, stat_path=str(tmp_path / name))
    mark = clock.start()
    time.sleep(0.01)
    wall, net = clock.stop(mark)
    assert net == wall >= 0.01


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here"
)
def test_pinning_leaves_one_allowed_cpu_for_new_threads():
    code = (
        "import os, threading\n"
        "from hostclock import pin_to_one_cpu\n"
        "allowed = os.sched_getaffinity(0)\n"
        "cpu = pin_to_one_cpu()\n"
        "seen = []\n"
        "t = threading.Thread(target=lambda: seen.append(os.sched_getaffinity(0)))\n"
        "t.start(); t.join(10)\n"
        "assert cpu == max(allowed), (cpu, allowed)\n"
        "assert os.sched_getaffinity(0) == {cpu}\n"
        "assert seen == [{cpu}], seen\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


class StubProbe:
    """Probe times handed out in order."""

    def __init__(self) -> None:
        self._times = iter([0.002, 0.004, 0.006])

    def run(self, samples: int = 1) -> float:
        return next(self._times)


def test_chunks_are_scaled_by_the_probes_around_them(monkeypatch):
    monkeypatch.setattr(hostclock, "Probe", StubProbe)
    clock = HostClock(None)
    mark = clock.start()
    time.sleep(0.01)
    wall, ref = clock.stop(mark)
    assert ref == pytest.approx(wall * REFERENCE_PROBE_S / 0.003)
    mark = clock.start()  # the probe after the last chunk is reused
    wall, ref = clock.stop(mark)
    assert ref == pytest.approx(wall * REFERENCE_PROBE_S / 0.005)
    assert clock.probes == [0.002, 0.004, 0.006]
    assert clock.probe_median_s() == 0.004


def test_probe_times_real_work():
    probe = Probe()
    times = [probe.run() for _ in range(5)]
    assert all(0.0 < t < 1.0 for t in times)
