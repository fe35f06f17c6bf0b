"""Pin the benchmark to one CPU and time work in reference seconds.

On a shared virtual machine three things move wall times that are not
the program's doing:

* Cross-CPU hand-offs.  The program's thread pools pass the
  interpreter lock back and forth; with threads spread over two vCPUs
  a hand-off can mean waking an idle vCPU, and what that costs depends
  on the host's load.  On a 2-vCPU VM a 16-device fleet took 0.70 s
  with its threads over both vCPUs and 0.45 s pinned to one, and one
  busy-looping process on the other vCPU made the unpinned run 30%
  *faster*; pinned, that process changed nothing.
  :func:`pin_to_one_cpu` keeps every thread of the benchmark on one
  vCPU.
* Steal.  The hypervisor runs other guests on the vCPU; the kernel
  counts that time per CPU in ``/proc/stat``.  :class:`HostClock`
  subtracts it from each timed chunk of work.
* A slower CPU.  Other tenants on the same physical core and caches
  slow every instruction down, by 2-3x over minutes on the VM above,
  with no steal counted and CPU time slowed alike.  :class:`HostClock`
  times a fixed reference kernel (:class:`Probe`, which runs no program
  code) after every chunk and scales the chunk's time by
  ``REFERENCE_PROBE_S / probe``, the probe the mean of the probes just
  before and just after the chunk: the time the chunk would have taken
  on a host where the probe takes ``REFERENCE_PROBE_S``.  A change that
  makes the program faster shows in full; so would a faster
  interpreter or numpy, which speeds up the probe's work too, only in
  part.  The probe tracks the slow-downs imperfectly: over seven
  minutes in which a pinned 16-device fleet drifted from 1.18 s to
  0.61 s per plan (medians of 20 plans), the medians of fleet time
  over probe time stayed within -6%/+21% of their median, 16 of 20
  within 7%.

Threads inherit the affinity of the thread that creates them, so pin
before anything starts a thread (numpy's BLAS pool starts at import).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

PROC_STAT = "/proc/stat"
#: Seconds the probe takes on a quiet reference host (2-vCPU x86-64
#: cloud VM, Python 3.11, numpy 2.4).  It sets only the unit.
REFERENCE_PROBE_S = 0.003
#: Share of a chunk's wall time spent probing after it (one to
#: MAX_PROBE_SAMPLES timed probe runs).
PROBE_SHARE = 0.03
MAX_PROBE_SAMPLES = 15
#: Field of a ``cpuN`` line of ``/proc/stat`` holding steal ticks.
_STEAL_FIELD = 8


def pin_to_one_cpu() -> Optional[int]:
    """Restrict this thread (and threads it starts) to its highest
    allowed CPU; returns that CPU, or None where affinity cannot be
    set (the benchmark then runs unpinned)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


class Probe:
    """A fixed reference kernel: interpreter work on a small dict and
    numpy work on a 1024-element array, all of it in a core's own
    caches.  It runs twice and the second run is timed, so the state
    the program's last chunk left in the caches does not reach it."""

    _PY_STEPS = 15000
    _NP_STEPS = 150

    def __init__(self) -> None:
        # Imported here: run.py pins the CPU before numpy's import
        # starts its threads.
        import numpy

        self._np = numpy
        self._vec = numpy.linspace(0.0, 1.0, 1024)
        self.run()  # warm-up: first calls into numpy are slower

    def _kernel(self) -> float:
        table: Dict[int, float] = {}
        acc = 0.5
        for i in range(self._PY_STEPS):
            key = i & 255
            acc = table.get(key, acc) * 0.5 + 0.25
            table[key] = acc
        vec, sqrt = self._vec, self._np.sqrt
        for _ in range(self._NP_STEPS):
            vec = sqrt(vec * 1.0001 + 0.5)
        return acc + float(vec[-1])

    def run(self, samples: int = 1) -> float:
        """Seconds the kernel takes now: the median of ``samples`` timed
        runs after one untimed one."""
        self._kernel()
        times = []
        for _ in range(samples):
            start = time.perf_counter()
            value = self._kernel()
            times.append(time.perf_counter() - start)
            if value != value:  # NaN: keeps the work from being skipped
                raise ArithmeticError("host probe produced NaN")
        return sorted(times)[len(times) // 2]


class HostClock:
    """Times chunks of work in wall seconds and in reference seconds.

    Usage::

        clock = HostClock(cpu)
        mark = clock.start()
        ...                           # the work
        wall, ref = clock.stop(mark)

    ``ref`` is ``wall`` net of steal, scaled by the host probes around
    the chunk.  With ``probe=False`` (the traced run) there is no probe
    and ``ref`` is ``wall`` net of steal.  Steal is counted in kernel
    ticks (10 ms at the usual 100 Hz), so a short chunk's share is
    coarse; sums and medians over many chunks are not.  Steal is 0 when
    the CPU is unknown or ``/proc/stat`` is unreadable.
    """

    def __init__(
        self,
        cpu: Optional[int],
        probe: bool = True,
        stat_path: str = PROC_STAT,
    ):
        self.cpu = cpu
        self.stat_path = stat_path
        self.tick_s = 1.0 / os.sysconf("SC_CLK_TCK")
        self._probe = Probe() if probe else None
        #: Seconds of every probe taken.
        self.probes: List[float] = []
        self.wall_s = 0.0
        self.stolen_s = 0.0

    def steal_s(self) -> float:
        """Seconds stolen from the pinned CPU since boot (0.0 if unknown)."""
        if self.cpu is None:
            return 0.0
        prefix = f"cpu{self.cpu} "
        try:
            with open(self.stat_path, encoding="ascii") as stat:
                for line in stat:
                    if line.startswith(prefix):
                        fields = line.split()
                        if len(fields) <= _STEAL_FIELD:
                            return 0.0
                        return int(fields[_STEAL_FIELD]) * self.tick_s
        except OSError:
            pass
        return 0.0

    def start(self) -> Tuple[float, float]:
        if self._probe is not None and not self.probes:
            self.probes.append(self._probe.run())
        return time.perf_counter(), self.steal_s()

    def stop(self, mark: Tuple[float, float]) -> Tuple[float, float]:
        """(wall seconds, reference seconds) since ``mark``."""
        wall = time.perf_counter() - mark[0]
        stolen = min(max(self.steal_s() - mark[1], 0.0), wall)
        self.wall_s += wall
        self.stolen_s += stolen
        net = wall - stolen
        if self._probe is None:
            return wall, net
        before = self.probes[-1]
        # One probe run is a few ms of a host whose speed jitters from
        # ms to ms (two back-to-back runs differ by 30% IQR); probe for
        # PROBE_SHARE of the chunk's time, so long chunks get a finer
        # reading.
        samples = round(PROBE_SHARE * wall / before)
        self.probes.append(
            self._probe.run(min(max(samples, 1), MAX_PROBE_SAMPLES))
        )
        probe = (before + self.probes[-1]) / 2.0
        return wall, net * REFERENCE_PROBE_S / probe

    def probe_median_s(self) -> float:
        """Median seconds of the probes taken so far (0.0 if none)."""
        if not self.probes:
            return 0.0
        return sorted(self.probes)[len(self.probes) // 2]
