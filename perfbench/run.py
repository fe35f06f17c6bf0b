"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-cold-plan --seed 1 \\
        --seconds 10 --trace 0

Every run is pinned to one CPU (see :mod:`hostclock`).  ``--trace 0``
measures the end-to-end metrics with nothing wrapped; its times are
reference seconds -- wall time net of what the hypervisor stole from
that CPU, scaled by a fixed host probe timed between chunks of work --
and the wall-clock figures are printed beside them.  ``--trace 1`` runs a fixed amount of the workload twice in this process,
untraced and then with every layer in :mod:`layers` wrapped, checks that
both passes produced the same outputs, and prints the per-layer metrics
of the traced pass.  Every run prints a host fingerprint first and, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names, units and bounds are declared
in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metric -> unit (``--trace 0``).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "plan_energy_mj": "mJ",
    "qos_met_fraction": "fraction",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metric -> unit (``--trace 1``), in report order."""
    from layers import ENERGY_ADD, LAYERS, SHEDS

    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.incl_s"] = "s"
        units[f"{layer.name}.self_s"] = "s"
    units.update(
        {
            ENERGY_ADD: "count",
            "engine.trace_cache.hit_ratio": "ratio",
            "serve.cache.hit_ratio": "ratio",
            SHEDS: "count",
            "fleet.pool.busy_ratio": "ratio",
            "fleet.replan.applied_ratio": "ratio",
            "scenario.storm_ticks": "count",
            "host.cpu_s": "s",
            "host.cpu_util": "ratio",
            "trace.overhead_ratio": "ratio",
            "trace.wrapper_floor_s": "s",
        }
    )
    return units


def git_commit(root: pathlib.Path) -> str:
    """The checked-out commit, read from ``.git`` ("unknown" without one)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return "unknown"
    for line in packed:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def host_fingerprint(seed: int, cpu: Optional[int]) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "commit": git_commit(ROOT),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_metrics(workload: str, seed: int) -> Tuple[object, Dict[str, float], List[str]]:
    """Untraced then traced fixed pass; per-layer metrics of the latter."""
    from layers import CACHE_HIT, CACHE_MISS, ENERGY_ADD, LAYERS, SHEDS, install
    from layertimer import LayerTimer, is_restored, wrapper_floor_s
    from workloads import WORKLOADS

    fixed = WORKLOADS[workload][1]

    start, cpu = time.perf_counter(), time.process_time()
    plain = fixed(seed)
    plain_wall = time.perf_counter() - start
    plain_cpu = time.process_time() - cpu

    timer = LayerTimer()
    builders: list = []
    patches = install(timer, builders)
    try:
        start = time.perf_counter()
        traced = fixed(seed)
        traced_wall = time.perf_counter() - start
    finally:
        restored = patches.restore()

    problems = list(plain.problems) + list(traced.problems)
    if traced.digest != plain.digest:
        problems.append(
            f"traced output digest {traced.digest[:16]} != untraced "
            f"{plain.digest[:16]}"
        )
    if not is_restored(restored):
        problems.append("a patched attribute was not restored")

    summary = timer.summary()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        calls, incl, self_s = summary.get(layer.name, (0, 0.0, 0.0))
        metrics[f"{layer.name}.calls"] = calls
        metrics[f"{layer.name}.incl_s"] = incl
        metrics[f"{layer.name}.self_s"] = self_s
    hits = sum(b.cache_hits for b in builders)
    misses = sum(b.cache_misses for b in builders)
    counts = timer.counts
    width = traced.facts.get("pool_width", 0)
    metrics.update(
        {
            ENERGY_ADD: counts.get(ENERGY_ADD, 0),
            "engine.trace_cache.hit_ratio": _ratio(hits, hits + misses),
            "serve.cache.hit_ratio": _ratio(
                counts.get(CACHE_HIT, 0),
                counts.get(CACHE_HIT, 0) + counts.get(CACHE_MISS, 0),
            ),
            SHEDS: counts.get(SHEDS, 0),
            "fleet.pool.busy_ratio": _ratio(
                metrics["fleet.plan_device.incl_s"], traced_wall * width
            ),
            "fleet.replan.applied_ratio": traced.facts.get(
                "replan_applied_ratio", 0.0
            ),
            "scenario.storm_ticks": traced.facts.get("storm_ticks", 0),
            "host.cpu_s": plain_cpu,
            "host.cpu_util": plain_cpu / plain_wall,
            "trace.overhead_ratio": traced_wall / plain_wall - 1.0,
            "trace.wrapper_floor_s": wrapper_floor_s(),
        }
    )
    plain.problems = problems
    notes = plain.notes + [
        f"untraced pass {plain_wall:.3f} s, traced pass "
        f"{traced_wall:.3f} s, digest {plain.digest[:16]}"
    ]
    return plain, metrics, notes


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    # Before numpy's import starts its threads; they inherit the CPU.
    from hostclock import HostClock, pin_to_one_cpu

    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; expected one "
            f"of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    print("host " + json.dumps(host_fingerprint(args.seed, cpu), sort_keys=True))
    print(f"workload {args.workload} trace {args.trace} seconds {args.seconds}")
    if args.trace:
        outcome, values, notes = traced_metrics(args.workload, args.seed)
        units = per_layer_units()
    else:
        measure = WORKLOADS[args.workload][0]
        outcome = measure(args.seed, args.seconds, HostClock(cpu))
        values = outcome.metrics
        notes = outcome.notes
        units = END_TO_END
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    for name, entry in metrics.items():
        print(f"metric {name} {entry['value']} {entry['unit']}")
    for line in notes:
        print(line)
    print(f"operations attempted {outcome.attempted} failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"check FAILED: {problem}")
    print(f"checks {'passed' if not outcome.problems else 'FAILED'}")
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
