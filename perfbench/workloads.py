"""The three benchmark workloads.

Each workload makes its inputs from the seed alone and hands the
program only those inputs.  ``measure(seed, seconds)`` is the untraced
end-to-end run; ``fixed(seed)`` does a fixed amount of work (set-up
included) so that an untraced and a traced pass can be compared output
for output and wall for wall.  ``measure`` times its work in chunks --
a window of requests, one fleet, one scenario step -- in reference
seconds (:mod:`hostclock`: wall time net of steal, scaled by a host
probe run between chunks); output checks run between chunks, outside
the timed work.

* ``serve-cold-plan`` -- two closed-loop TCP clients against an
  in-process :class:`~repro.serve.server.PlanServer`; every request is
  a distinct (model, board, QoS) key, so every one misses the plan
  cache and runs ``pipeline.optimize``.  Set-up plans each
  (model, board) once, so DSE exploration lands in set-up.
* ``fleet-plan`` -- fresh :class:`~repro.fleet.scheduler.FleetScheduler`
  pools over seeded MobileNetV2 fleets of every registry board: per
  device DSE explore, MCKP and deploy replay.
* ``scenario-diurnal`` -- the ``bench_scenario`` lifecycle preset (24
  simulated hours, diurnal traffic plus a midday burst, ambient cycle,
  oracle twins, monitor on) at 500 devices: governor steps, re-pricing,
  the INA219 model, serve round trips and the SLO monitor.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.boards.registry import board_names
from repro.errors import OverloadedError, ReproError
from repro.fleet import FleetScheduler, aggregate_fleet, sample_fleet
from repro.nn import build_mbv2
from repro.optimize import MODERATE
from repro.scenario import (
    DAY_S,
    AmbientCycle,
    CompositeArrivals,
    DiurnalArrivals,
    PoissonBurstArrivals,
    ScenarioConfig,
    ScenarioEngine,
)
from repro.serve import PlanServer, ServeClient, ServeConfig, plan_digest

from hostclock import HostClock

#: Set-up is repeated this many times per run and reported as a median.
SETUP_REPEATS = 3


@dataclass
class Outcome:
    """What one pass of a workload did and whether its outputs held.

    Attributes:
        attempted / failed: operations tried and operations that failed.
        problems: every failed output check (empty when correct).
        digest: one digest over the pass's outputs (fixed passes).
        metrics: end-to-end values by metric name (measured passes).
        facts: workload counts the traced run reports per layer.
        notes: extra lines for the human-readable report.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digest: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)
    facts: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest_of(items: List[str]) -> str:
    return hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()


def _clock_notes(clock: HostClock, work: int, wall_s: float) -> List[str]:
    return [
        f"timed chunks {clock.wall_s:.3f} s wall, {clock.stolen_s:.3f} s "
        f"stolen from cpu {clock.cpu}; {len(clock.probes)} host probes, "
        f"median {clock.probe_median_s() * 1e3:.4f} ms",
        f"wall-clock throughput {work / wall_s:.6g} 1/s",
    ]


def _latency_metrics(latencies_s: List[float]) -> Dict[str, float]:
    deciles = statistics.quantiles(latencies_s, n=10, method="inclusive")
    return {
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
    }


# -- serve-cold-plan ---------------------------------------------------------

SERVE_MODELS = ("vww", "pd", "mbv2", "tiny")
SERVE_CLIENTS = 2
#: Set-up plans every (model, board) at this QoS; measured requests draw
#: theirs from QOS_RANGE, so none of them can hit a set-up entry.
WARM_QOS = 100.0
QOS_RANGE = (5.0, 95.0)
#: Requests every run completes, whatever the time budget; modelled
#: metrics and the traced comparison use exactly these, and peak RSS is
#: read once they are done.  Each distinct key leaves state behind in
#: the program (RSS grew about 7 MiB per 100 requests), so an RSS
#: read at the end of a timed run would track the host's speed.
SERVE_PREFIX = 512
#: Requests timed as one chunk (SERVE_PREFIX is a multiple).
SERVE_WINDOW = 16
#: Payloads re-planned on a cold pipeline and compared byte for byte.
COLD_CHECKS = 2


def serve_keys(seed: int, boards: List[str]) -> Iterator[Tuple[str, str, float]]:
    """Distinct (model, board, qos_percent) keys, each combination once
    per round of ``len(models) * len(boards)`` requests."""
    rng = random.Random(seed)
    combos = [(m, b) for m in SERVE_MODELS for b in boards]
    seen = set()
    while True:
        order = list(combos)
        rng.shuffle(order)
        for model, board in order:
            qos = round(rng.uniform(*QOS_RANGE), 3)
            while (model, board, qos) in seen:
                qos = round(rng.uniform(*QOS_RANGE), 3)
            seen.add((model, board, qos))
            yield model, board, qos


@dataclass
class _PlanRecord:
    """One answered or failed request; the full payload is kept only
    for the requests re-planned cold after the run."""

    index: int
    model: str
    board: str
    qos: float
    latency_s: float
    digest: Optional[str] = None
    energy_j: float = 0.0
    met: bool = False
    payload: Optional[Dict] = None
    error: Optional[str] = None


async def _serve_setup(boards: List[str]):
    server = PlanServer(ServeConfig())
    await server.start()
    clients: List[ServeClient] = []
    try:
        for i in range(SERVE_CLIENTS):
            client = ServeClient("127.0.0.1", server.port, client_id=f"c{i}")
            clients.append(await client.connect())
        for model in SERVE_MODELS:
            for board in boards:
                await clients[0].request(
                    "plan", model=model, board=board, qos_percent=WARM_QOS
                )
    except BaseException:
        await _serve_teardown(server, clients)
        raise
    return server, clients


async def _serve_teardown(server: PlanServer, clients: List[ServeClient]):
    for client in clients:
        await client.close()
    await server.stop()


async def _window(
    clients: List[ServeClient],
    keys: Iterator[Tuple[str, str, float]],
    first: int,
) -> List[Tuple[_PlanRecord, Optional[Dict]]]:
    """Requests ``first .. first + SERVE_WINDOW - 1`` in a closed loop:
    each client sends its next request once its last one answered, and
    the window ends when all of them have."""
    answers: List[Tuple[_PlanRecord, Optional[Dict]]] = []
    issued = itertools.count(first)
    stop = first + SERVE_WINDOW

    async def client_loop(client: ServeClient) -> None:
        while True:
            index = next(issued)
            if index >= stop:
                return
            model, board, qos = next(keys)
            record = _PlanRecord(index, model, board, qos, 0.0)
            result = None
            sent = time.perf_counter()
            try:
                result = await client.request(
                    "plan", model=model, board=board, qos_percent=qos
                )
            except OverloadedError:
                record.error = "shed"
            except ReproError as err:
                record.error = type(err).__name__
            record.latency_s = time.perf_counter() - sent
            answers.append((record, result))

    await asyncio.gather(*(client_loop(c) for c in clients))
    return answers


def _core(payload: Dict) -> Dict:
    return {k: v for k, v in payload.items() if k not in ("digest", "cached")}


def _check_answer(record: _PlanRecord, payload: Dict) -> List[str]:
    """Digest, cache-miss and budget checks on one answer; keeps its
    digest and modelled figures on the record."""
    tag = f"{record.model}/{record.board}/{record.qos}"
    problems = []
    record.digest = payload.get("digest")
    if plan_digest(_core(payload)) != record.digest:
        problems.append(f"digest does not recompute for {tag}")
    if payload.get("cached") is not False:
        problems.append(f"distinct key {tag} was served from cache")
    plan = payload["plan"]
    record.energy_j = plan["predicted_energy_j"]
    record.met = plan["predicted_latency_s"] <= payload["qos"]["budget_s"]
    if not record.met:
        problems.append(f"plan for {tag} misses its latency budget")
    return problems


def _check_cold(records: List[_PlanRecord], server: PlanServer) -> List[str]:
    """Re-plan the kept payloads on a cold pipeline, byte for byte."""
    problems = []
    for rec in records:
        if rec.payload is None:
            continue
        cold = server.service.plan_cold(
            rec.model, ("percent", float(rec.qos)), board_name=rec.board
        )
        if json.dumps(_core(cold), sort_keys=True) != json.dumps(
            _core(rec.payload), sort_keys=True
        ):
            problems.append(
                f"{rec.model}/{rec.board}/{rec.qos} differs from plan_cold"
            )
    return problems


@dataclass
class _ServeRun:
    records: List[_PlanRecord] = field(default_factory=list)
    #: Reference seconds of each request, and of all windows.
    latency_ref_s: List[float] = field(default_factory=list)
    ref_s: float = 0.0
    #: Wall seconds of all windows.
    wall_s: float = 0.0
    #: Peak RSS once the first SERVE_PREFIX requests were answered.
    rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)


async def _serve_loop(
    clients: List[ServeClient],
    seed: int,
    boards: List[str],
    seconds: Optional[float],
    clock: HostClock,
) -> _ServeRun:
    """Closed-loop windows: the first ``SERVE_PREFIX`` requests, then
    more until ``seconds`` have passed (``None``: the prefix only).
    A window's wall-to-reference scale applies to each of its requests;
    the answers are checked between windows, outside the timed work."""
    keys = serve_keys(seed, boards)
    keep = set(
        random.Random(seed + 1).sample(range(SERVE_PREFIX), COLD_CHECKS)
    )
    run = _ServeRun()
    deadline = None if seconds is None else time.perf_counter() + seconds
    while len(run.records) < SERVE_PREFIX or (
        deadline is not None and time.perf_counter() < deadline
    ):
        mark = clock.start()
        answers = await _window(clients, keys, len(run.records))
        wall, ref = clock.stop(mark)
        run.wall_s += wall
        run.ref_s += ref
        scale = ref / wall
        for record, payload in sorted(answers, key=lambda a: a[0].index):
            if payload is not None:
                run.problems += _check_answer(record, payload)
                if record.index in keep:
                    record.payload = payload
            run.latency_ref_s.append(record.latency_s * scale)
            run.records.append(record)
        if len(run.records) == SERVE_PREFIX:
            run.rss_mb = peak_rss_mb()
    return run


def _serve_outcome(records: List[_PlanRecord]) -> Outcome:
    failed = [r for r in records if r.error is not None]
    outcome = Outcome(attempted=len(records), failed=len(failed))
    shed = sum(1 for r in failed if r.error == "shed")
    outcome.notes.append(
        f"plan requests {len(records)}: failed {len(failed)} "
        f"(shed {shed}, error {len(failed) - shed})"
    )
    return outcome


async def _serve_measure(
    seed: int, seconds: float, clock: HostClock
) -> Outcome:
    boards = board_names()
    setups = []
    for repeat in range(SETUP_REPEATS):
        gc.collect()
        mark = clock.start()
        server, clients = await _serve_setup(boards)
        setups.append(clock.stop(mark)[1])
        if repeat < SETUP_REPEATS - 1:
            await _serve_teardown(server, clients)
    try:
        gc.collect()
        run = await _serve_loop(clients, seed, boards, seconds, clock)
        run.problems += _check_cold(run.records, server)
    finally:
        await _serve_teardown(server, clients)
    records = run.records
    outcome = _serve_outcome(records)
    outcome.problems = run.problems
    # A failed or refused request misses any latency limit: it counts
    # at the run's whole time.
    latencies = [
        lat if r.error is None else run.ref_s
        for r, lat in zip(records, run.latency_ref_s)
    ]
    prefix = records[:SERVE_PREFIX]
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run.rss_mb,
        "throughput_per_s": (outcome.attempted - outcome.failed) / run.ref_s,
        **_latency_metrics(latencies),
        "plan_energy_mj": statistics.mean(
            r.energy_j for r in prefix if r.error is None
        ) * 1e3,
        "qos_met_fraction": sum(r.met for r in prefix) / len(prefix),
    }
    outcome.notes += _clock_notes(
        clock, outcome.attempted - outcome.failed, run.wall_s
    )
    return outcome


async def _serve_fixed(seed: int) -> Outcome:
    boards = board_names()
    server, clients = await _serve_setup(boards)
    try:
        run = await _serve_loop(
            clients, seed, boards, None, HostClock(None, probe=False)
        )
    finally:
        await _serve_teardown(server, clients)
    outcome = _serve_outcome(run.records)
    outcome.problems = run.problems
    outcome.digest = _digest_of(
        sorted(r.digest for r in run.records if r.digest is not None)
    )
    return outcome


def serve_measure(seed: int, seconds: float, clock: HostClock) -> Outcome:
    return asyncio.run(_serve_measure(seed, seconds, clock))


def serve_fixed(seed: int) -> Outcome:
    return asyncio.run(_serve_fixed(seed))


# -- fleet-plan --------------------------------------------------------------

#: Devices of each registry board in one fleet.  Equal counts keep the
#: board mix -- which sets most of a fleet's planning cost -- the same
#: for every seed.  Eight-device fleets give a run enough of them for a
#: steady p90 of fleet planning time.
FLEET_DEVICES_PER_BOARD = 2
#: Fleets every run plans, whatever the time budget; modelled metrics
#: and the traced comparison use exactly these.
FLEET_PREFIX = 4
#: Fleets every timed run plans (one set-up each); peak RSS is read
#: once they are done.
FLEET_MIN = max(FLEET_PREFIX, SETUP_REPEATS)


def fleet_profiles(seed: int, index: int, boards: List[str]):
    """Fleet ``index`` of a run: each board's devices from
    :func:`~repro.fleet.variation.sample_fleet` on its own sub-seed,
    renumbered into one fleet."""
    profiles = []
    for b, board in enumerate(boards):
        sub_seed = int(np.random.SeedSequence([seed, index, b]).generate_state(1)[0])
        for profile in sample_fleet(
            FLEET_DEVICES_PER_BOARD, seed=sub_seed, boards=[board]
        ):
            profiles.append(replace(profile, device_id=len(profiles)))
    return profiles


@dataclass
class _FleetRun:
    """One planned fleet, reduced to what the metrics and checks need;
    ``setup_s`` and ``ref_s`` are reference seconds."""

    setup_s: float
    wall_s: float
    ref_s: float
    devices: int
    failed: int
    problems: List[str]
    energies_j: List[float]
    met: int
    digest: str
    width: int


def _plan_fleet(profiles, clock: HostClock) -> _FleetRun:
    gc.collect()
    mark = clock.start()
    model = build_mbv2()
    scheduler = FleetScheduler(model, qos_level=MODERATE)
    setup_s = clock.stop(mark)[1]
    mark = clock.start()
    results = scheduler.run(profiles)
    wall, ref = clock.stop(mark)
    planned = [r.optimized for r in results if r.optimized is not None]
    qos_s = planned[0].qos_s if planned else 0.0
    report = aggregate_fleet(model, qos_s, results)
    return _FleetRun(
        setup_s=setup_s,
        wall_s=wall,
        ref_s=ref,
        devices=len(results),
        failed=sum(
            1 for r in results if r.error is not None or r.quarantined
        ),
        problems=[
            f"device {r.device_id} plan misses its latency budget"
            for r in results
            if r.optimized is not None
            and r.optimized.plan.predicted_latency_s > r.optimized.qos_s
        ],
        energies_j=[opt.plan.predicted_energy_j for opt in planned],
        met=sum(1 for s in report.summaries if s.met_qos),
        digest=report.digest(),
        width=scheduler.max_workers,
    )


def _fleet_outcome(runs: List[_FleetRun]) -> Outcome:
    outcome = Outcome(
        attempted=sum(run.devices for run in runs),
        failed=sum(run.failed for run in runs),
    )
    for run in runs:
        outcome.problems += run.problems
    outcome.notes.append(
        f"devices {outcome.attempted} in {len(runs)} fleets: "
        f"failed {outcome.failed}"
    )
    return outcome


def fleet_measure(seed: int, seconds: float, clock: HostClock) -> Outcome:
    boards = board_names()
    runs: List[_FleetRun] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < FLEET_MIN or time.perf_counter() < deadline:
        profiles = fleet_profiles(seed, len(runs), boards)
        runs.append(_plan_fleet(profiles, clock))
        if len(runs) == FLEET_MIN:
            rss = peak_rss_mb()
    outcome = _fleet_outcome(runs)
    prefix = runs[:FLEET_PREFIX]
    outcome.metrics = {
        "setup_s": statistics.median(run.setup_s for run in runs),
        "peak_rss_mb": rss,
        "throughput_per_s": statistics.median(
            run.devices / run.ref_s for run in runs
        ),
        **_latency_metrics([run.ref_s for run in runs]),
        "plan_energy_mj": statistics.mean(
            e for run in prefix for e in run.energies_j
        ) * 1e3,
        "qos_met_fraction": sum(run.met for run in prefix)
        / sum(run.devices for run in prefix),
    }
    outcome.notes += _clock_notes(
        clock, outcome.attempted, sum(run.wall_s for run in runs)
    )
    return outcome


def fleet_fixed(seed: int) -> Outcome:
    boards = board_names()
    clock = HostClock(None, probe=False)
    runs = [
        _plan_fleet(fleet_profiles(seed, index, boards), clock)
        for index in range(FLEET_PREFIX)
    ]
    outcome = _fleet_outcome(runs)
    outcome.digest = _digest_of([run.digest for run in runs])
    outcome.facts["pool_width"] = runs[0].width
    return outcome


# -- scenario-diurnal --------------------------------------------------------

SCENARIO_DEVICES = 500
SCENARIO_TICK_S = 900.0
SCENARIO_ORACLE_STRIDE = 100
#: The preset's device population.  Re-sampling 500 devices per seed
#: moves the share of battery-clamped devices, and with it the replan
#: load, by about 10%; the seed drives the traffic instead.
SCENARIO_POPULATION_SEED = 0


def scenario_config(seed: int) -> ScenarioConfig:
    """``benchmarks/bench_scenario.build_config()`` at 500 devices, with
    its arrival streams drawn from ``seed`` (seed 0 is the preset).

    A fresh config per engine: arrival models consume their RNG streams.
    """
    burst_start = DAY_S * 0.5
    return ScenarioConfig(
        name="bench-diurnal-burst",
        devices=SCENARIO_DEVICES,
        horizon_s=DAY_S,
        tick_s=SCENARIO_TICK_S,
        seed=SCENARIO_POPULATION_SEED,
        arrivals=CompositeArrivals(
            [
                DiurnalArrivals(
                    mean_per_hour=1.0, amplitude=0.8, seed=seed + 1
                ),
                PoissonBurstArrivals(
                    base_per_hour=0.1,
                    bursts=((burst_start, burst_start + 1800.0, 8.0),),
                    seed=seed + 2,
                ),
            ]
        ),
        ambient=AmbientCycle(amplitude_c=4.0),
        oracle_stride=SCENARIO_ORACLE_STRIDE,
    )


@dataclass
class _ScenarioRun:
    """One simulated day; times are reference seconds unless ``wall``."""

    setup_s: float
    loop_s: float
    step_s: List[float]
    loop_wall_s: float
    loop_cpu_s: float
    report: object
    plan_energy_j: float
    width: int


def _scenario_setup(
    seed: int, clock: HostClock
) -> Tuple[ScenarioEngine, float]:
    gc.collect()
    mark = clock.start()
    engine = ScenarioEngine(scenario_config(seed))
    try:
        engine.start()
    except BaseException:
        engine.close()
        raise
    return engine, clock.stop(mark)[1]


def _scenario_setup_only(seed: int, clock: HostClock) -> float:
    engine, setup_s = _scenario_setup(seed, clock)
    engine.close()
    return setup_s


def _run_scenario(seed: int, clock: HostClock) -> _ScenarioRun:
    """Set up and run one day, timing each step."""
    engine, setup_s = _scenario_setup(seed, clock)
    try:
        steps, loop_s, loop_wall = [], 0.0, 0.0
        gc.collect()
        loop_cpu = time.process_time()
        more = True
        while more:
            mark = clock.start()
            more = engine.step()
            wall, step_s = clock.stop(mark)
            loop_wall += wall
            loop_s += step_s
            if more:
                steps.append(step_s)
        loop_cpu = time.process_time() - loop_cpu
        report = engine.finish()
        energy = statistics.mean(
            g.plan.predicted_energy_j for g in engine.governors.values()
        )
        width = engine.scheduler.max_workers
    finally:
        engine.close()
    return _ScenarioRun(
        setup_s, loop_s, steps, loop_wall, loop_cpu, report, energy, width
    )


def _scenario_outcome(run: _ScenarioRun) -> Outcome:
    report = run.report
    serve = report.serve
    attempted = sum(serve["requests"].values())
    errors = dict(serve["errors"])
    infeasible = errors.pop("qos_infeasible", 0)
    failed = sum(serve["sheds"].values()) + sum(errors.values())
    outcome = Outcome(attempted=attempted, failed=failed)
    requested = report.replans["requested"]
    for op in ("reprice", "telemetry"):
        if serve["requests"].get(op, 0) != requested:
            outcome.problems.append(
                f"{serve['requests'].get(op, 0)} {op} requests for "
                f"{requested} replans"
            )
    if report.fleet.failures:
        outcome.problems.append(
            f"{report.fleet.failures} devices failed to deploy"
        )
    outcome.notes.append(
        f"serve requests {attempted}: failed {failed} "
        f"(shed {sum(serve['sheds'].values())}, errors {errors})"
    )
    outcome.notes.append(
        f"qos_infeasible replies {infeasible} of {attempted} "
        "(answers, not failures)"
    )
    outcome.notes.append(
        f"epochs {report.demand['epochs_run']} in {run.loop_wall_s:.3f} s "
        f"wall (cpu {run.loop_cpu_s:.3f} s), "
        f"replans requested {requested} applied {report.replans['applied']}"
    )
    outcome.facts = {
        "pool_width": run.width,
        "replan_applied_ratio": (
            report.replans["applied"] / requested if requested else 0.0
        ),
        "storm_ticks": report.replans["storm_ticks"],
    }
    return outcome


def scenario_measure(seed: int, seconds: float, clock: HostClock) -> Outcome:
    runs = [_run_scenario(seed, clock)]
    # Peak RSS over one set-up and one simulated day.
    rss = peak_rss_mb()
    while sum(run.loop_wall_s for run in runs) < seconds:
        runs.append(_run_scenario(seed, clock))
    setups = [run.setup_s for run in runs]
    while len(setups) < SETUP_REPEATS:
        setups.append(_scenario_setup_only(seed, clock))
    first = runs[0]
    outcome = _scenario_outcome(first)
    for run in runs[1:]:
        if run.report.digest() != first.report.digest():
            outcome.problems.append("same-seed scenario reruns differ")
    epochs = sum(run.report.demand["epochs_run"] for run in runs)
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "throughput_per_s": epochs / sum(run.loop_s for run in runs),
        **_latency_metrics([s for run in runs for s in run.step_s]),
        "plan_energy_mj": first.plan_energy_j * 1e3,
        "qos_met_fraction": first.report.qos_met_fraction,
    }
    outcome.notes += _clock_notes(
        clock, epochs, sum(run.loop_wall_s for run in runs)
    )
    return outcome


def scenario_fixed(seed: int) -> Outcome:
    run = _run_scenario(seed, HostClock(None, probe=False))
    outcome = _scenario_outcome(run)
    outcome.digest = run.report.digest()
    return outcome


#: name -> (measure, fixed)
WORKLOADS = {
    "serve-cold-plan": (serve_measure, serve_fixed),
    "fleet-plan": (fleet_measure, fleet_fixed),
    "scenario-diurnal": (scenario_measure, scenario_fixed),
}
