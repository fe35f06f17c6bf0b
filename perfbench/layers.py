"""The layers the traced run times, and what each is predicted to move.

Each :class:`Layer` names the program functions it wraps as
``"module:Class.attr"`` (a method, patched on its class) or
``"module:attr"`` (a module function, patched in the module that
calls it, since ``from x import f`` copies the name).  ``predicts``
says which end-to-end metric, on which workload, a change to the layer
should move; perf changes cite these names.  Nothing under ``src/``
is edited: :func:`install` patches from the outside and the returned
:class:`~layertimer.Patches` restores every original object.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Tuple

from layertimer import LayerTimer, Patches, carry_context


@dataclass(frozen=True)
class Layer:
    """One traced layer: its metric prefix, targets and prediction."""

    name: str
    targets: Tuple[str, ...]
    predicts: str


#: Timed layers; each reports ``<name>.calls``, ``.incl_s``, ``.self_s``.
LAYERS: Tuple[Layer, ...] = (
    Layer(
        "serve.handle_request",
        ("repro.serve.server:PlanServer.handle_request",),
        "self time is transport + admission + batcher wait: "
        "latency_p50_ms/latency_p90_ms on serve-cold-plan, "
        "throughput_per_s on scenario-diurnal",
    ),
    Layer(
        "serve.plan",
        ("repro.serve.service:PlanService.plan",),
        "throughput_per_s on serve-cold-plan",
    ),
    Layer(
        "serve.reprice",
        ("repro.serve.service:PlanService.reprice",),
        "throughput_per_s on scenario-diurnal",
    ),
    Layer(
        "pipeline.optimize",
        ("repro.pipeline:DAEDVFSPipeline.optimize",),
        "throughput_per_s on serve-cold-plan and fleet-plan",
    ),
    Layer(
        "pipeline.deploy",
        ("repro.pipeline:DAEDVFSPipeline.deploy",),
        "throughput_per_s on fleet-plan",
    ),
    Layer(
        "pipeline.replan",
        ("repro.pipeline:DAEDVFSPipeline.replan",),
        "throughput_per_s on scenario-diurnal",
    ),
    Layer(
        "dse.explore_model",
        ("repro.dse.explorer:DSEExplorer.explore_model",),
        "throughput_per_s on fleet-plan; only setup_s on serve-cold-plan",
    ),
    Layer(
        "dse.explore_layer",
        (
            "repro.dse.explorer:DSEExplorer.explore_layer",
            "repro.fleet.pricing:SharedComponentExplorer.explore_layer",
        ),
        "throughput_per_s on fleet-plan; only setup_s on serve-cold-plan",
    ),
    Layer(
        "optimize.solve_mckp_dp",
        ("repro.pipeline:solve_mckp_dp",),
        "throughput_per_s and latency_p90_ms on serve-cold-plan, "
        "throughput_per_s on fleet-plan",
    ),
    Layer(
        "optimize.reprice_classes",
        (
            "repro.serve.service:reprice_classes",
            "repro.fleet.governor:reprice_classes",
        ),
        "throughput_per_s on scenario-diurnal",
    ),
    Layer(
        "engine.runtime_run",
        (
            "repro.engine.runtime:DVFSRuntime.run",
            "repro.fleet.pricing:ReplayingRuntime.run",
        ),
        "throughput_per_s on scenario-diurnal and fleet-plan",
    ),
    Layer(
        "power.sensor_measure",
        ("repro.power.sensor:INA219Sensor.measure",),
        "throughput_per_s on scenario-diurnal",
    ),
    Layer(
        "fleet.plan_device",
        ("repro.fleet.scheduler:FleetScheduler.plan_device",),
        "throughput_per_s on fleet-plan; setup_s on scenario-diurnal",
    ),
    Layer(
        "fleet.governor_step",
        ("repro.fleet.governor:FleetGovernor.step",),
        "throughput_per_s on scenario-diurnal",
    ),
    Layer(
        "fleet.apply_replan",
        ("repro.fleet.governor:FleetGovernor.apply_replan",),
        "throughput_per_s on scenario-diurnal",
    ),
    Layer(
        "scenario.step",
        ("repro.scenario.engine:ScenarioEngine.step",),
        "self time is event-loop overhead: throughput_per_s on "
        "scenario-diurnal",
    ),
    Layer(
        "scenario.bridge_request",
        ("repro.scenario.engine:ServeBridge.request",),
        "throughput_per_s on scenario-diurnal",
    ),
    Layer(
        "obs.series_sample",
        ("repro.obs.series:SeriesStore.sample",),
        "throughput_per_s on scenario-diurnal",
    ),
    Layer(
        "obs.slo_evaluate",
        ("repro.obs.slo:SLOEvaluator.evaluate",),
        "throughput_per_s on scenario-diurnal",
    ),
)

ENERGY_ADD = "power.energy_add.calls"
SHEDS = "serve.shed"
CACHE_HIT = "serve.cache.hit"
CACHE_MISS = "serve.cache.miss"

#: Count-only probes, target -> counter.  ``EnergyAccount.add`` is the
#: hottest call of all; a timed wrapper would cost more than its work.
COUNTED = {
    "repro.power.energy:EnergyAccount.add": ENERGY_ADD,
    "repro.serve.metrics:ServeMetrics.record_shed": SHEDS,
}
#: Counts plan-cache hits and misses by the payload it returns.
CACHE_GET = "repro.serve.cache:PlanCache.get"
#: Collects every trace builder, whose own counters give the hit ratio.
TRACE_BUILDER_INIT = "repro.engine.cost:TraceBuilder.__init__"
#: The executor hop after which a planning call keeps its requesting
#: ``serve.handle_request`` as parent, so that layer's self time
#: excludes the planning it waits for.
BATCHER_WRAP = "repro.serve.batcher:wrap"


def resolve(target: str) -> Tuple[Any, str]:
    """``"module:Class.attr"`` or ``"module:attr"`` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _cache_probe(timer: LayerTimer, get: Callable) -> Callable:
    def probed_get(self, key):
        payload = get(self, key)
        timer.count(CACHE_HIT if payload is not None else CACHE_MISS)
        return payload

    return probed_get


def _collector(builders: list, init: Callable) -> Callable:
    def init_and_collect(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builders.append(self)

    return init_and_collect


def install(timer: LayerTimer, trace_builders: list) -> Patches:
    """Wrap every layer and probe into ``timer``; returns the patches.

    ``trace_builders`` collects each ``TraceBuilder`` constructed while
    the patches are in place, so the caller can read their hit/miss
    counters afterwards.
    """
    patches = Patches()
    wrappers = [
        (target, lambda fn, name=layer.name: timer.timed(name, fn))
        for layer in LAYERS
        for target in layer.targets
    ]
    wrappers += [
        (target, lambda fn, name=name: timer.counted(name, fn))
        for target, name in COUNTED.items()
    ]
    wrappers += [
        (CACHE_GET, lambda fn: _cache_probe(timer, fn)),
        (TRACE_BUILDER_INIT, lambda fn: _collector(trace_builders, fn)),
        (BATCHER_WRAP, carry_context),
    ]
    try:
        for target, make in wrappers:
            patches.set(*resolve(target), make)
    except BaseException:
        patches.restore()
        raise
    return patches
