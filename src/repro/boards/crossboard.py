"""Cross-board DSE: which board meets a QoS at the least energy?

The registry makes the paper's per-layer DAE x DVFS exploration a
*portable* procedure; this module runs it across every registered
target against one common absolute latency budget and ranks the
feasible boards by deployed energy.

QoS anchoring: callers either supply an absolute ``qos_s`` or a
``qos_percent`` slack, which is resolved against the **reference
board's** TinyEngine baseline (the F767 by default).  Anchoring on one
board keeps the budget identical across candidates -- otherwise every
board would chase a different target and the ranking would be
meaningless.

Per-board results record the HFO frequency histogram of the winning
plan plus the NPU offload count, which is how the report surfaces the
STM32N6 behaviour the issue calls out: NPU-mapped layers price as
fixed-latency segments, so their candidate points are identical across
the whole HFO ladder (frequency-insensitive) and the CPU-side layers
alone spread over the grid.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..digest import canonical_digest
from ..errors import QoSInfeasibleError
from ..nn.graph import Model
from ..pipeline import DAEDVFSPipeline
from .registry import DEFAULT_BOARD, board_names, get_spec


def _hfo_histogram(plan) -> Dict[str, int]:
    """Plan's HFO frequency histogram, MHz label -> layer count."""
    hist: Dict[str, int] = {}
    for layer_plan in plan.layer_plans.values():
        label = f"{layer_plan.hfo.sysclk_hz / 1e6:g}MHz"
        hist[label] = hist.get(label, 0) + 1
    return dict(sorted(hist.items()))


def _npu_layer_count(board, model: Model) -> int:
    """Number of model layers the board's NPU would absorb."""
    if board.npu is None:
        return 0
    return sum(1 for node in model.nodes if board.npu.supports(node.layer.kind))


def cross_board_report(
    model: Model,
    qos_s: Optional[float] = None,
    qos_percent: Optional[float] = None,
    boards: Optional[Sequence[str]] = None,
    reference: str = DEFAULT_BOARD,
    solver: str = "dp",
) -> dict:
    """Optimize + deploy ``model`` on every candidate board.

    Args:
        model: the network to plan.
        qos_s: absolute latency budget; exactly one of ``qos_s`` /
            ``qos_percent`` must be given.
        qos_percent: slack over the *reference* board's baseline
            latency (30 -> baseline * 1.30).
        boards: candidate board names (default: every registered one).
        reference: board anchoring the relative QoS budget.
        solver: pipeline solver ("dp" or "greedy").

    Returns:
        A JSON-ready report: per-board feasibility, deployed energy /
        latency, plan shape (HFO histogram, relocks, NPU layer count)
        and an energy ranking of the boards that met the budget, plus
        a deterministic content digest.
    """
    if (qos_s is None) == (qos_percent is None):
        raise ValueError("provide exactly one of qos_s or qos_percent")
    names = list(boards) if boards is not None else board_names()

    reference_baseline_s = None
    if qos_s is None:
        ref_board = get_spec(reference).build()
        ref_pipeline = DAEDVFSPipeline(board=ref_board, solver=solver)
        reference_baseline_s = ref_pipeline.baseline_latency_s(model)
        qos_s = reference_baseline_s * (1.0 + qos_percent / 100.0)

    rows: List[dict] = []
    for name in names:
        spec = get_spec(name)
        board = spec.build()
        pipeline = DAEDVFSPipeline(board=board, solver=solver)
        row = {
            "board": name,
            "core": spec.core,
            "npu_layers": _npu_layer_count(board, model),
            "feasible": False,
            "met_qos": False,
            "energy_j": None,
            "latency_s": None,
            "baseline_latency_s": pipeline.baseline_latency_s(model),
            "min_latency_s": None,
            "relock_count": None,
            "hfo_histogram": None,
            "spec_digest": spec.digest(),
        }
        try:
            result = pipeline.optimize(model, qos_s=qos_s)
        except QoSInfeasibleError as exc:
            row["min_latency_s"] = exc.min_latency_s
            rows.append(row)
            continue
        report = pipeline.deploy(model, result.plan)
        row.update(
            feasible=True,
            met_qos=report.met_qos,
            energy_j=report.energy_j,
            latency_s=report.latency_s,
            relock_count=report.relock_count,
            hfo_histogram=_hfo_histogram(result.plan),
        )
        rows.append(row)

    ranking = sorted(
        (r["board"] for r in rows if r["feasible"] and r["met_qos"]),
        key=lambda n: next(r["energy_j"] for r in rows if r["board"] == n),
    )
    payload = {
        "model": model.name,
        "qos_s": qos_s,
        "qos_percent": qos_percent,
        "reference": reference if reference_baseline_s is not None else None,
        "reference_baseline_s": reference_baseline_s,
        "solver": solver,
        "boards": rows,
        "ranking": ranking,
        "winner": ranking[0] if ranking else None,
    }
    payload["digest"] = canonical_digest(payload)
    return payload
