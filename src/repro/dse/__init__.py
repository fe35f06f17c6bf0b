"""Design-space exploration: space, per-layer sweep, Pareto extraction."""

from .explorer import DSEExplorer, LayerCostModel, SolutionPoint
from .pareto import hypervolume_2d, is_pareto_optimal, pareto_front
from .space import (
    ADAPTIVE_GRANULARITY_LADDER,
    DesignSpace,
    adaptive_granularities,
    design_space_for,
    paper_design_space,
    prune_iso_frequency,
)

__all__ = [
    "DSEExplorer",
    "LayerCostModel",
    "SolutionPoint",
    "hypervolume_2d",
    "is_pareto_optimal",
    "pareto_front",
    "ADAPTIVE_GRANULARITY_LADDER",
    "DesignSpace",
    "adaptive_granularities",
    "design_space_for",
    "paper_design_space",
    "prune_iso_frequency",
]
