"""Design-space definition for the DAE x clocking co-exploration.

The paper's Step 2 (Sec. III-B) explores three axes per layer:

* the decoupling granularity ``g`` in {0, 2, 4, 8, 12, 16};
* the HFO clock: PLL configurations with PLLN in {75, 100, 150, 168,
  216, 336, 432} and PLLM in {25, 50} on the 50 MHz HSE (PLLP = 2);
* the LFO clock, fixed to the HSE at 50 MHz.

:func:`paper_design_space` builds exactly that space.  Iso-frequency
PLL configurations are pruned to the minimum-power representative
(the Sec. II-A selection rule), since a dominated clock tuple can
never appear in a Pareto-optimal layer solution.
:func:`design_space_for` picks a board's canonical space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..clock.configs import (
    ClockConfig,
    PAPER_LFO_HZ,
    hfo_grid,
    iso_frequency_groups,
    lfo_config,
)
from ..engine.cost import PAPER_GRANULARITIES
from ..errors import DesignSpaceError
from ..power.model import BoardPowerModel


@dataclass(frozen=True)
class DesignSpace:
    """One (granularities x HFO configs) exploration space.

    Attributes:
        granularities: DAE granularity values; must include 0 so the
            undecoupled configuration is always a candidate.
        hfo_configs: candidate HFO clock configurations.
        lfo: the LFO clock shared by all memory-bound segments.
    """

    granularities: Tuple[int, ...] = PAPER_GRANULARITIES
    hfo_configs: Tuple[ClockConfig, ...] = ()
    lfo: ClockConfig = field(default_factory=lfo_config)

    def __post_init__(self) -> None:
        if not self.granularities:
            raise DesignSpaceError("design space needs at least one granularity")
        if any(g < 0 for g in self.granularities):
            raise DesignSpaceError("granularities must be >= 0")
        if 0 not in self.granularities:
            raise DesignSpaceError(
                "granularity 0 (no DAE) must be part of the space so the "
                "input model is always a candidate"
            )
        if not self.hfo_configs:
            raise DesignSpaceError("design space needs at least one HFO config")

    def fingerprint(self) -> Tuple:
        """Hashable identity of the exploration space, for cache keys.

        Two spaces with equal fingerprints price every candidate
        identically given the same board, so exploration clouds and
        Pareto fronts keyed on (model fingerprint, space fingerprint)
        can be reused across QoS levels and uniform-HFO sweeps.
        """
        return (self.granularities, self.hfo_configs, self.lfo)

    @property
    def size_per_dae_layer(self) -> int:
        """Candidate count for a DAE-eligible layer."""
        dae_granularities = sum(1 for g in self.granularities if g > 0)
        # g = 0 pairs with every HFO; each g > 0 also pairs with every HFO.
        return (1 + dae_granularities) * len(self.hfo_configs)

    def frequencies_hz(self) -> List[float]:
        """Distinct HFO SYSCLK frequencies, ascending."""
        return sorted({config.sysclk_hz for config in self.hfo_configs})


def prune_iso_frequency(
    configs: Sequence[ClockConfig], power_model: BoardPowerModel
) -> List[ClockConfig]:
    """Keep the minimum-power config per distinct SYSCLK frequency."""
    groups: Dict[float, List[ClockConfig]] = iso_frequency_groups(configs)
    pruned = [
        min(
            group,
            key=lambda c: (power_model.active_power(c), c.describe()),
        )
        for group in groups.values()
    ]
    return sorted(pruned, key=lambda c: c.sysclk_hz)


def paper_design_space(
    power_model: Optional[BoardPowerModel] = None,
    lfo_hz: float = PAPER_LFO_HZ,
) -> DesignSpace:
    """The exact exploration space of the paper's Sec. III-B."""
    model = power_model or BoardPowerModel()
    configs = prune_iso_frequency(hfo_grid(), model)
    return DesignSpace(
        granularities=PAPER_GRANULARITIES,
        hfo_configs=tuple(configs),
        lfo=lfo_config(lfo_hz),
    )


def design_space_for(board) -> DesignSpace:
    """A board's canonical design space: its native grid, else the paper's.

    Boards carrying their own design space (non-F7 clock trees, via
    ``Board.space_factory``) plan over it; every other board plans
    over :func:`paper_design_space` pruned with its power model.
    """
    if board.space_factory is not None:
        return board.space_factory(board)
    return paper_design_space(board.power_model)


#: Candidate ladder for the adaptive granularity policy.
ADAPTIVE_GRANULARITY_LADDER = (2, 4, 8, 12, 16, 24, 32, 48, 64)


def adaptive_granularities(board, model, node) -> Tuple[int, ...]:
    """Layer-aware granularity grid (extension beyond the paper).

    The paper fixes g in {0, 2, 4, 8, 12, 16} for every layer but
    notes the best value "depends on both board-related specifications
    (e.g. cache size) as well as code-related characteristics (e.g.
    number of output channels and kernel size)" (Sec. III-B).  This
    policy derives the grid per layer: candidates from a geometric
    ladder, capped at the largest group whose working set still fits
    the usable cache (buffering beyond that only buys refetch misses)
    and at the layer's own unit count.

    Args:
        board: provides the cache model.
        model: the graph (for input shapes).
        node: the layer to size.

    Returns:
        A granularity tuple always containing 0 (the undecoupled
        candidate), suitable for :class:`DesignSpace.granularities`.
    """
    from ..nn.layers.base import LayerKind

    layer = node.layer
    if not layer.supports_dae:
        return (0,)
    in_shape = model.input_shapes_of(node)[0]
    h, w, c = in_shape
    if layer.kind is LayerKind.DEPTHWISE_CONV:
        out_h, out_w, _ = node.output_shape
        unit_bytes = h * w + out_h * out_w + layer.kernel * layer.kernel + 4
        units = c
    else:
        unit_bytes = c + layer.out_channels
        units = h * w
    usable = board.cache.usable_bytes
    fit_cap = max(2, int(usable // max(1, unit_bytes)))
    grid = [0]
    for g in ADAPTIVE_GRANULARITY_LADDER:
        if g > units or g > fit_cap:
            break
        grid.append(g)
    if len(grid) == 1:
        grid.append(2)  # always offer at least the smallest decoupling
    return tuple(grid)
