"""Board descriptors: one declarative spec per supported target.

A :class:`BoardSpec` is the registry's unit of truth: everything that
distinguishes one MCU target from another -- clock-tree constraints,
voltage/frequency operating points, calibrated power constants, the
core timing model, the memory/cache geometry and (optionally) an NPU
offload map -- collected in one frozen dataclass, plus the grid
parameters from which the board's native :class:`~repro.dse.space.DesignSpace`
is derived.

``BoardSpec.build()`` materialises a fresh stateful
:class:`~repro.mcu.board.Board` from the descriptor.  Specs are
immutable and shared; boards are mutable (the RCC carries clock state)
and per-caller.

The default STM32F767ZI target bypasses the generic builder entirely
and delegates to :func:`~repro.mcu.board.make_nucleo_f767zi`, so its
boards -- and every plan, fleet report and scenario digest derived
from them -- stay bit-identical to the pre-registry library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from ..clock.configs import (
    ClockConfig,
    PAPER_LFO_HZ,
    PAPER_PLLM_VALUES,
    PAPER_PLLN_VALUES,
    hfo_grid,
    lfo_config,
)
from ..clock.limits import ClockTreeLimits, resolve_limits
from ..clock.rcc import RCC
from ..clock.switching import SwitchCostModel
from ..digest import canonical_digest
from ..errors import BoardError
from ..mcu.board import Board
from ..mcu.cache import CacheModel
from ..mcu.core import CoreModel, CoreTimingParams
from ..mcu.memory import MemoryMap
from ..mcu.npu import NPUModel
from ..power.model import BoardPowerModel, PowerModelParams

@dataclass(frozen=True)
class BoardSpec:
    """Declarative description of one MCU target.

    Attributes:
        name: registry key and ``Board.name``.
        title: human-readable board title (dev-kit name).
        core: CPU core, e.g. ``"cortex-m7"``.
        family: vendor family, e.g. ``"stm32f7"``.
        description: one-paragraph summary for ``boards --list``.
        calibration: provenance of the timing/power constants.
        limits: clock-tree constraint bundle; ``None`` means the
            default STM32F7 tree (and keeps F7 configs digest-stable).
        lfo_hz: HSE-direct LFO frequency for memory-bound segments.
        hse_hz: crystal feeding the PLL grid.
        plln_values / pllm_values / pllp: the board's HFO ladder.
        power_params: calibrated power model constants (``None`` =
            F767 defaults).
        timing_params: calibrated core timing constants (``None`` =
            F767 defaults).
        cache: L1/system cache model (``None`` = F767 16 KB).
        memory_map: flash/SRAM geometry (``None`` = F767 map).
        switch_cost_model: clock-transition pricing; ``None`` derives
            ``pll_relock_s`` from ``limits.pll_lock_time_s`` so the
            DSE's switch budget always agrees with the RCC's actual
            re-lock stall.
        npu: optional NPU offload descriptor.
        builder: full override -- ``(spec, power_params) -> Board`` --
            used by the F767/F746 entries to delegate to the legacy
            factories.
    """

    name: str
    title: str
    core: str
    family: str
    description: str
    calibration: str = ""
    limits: Optional[ClockTreeLimits] = None
    lfo_hz: float = PAPER_LFO_HZ
    hse_hz: float = PAPER_LFO_HZ
    plln_values: Tuple[int, ...] = PAPER_PLLN_VALUES
    pllm_values: Tuple[int, ...] = PAPER_PLLM_VALUES
    pllp: int = 2
    power_params: Optional[PowerModelParams] = None
    timing_params: Optional[CoreTimingParams] = None
    cache: Optional[CacheModel] = None
    memory_map: Optional[MemoryMap] = None
    switch_cost_model: Optional[SwitchCostModel] = None
    npu: Optional[NPUModel] = None
    builder: Optional[
        Callable[["BoardSpec", Optional[PowerModelParams]], Board]
    ] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise BoardError("board spec needs a non-empty name")
        lim = resolve_limits(self.limits)
        if self.lfo_hz <= 0 or self.hse_hz <= 0:
            raise BoardError(f"{self.name}: lfo_hz and hse_hz must be positive")
        if not (lim.hse_min_hz <= self.hse_hz <= lim.hse_max_hz):
            raise BoardError(
                f"{self.name}: hse_hz {self.hse_hz:.0f} outside the clock "
                f"tree's HSE window [{lim.hse_min_hz:.0f}, {lim.hse_max_hz:.0f}]"
            )
        if not self.plln_values or not self.pllm_values:
            raise BoardError(f"{self.name}: empty PLL ladder")

    # -- materialisation -------------------------------------------------

    def build(
        self, power_params: Optional[PowerModelParams] = None
    ) -> Board:
        """Build a fresh :class:`Board` from this descriptor.

        Args:
            power_params: override the spec's calibrated power
                constants -- the fleet's device-variation hook, which
                perturbs each unit's power model while keeping the
                timing side nominal.
        """
        if self.builder is not None:
            return self.builder(self, power_params)
        limits = self.limits
        switch = self.switch_cost_model or SwitchCostModel(
            pll_relock_s=resolve_limits(limits).pll_lock_time_s
        )
        rcc = RCC(
            cost_model=switch,
            initial=lfo_config(self.lfo_hz, limits=limits),
            limits=limits,
        )
        return Board(
            name=self.name,
            rcc=rcc,
            power_model=BoardPowerModel(
                power_params if power_params is not None else self.power_params
            ),
            core=CoreModel(params=self.timing_params, memory_map=self.memory_map),
            cache=self.cache or CacheModel(),
            switch_cost_model=switch,
            npu=self.npu,
            space_factory=self.design_space,
        )

    def base_power_params(self) -> PowerModelParams:
        """The nominal power constants device variation spreads around."""
        return self.power_params or PowerModelParams()

    def design_space(self, board: Board):
        """The board's native exploration grid (``Board.space_factory``).

        Mirrors :func:`~repro.dse.space.paper_design_space`: the full
        PLL grid on this spec's HSE, iso-frequency-pruned against the
        board's power model, over the paper's granularity ladder.
        """
        from ..dse.space import DesignSpace, prune_iso_frequency
        from ..engine.cost import PAPER_GRANULARITIES

        configs = prune_iso_frequency(
            self.grid_configs(), board.power_model
        )
        return DesignSpace(
            granularities=PAPER_GRANULARITIES,
            hfo_configs=tuple(configs),
            lfo=lfo_config(self.lfo_hz, limits=self.limits),
        )

    def grid_configs(self) -> Tuple[ClockConfig, ...]:
        """The unpruned HFO candidate grid of this spec."""
        return tuple(
            hfo_grid(
                hse_hz=self.hse_hz,
                plln_values=self.plln_values,
                pllm_values=self.pllm_values,
                pllp=self.pllp,
                limits=self.limits,
            )
        )

    # -- introspection ---------------------------------------------------

    def sysclk_ladder_hz(self) -> Tuple[float, ...]:
        """Distinct achievable SYSCLK frequencies, ascending."""
        return tuple(sorted({c.sysclk_hz for c in self.grid_configs()}))

    def to_dict(self) -> dict:
        """JSON-friendly descriptor summary (``boards --show``)."""
        lim = resolve_limits(self.limits)
        power = self.power_params or PowerModelParams()
        timing = self.timing_params or CoreTimingParams()
        data = {
            "name": self.name,
            "title": self.title,
            "core": self.core,
            "family": self.family,
            "description": self.description,
            "calibration": self.calibration,
            "clock": {
                "tree": lim.to_dict(),
                "hse_hz": self.hse_hz,
                "lfo_hz": self.lfo_hz,
                "plln_values": list(self.plln_values),
                "pllm_values": list(self.pllm_values),
                "pllp": self.pllp,
                "sysclk_ladder_hz": list(self.sysclk_ladder_hz()),
            },
            "power": {
                "p_board_static_w": power.p_board_static_w,
                "p_mcu_leakage_w": power.p_mcu_leakage_w,
                "k_core_w_per_hz": power.k_core_w_per_hz,
                "vos_steps": [list(step) for step in power.vos_steps],
            },
            "timing": {
                "cycles_per_mac_conv": timing.cycles_per_mac_conv,
                "cycles_per_mac_pointwise": timing.cycles_per_mac_pointwise,
                "cycles_per_mac_depthwise": timing.cycles_per_mac_depthwise,
            },
            "cache_bytes": (self.cache or CacheModel()).capacity_bytes,
            "npu": None,
        }
        if self.npu is not None:
            data["npu"] = {
                "name": self.npu.name,
                "macs_per_cycle": self.npu.macs_per_cycle,
                "clock_hz": self.npu.clock_hz,
                "active_power_w": self.npu.active_power_w,
                "dispatch_overhead_s": self.npu.dispatch_overhead_s,
                "throughput_gops": self.npu.throughput_gops(),
                "supported_kinds": list(self.npu.supported_kinds),
            }
        return data

    def digest(self) -> str:
        """Deterministic content hash of the descriptor summary."""
        return canonical_digest(self.to_dict())
