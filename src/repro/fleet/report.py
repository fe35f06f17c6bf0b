"""Fleet-level aggregation of per-device planning and telemetry.

Turns a fleet run (device results from the scheduler, optional
governor telemetry) into the numbers a deployment operator reads:
energy/latency distributions across the population, the share of
devices meeting their QoS budget, how many re-plans the governor
spent, and the fleet-aggregated frequency/granularity histograms
(the Fig. 6 statistics of :mod:`repro.analysis.figures`, summed over
devices instead of layers of one device).

Everything here is deterministic: summaries are keyed and sorted by
device id, no wall-clock times enter the report, and :meth:`digest`
hashes the full-precision rows -- two runs of the same fleet must
produce the same digest, which the CLI prints and the tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.figures import frequency_histogram, granularity_histogram
from ..digest import report_digest
from ..nn.graph import Model
from .governor import GovernorResult
from .scheduler import DeviceResult


@dataclass(frozen=True)
class DeviceSummary:
    """One device's row of the fleet report."""

    device_id: int
    energy_j: float = 0.0
    latency_s: float = 0.0
    met_qos: bool = False
    replans: int = 0
    epochs_met: int = 0
    epochs: int = 0
    converged: bool = True
    final_temperature_c: float = 0.0
    final_charge: float = 0.0
    error: Optional[str] = None
    #: Board target of heterogeneous fleets.  ``None`` (homogeneous
    #: default-board fleets) keeps the row -- and the fleet digest --
    #: byte-identical to pre-registry reports.
    board: Optional[str] = None


@dataclass
class FleetReport:
    """Aggregated outcome of one fleet run."""

    model_name: str
    qos_s: float
    summaries: List[DeviceSummary] = field(default_factory=list)
    frequency_hist: Dict[float, int] = field(default_factory=dict)
    granularity_hist: Dict[int, int] = field(default_factory=dict)

    # -- population statistics ---------------------------------------------------

    @property
    def n_devices(self) -> int:
        """Fleet size (failed devices included)."""
        return len(self.summaries)

    @property
    def planned(self) -> List[DeviceSummary]:
        """Successfully planned devices."""
        return [s for s in self.summaries if s.error is None]

    @property
    def failures(self) -> int:
        """Devices whose planning raised."""
        return sum(1 for s in self.summaries if s.error is not None)

    def _stats(self, values: Sequence[float]) -> Dict[str, float]:
        if not values:
            return {"mean": 0.0, "p50": 0.0, "p95": 0.0}
        arr = np.asarray(values, dtype=np.float64)
        return {
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
        }

    @property
    def energy_stats_j(self) -> Dict[str, float]:
        """Mean/median/p95 window energy across planned devices."""
        return self._stats([s.energy_j for s in self.planned])

    @property
    def latency_stats_s(self) -> Dict[str, float]:
        """Mean/median/p95 inference latency across planned devices."""
        return self._stats([s.latency_s for s in self.planned])

    @property
    def qos_met_fraction(self) -> float:
        """Share of planned devices whose deployed window met QoS."""
        planned = self.planned
        if not planned:
            return 0.0
        return sum(1 for s in planned if s.met_qos) / len(planned)

    @property
    def converged_fraction(self) -> float:
        """Share of planned devices the governor left converged."""
        planned = self.planned
        if not planned:
            return 0.0
        return sum(1 for s in planned if s.converged) / len(planned)

    @property
    def total_replans(self) -> int:
        """Governor re-solves spent across the fleet."""
        return sum(s.replans for s in self.summaries)

    @property
    def devices_replanned(self) -> int:
        """Devices that re-planned at least once."""
        return sum(1 for s in self.summaries if s.replans > 0)

    # -- serialization -----------------------------------------------------------

    def rows(self) -> List[Dict]:
        """Canonical per-device rows (sorted, full precision).

        The ``board`` key appears only in heterogeneous fleets (any
        summary carrying a board label); homogeneous default-board
        rows keep their original shape so pre-registry digests pin.
        """
        labelled = any(s.board is not None for s in self.summaries)
        rows = []
        for s in sorted(self.summaries, key=lambda s: s.device_id):
            row = {
                "device_id": s.device_id,
                "energy_j": s.energy_j,
                "latency_s": s.latency_s,
                "met_qos": s.met_qos,
                "replans": s.replans,
                "epochs_met": s.epochs_met,
                "epochs": s.epochs,
                "converged": s.converged,
                "final_temperature_c": s.final_temperature_c,
                "final_charge": s.final_charge,
                "error": s.error,
            }
            if labelled:
                row["board"] = s.board
            rows.append(row)
        return rows

    def digest(self) -> str:
        """SHA-256 over the canonical rows -- the determinism anchor.

        ``repr`` of a float round-trips the exact binary value, so two
        runs agree on the digest iff they agree bit-for-bit on every
        device's results.
        """
        return report_digest(
            {
                "model": self.model_name,
                "qos_s": self.qos_s,
                "rows": self.rows(),
            }
        )

    def to_dict(self) -> Dict:
        """JSON-ready representation (aggregates + rows + digest).

        Heterogeneous fleets additionally carry a ``boards`` histogram;
        the key is absent for homogeneous default-board fleets so their
        payload shape is unchanged.
        """
        data = {
            "model": self.model_name,
            "qos_ms": self.qos_s * 1e3,
            "n_devices": self.n_devices,
            "failures": self.failures,
            "energy_mj": {
                k: v * 1e3 for k, v in self.energy_stats_j.items()
            },
            "latency_ms": {
                k: v * 1e3 for k, v in self.latency_stats_s.items()
            },
            "qos_met_fraction": self.qos_met_fraction,
            "converged_fraction": self.converged_fraction,
            "total_replans": self.total_replans,
            "devices_replanned": self.devices_replanned,
            "frequency_hist_mhz": {
                str(k): v for k, v in sorted(self.frequency_hist.items())
            },
            "granularity_hist": {
                str(k): v for k, v in sorted(self.granularity_hist.items())
            },
            "digest": self.digest(),
            "devices": self.rows(),
        }
        hist = self.board_hist()
        if hist:
            data["boards"] = hist
        return data

    def board_hist(self) -> Dict[str, int]:
        """Board-name histogram of a heterogeneous fleet ({} otherwise)."""
        hist: Dict[str, int] = {}
        for s in self.summaries:
            if s.board is not None:
                hist[s.board] = hist.get(s.board, 0) + 1
        return dict(sorted(hist.items()))

    def summary(self) -> str:
        """Multi-line human-readable fleet report."""
        e = self.energy_stats_j
        t = self.latency_stats_s
        lines = [
            f"fleet of {self.n_devices} devices, model "
            f"{self.model_name!r}, QoS {self.qos_s * 1e3:.3f} ms"
            + (f", {self.failures} failed to plan" if self.failures else ""),
            f"  window energy: mean {e['mean'] * 1e3:.4f} mJ, "
            f"p50 {e['p50'] * 1e3:.4f} mJ, p95 {e['p95'] * 1e3:.4f} mJ",
            f"  latency: mean {t['mean'] * 1e3:.3f} ms, "
            f"p50 {t['p50'] * 1e3:.3f} ms, p95 {t['p95'] * 1e3:.3f} ms",
            f"  QoS met: {self.qos_met_fraction:.1%} of devices; "
            f"governor: {self.total_replans} re-plans across "
            f"{self.devices_replanned} devices, "
            f"{self.converged_fraction:.1%} converged",
        ]
        boards = self.board_hist()
        if boards:
            mix = ", ".join(f"{name} x{n}" for name, n in boards.items())
            lines.append(f"  board mix: {mix}")
        if self.frequency_hist:
            hist = ", ".join(
                f"{mhz:g} MHz x{count}"
                for mhz, count in sorted(self.frequency_hist.items())
            )
            lines.append(f"  layer frequencies: {hist}")
        lines.append(f"  digest: {self.digest()}")
        return "\n".join(lines)


def aggregate_fleet(
    model: Model,
    qos_s: float,
    results: Sequence[DeviceResult],
    governed: Optional[Dict[int, GovernorResult]] = None,
) -> FleetReport:
    """Fold device results (and optional telemetry) into one report.

    Args:
        model: the deployed network (for the histogram helpers).
        qos_s: the fleet's latency budget.
        results: scheduler output, any order (rows are re-sorted).
        governed: per-device governor telemetry, keyed by device id;
            devices without telemetry count as converged with zero
            re-plans.
    """
    governed = governed or {}
    summaries: List[DeviceSummary] = []
    freq_hist: Dict[float, int] = {}
    gran_hist: Dict[int, int] = {}
    # Label rows with their board target only when the fleet actually
    # mixes targets beyond the default board -- homogeneous F767
    # fleets keep their pre-registry row shape and digest.
    from ..boards.registry import DEFAULT_BOARD

    labelled = any(
        result.profile.board.name != DEFAULT_BOARD for result in results
    )
    for result in results:
        device_id = result.device_id
        board_name = result.profile.board.name if labelled else None
        if result.error is not None or result.report is None:
            summaries.append(
                DeviceSummary(
                    device_id=device_id, error=result.error, board=board_name
                )
            )
            continue
        gov = governed.get(device_id)
        plan = gov.final_plan if gov is not None else result.optimized.plan
        for mhz, count in frequency_histogram(plan, model).items():
            freq_hist[mhz] = freq_hist.get(mhz, 0) + count
        for g, count in granularity_histogram(plan).items():
            gran_hist[g] = gran_hist.get(g, 0) + count
        last = gov.samples[-1] if gov is not None and gov.samples else None
        summaries.append(
            DeviceSummary(
                device_id=device_id,
                energy_j=result.report.energy_j,
                latency_s=result.report.latency_s,
                met_qos=(
                    result.report.met_qos
                    if last is None
                    else last.met_qos
                ),
                replans=gov.replans if gov is not None else 0,
                epochs_met=gov.epochs_met if gov is not None else 0,
                epochs=len(gov.samples) if gov is not None else 0,
                converged=gov.converged if gov is not None else True,
                final_temperature_c=(
                    last.temperature_c if last is not None else 0.0
                ),
                final_charge=(
                    last.charge_fraction
                    if last is not None
                    else result.profile.battery.charge_fraction
                ),
                board=board_name,
            )
        )
    summaries.sort(key=lambda s: s.device_id)
    return FleetReport(
        model_name=model.name,
        qos_s=qos_s,
        summaries=summaries,
        frequency_hist=freq_hist,
        granularity_hist=gran_hist,
    )
