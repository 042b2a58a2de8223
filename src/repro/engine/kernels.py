"""Vectorized Eq. 1-8 kernels over scenario batches.

Each kernel is the array form of one equation of the paper, written so the
math is term-for-term identical to the scalar reference implementation in
:class:`~repro.analysis.scenario.ActScenario` — same operations in the same
order, so batched and scalar results agree to floating-point reproducibility
(the equivalence suite pins them to 1e-9).

The kernels accept plain arrays (or scalars — numpy broadcasting applies),
and :func:`evaluate_batch` runs the whole pipeline over a
:class:`~repro.engine.batch.ScenarioBatch`, returning every intermediate
series in a :class:`BatchResult`.  There is one float64 body,
:func:`_evaluate_batch_arrays`; the scalar ``core/`` model is its oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.engine.batch import ScenarioBatch
from repro.obs.context import current_context


def cpa_g_per_cm2(
    ci_fab_g_per_kwh: np.ndarray,
    epa_kwh_per_cm2: np.ndarray,
    gpa_g_per_cm2: np.ndarray,
    mpa_g_per_cm2: np.ndarray,
    fab_yield: np.ndarray,
) -> np.ndarray:
    """Eq. 5: carbon per good cm^2 of silicon."""
    return (
        np.asarray(ci_fab_g_per_kwh, dtype=np.float64) * epa_kwh_per_cm2
        + gpa_g_per_cm2
        + mpa_g_per_cm2
    ) / fab_yield


def soc_embodied_g(area_cm2: np.ndarray, cpa: np.ndarray) -> np.ndarray:
    """Eq. 4: logic-die embodied carbon."""
    return np.asarray(area_cm2, dtype=np.float64) * cpa


def storage_embodied_g(capacity_gb: np.ndarray, cps_g_per_gb: np.ndarray) -> np.ndarray:
    """Eq. 6-8: capacity x carbon-per-size, for DRAM / SSD / HDD alike."""
    return np.asarray(capacity_gb, dtype=np.float64) * cps_g_per_gb


def packaging_g(ic_count: np.ndarray, packaging_g_per_ic: np.ndarray) -> np.ndarray:
    """Eq. 3's ``Nr * Kr`` packaging term."""
    return np.asarray(ic_count, dtype=np.float64) * packaging_g_per_ic


def operational_g(energy_kwh: np.ndarray, ci_use_g_per_kwh: np.ndarray) -> np.ndarray:
    """Eq. 2: use-phase footprint."""
    return np.asarray(energy_kwh, dtype=np.float64) * ci_use_g_per_kwh


def total_g(
    operational: np.ndarray,
    embodied: np.ndarray,
    duration_hours: np.ndarray,
    lifetime_hours: np.ndarray,
) -> np.ndarray:
    """Eq. 1: operational plus lifetime-amortized embodied carbon."""
    amortization = np.asarray(duration_hours, dtype=np.float64) / lifetime_hours
    return operational + amortization * embodied


@dataclass(frozen=True)
class BatchResult:
    """Every Eq. 1-8 output series for one evaluated batch.

    All attributes are float64 arrays aligned with the batch's rows.
    Columns are marked read-only so cached results cannot be corrupted.
    """

    operational_g: np.ndarray
    cpa_g_per_cm2: np.ndarray
    soc_embodied_g: np.ndarray
    dram_embodied_g: np.ndarray
    ssd_embodied_g: np.ndarray
    hdd_embodied_g: np.ndarray
    packaging_g: np.ndarray
    embodied_g: np.ndarray
    lifetime_fraction: np.ndarray
    total_g: np.ndarray

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            column = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return int(self.total_g.size)

    @property
    def amortized_embodied_g(self) -> np.ndarray:
        """The embodied share actually charged to the workload (Eq. 1)."""
        return self.lifetime_fraction * self.embodied_g

    @property
    def embodied_share(self) -> np.ndarray:
        """Amortized embodied carbon as a fraction of the total footprint.

        Zero-footprint rows report a share of 0 rather than NaN.
        """
        with np.errstate(invalid="ignore", divide="ignore"):
            share = np.where(
                self.total_g == 0.0,
                0.0,
                self.amortized_embodied_g / self.total_g,
            )
        return share


def evaluate_batch(batch: ScenarioBatch) -> BatchResult:
    """Run Eq. 1-8 over every row of ``batch`` in one vectorized pass.

    Under an active :class:`~repro.obs.context.RunContext` the pass is
    recorded as an ``engine.evaluate_batch`` span and the registry
    accrues ``engine.rows_evaluated`` and ``engine.kernel_seconds``;
    under the default null context the only cost is one attribute check.
    """
    context = current_context()
    if not context.enabled:
        return _evaluate_batch_arrays(batch)
    rows = len(batch)
    started = time.perf_counter()
    with context.span("engine.evaluate_batch", rows=rows):
        result = _evaluate_batch_arrays(batch)
    context.count("engine.batches_evaluated")
    context.count("engine.rows_evaluated", rows)
    context.observe("engine.kernel_seconds", time.perf_counter() - started)
    return result


def _evaluate_batch_arrays(batch: ScenarioBatch) -> BatchResult:
    """The uninstrumented Eq. 1-8 kernel pass."""
    cpa = cpa_g_per_cm2(
        batch.ci_fab_g_per_kwh,
        batch.epa_kwh_per_cm2,
        batch.gpa_g_per_cm2,
        batch.mpa_g_per_cm2,
        batch.fab_yield,
    )
    soc = soc_embodied_g(batch.soc_area_cm2, cpa)
    dram = storage_embodied_g(batch.dram_gb, batch.cps_dram_g_per_gb)
    ssd = storage_embodied_g(batch.ssd_gb, batch.cps_ssd_g_per_gb)
    hdd = storage_embodied_g(batch.hdd_gb, batch.cps_hdd_g_per_gb)
    packaging = packaging_g(batch.ic_count, batch.packaging_g_per_ic)
    # Summed in ActScenario.embodied_g's term order for bit-level parity.
    embodied = packaging + soc + dram + ssd + hdd
    operational = operational_g(batch.energy_kwh, batch.ci_use_g_per_kwh)
    fraction = batch.duration_hours / batch.lifetime_hours
    totals = operational + fraction * embodied
    return BatchResult(
        operational_g=operational,
        cpa_g_per_cm2=cpa,
        soc_embodied_g=soc,
        dram_embodied_g=dram,
        ssd_embodied_g=ssd,
        hdd_embodied_g=hdd,
        packaging_g=packaging,
        embodied_g=embodied,
        lifetime_fraction=fraction,
        total_g=totals,
    )
