"""A flat, scalar view of the full ACT model for sensitivity studies.

The component/platform API is the right shape for design work, but
sensitivity and uncertainty analysis want the model as one function of the
Table 1 scalars.  :class:`ActScenario` is exactly that: every ACT input as
a named scalar field, with ``total_g()`` evaluating Eq. 1-8 directly.
Each field's hard domain and documented range (Table 1's "Range" column)
come from :data:`~repro.core.parameters.PARAMETER_DOMAINS`, so the
analysis modules can sweep and sample without inventing bounds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.errors import UnknownEntryError
from repro.core.parameters import PARAMETER_DOMAINS

#: (name, domain) pairs in field order, for ``ActScenario.__post_init__``.
_FIELD_DOMAINS = tuple(
    (name, spec.kind) for name, spec in PARAMETER_DOMAINS.items()
)


@dataclass(frozen=True)
class ActScenario:
    """One complete assignment of the ACT model inputs (Table 1).

    Field names follow the paper's symbols.  Units are the library's
    canonical ones (hours, kWh, g CO2, cm^2, GB).
    """

    # Operational side (Eq. 1-2).
    energy_kwh: float = 8.0
    ci_use_g_per_kwh: float = 301.0
    duration_hours: float = 26_280.0  # T: 3 years
    lifetime_hours: float = 26_280.0  # LT: 3 years
    # Logic die (Eq. 4-5).
    soc_area_cm2: float = 1.0
    ci_fab_g_per_kwh: float = 447.5
    epa_kwh_per_cm2: float = 1.52
    gpa_g_per_cm2: float = 275.0
    mpa_g_per_cm2: float = 500.0
    fab_yield: float = 0.875
    # Memory / storage (Eq. 6-8).
    dram_gb: float = 4.0
    cps_dram_g_per_gb: float = 48.0
    ssd_gb: float = 64.0
    cps_ssd_g_per_gb: float = 6.3
    hdd_gb: float = 0.0
    cps_hdd_g_per_gb: float = 4.57
    # Packaging (Eq. 3).
    ic_count: float = 3.0
    packaging_g_per_ic: float = 150.0

    def __post_init__(self) -> None:
        # Each field against its hard domain; the one cross-field rule
        # (duration <= lifetime) is deliberately not enforced here (see
        # PARAMETER_DOMAINS).
        for name, domain in _FIELD_DOMAINS:
            domain.require(name, getattr(self, name))

    # --- Eq. 1-8, scalar form -------------------------------------------

    def operational_g(self) -> float:
        """Eq. 2."""
        return self.energy_kwh * self.ci_use_g_per_kwh

    def cpa_g_per_cm2(self) -> float:
        """Eq. 5."""
        return (
            self.ci_fab_g_per_kwh * self.epa_kwh_per_cm2
            + self.gpa_g_per_cm2
            + self.mpa_g_per_cm2
        ) / self.fab_yield

    def soc_embodied_g(self) -> float:
        """Eq. 4."""
        return self.soc_area_cm2 * self.cpa_g_per_cm2()

    def embodied_g(self) -> float:
        """Eq. 3."""
        return (
            self.ic_count * self.packaging_g_per_ic
            + self.soc_embodied_g()
            + self.dram_gb * self.cps_dram_g_per_gb
            + self.ssd_gb * self.cps_ssd_g_per_gb
            + self.hdd_gb * self.cps_hdd_g_per_gb
        )

    def total_g(self) -> float:
        """Eq. 1."""
        amortization = self.duration_hours / self.lifetime_hours
        return self.operational_g() + amortization * self.embodied_g()

    def replace(self, **overrides: float) -> "ActScenario":
        """A copy with some fields overridden."""
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise UnknownEntryError(
                "scenario parameter", ", ".join(sorted(unknown)),
                [f.name for f in dataclasses.fields(self)],
            )
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict[str, float]:
        """All fields as a plain dict."""
        return dataclasses.asdict(self)


#: Plausible low/high bounds per parameter, following Table 1's ranges and
#: the appendix tables (derived from ``PARAMETER_DOMAINS``, in field order).
#: Used by sensitivity sweeps and Monte Carlo.
PARAMETER_RANGES: dict[str, tuple[float, float]] = {
    name: spec.range for name, spec in PARAMETER_DOMAINS.items()
}


def parameter_range(name: str) -> tuple[float, float]:
    """The (low, high) bounds for a named scenario parameter."""
    try:
        return PARAMETER_RANGES[name]
    except KeyError:
        raise UnknownEntryError(
            "scenario parameter", name, PARAMETER_RANGES
        ) from None
