"""The Table 1 parameter schema: one domain table and its validators.

The ACT model takes a small set of physically-meaningful scalars.
:data:`PARAMETER_DOMAINS` writes each one's hard domain and documented
range exactly once; every validator in the library is derived from it —
the scalar :class:`~repro.analysis.scenario.ActScenario`, the batched
column checks of :mod:`repro.engine.batch` and the sweep planner, the
guard's diagnostics, the Monte Carlo sampling ranges, and the containers
below, which validate their fields eagerly at construction so model code
can assume well-formed inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from repro.core.errors import ParameterError

#: Packaging footprint per IC (Table 1: Kr = 0.15 kg CO2), in grams.
DEFAULT_PACKAGING_G = 150.0

#: Default raw-material procurement footprint (Table 8: 500 g CO2 / cm^2).
DEFAULT_MPA_G_PER_CM2 = 500.0


@dataclass(frozen=True)
class Domain:
    """A hard parameter domain: the closed interval ``[floor, ceiling]``.

    ``> 0`` is the interval from the least positive float, and an
    unbounded domain ends at the largest float, so one chained comparison
    decides every kind, for a scalar or for a column's min and max alike,
    and neither ``NaN`` nor ``±Inf`` ever lies in a domain.

    Attributes:
        detail: The constraint as error messages spell it.
        floor: The least admitted value.
        ceiling: The greatest admitted value.
    """

    detail: str
    floor: float = 0.0
    ceiling: float = sys.float_info.max

    def holds(self, value: float) -> bool:
        """Whether ``value`` (a number, or a column's min or max) is finite
        and lies in the domain."""
        return self.floor <= value <= self.ceiling

    def violations(self, values):
        """Elementwise: which values of a numpy array lie outside the
        domain (``NaN`` is not flagged here; it is non-finite)."""
        return (values < self.floor) | (values > self.ceiling)

    def require(self, name: str, value: float) -> float:
        """Validate one scalar; returns it as a float."""
        if type(value) is float and self.floor <= value <= self.ceiling:
            return value
        _require_finite(name, value)
        if not self.holds(value):
            raise ParameterError(f"{name} {self.detail}, got {value!r}")
        return float(value)


#: ``value >= 0``: amounts, areas, carbon intensities, capacities.
NON_NEGATIVE = Domain("must be >= 0")
#: ``value > 0``: a denominator (``LT`` in Eq. 1).
POSITIVE = Domain("must be > 0", floor=math.ulp(0.0))
#: ``0 < value <= 1``: a yield (a denominator in Eq. 5).
FRACTION = Domain("must be in (0, 1]", floor=math.ulp(0.0), ceiling=1.0)
#: ``0 <= value <= 1``: a share or rate that may be zero.
UNIT_INTERVAL = Domain("must be in [0, 1]", ceiling=1.0)


@dataclass(frozen=True)
class ParameterSpec:
    """One Table 1 parameter: its hard domain and its documented range.

    Attributes:
        kind: The hard domain every value must lie in.
        range: The documented ``(low, high)`` plausibility bounds (Table 1's
            "Range" column and the appendix tables), used by sensitivity
            sweeps, Monte Carlo sampling and the guard's range check.
    """

    kind: Domain
    range: tuple[float, float]


#: Table 1, written once: every :class:`~repro.analysis.scenario.ActScenario`
#: field, in field order, with its hard domain and documented range.  The
#: order is the Monte Carlo sampling order, so it decides the draw stream.
#:
#: The one cross-field rule, ``duration_hours <= lifetime_hours``, is not
#: part of the per-field domain: :class:`OperationalParams` raises on it,
#: the Monte Carlo sampler lifts each lifetime draw to its duration, and
#: ``ActScenario`` accepts a duration past the lifetime, because the
#: tornado sweep evaluates a one-year lifetime at the three-year default
#: duration (its paper checks are pinned on those values).
PARAMETER_DOMAINS: dict[str, ParameterSpec] = {
    # Operational side (Eq. 1-2).
    "energy_kwh": ParameterSpec(NON_NEGATIVE, (1.0, 40.0)),
    "ci_use_g_per_kwh": ParameterSpec(NON_NEGATIVE, (11.0, 820.0)),  # Table 5
    "duration_hours": ParameterSpec(NON_NEGATIVE, (8_760.0, 26_280.0)),
    "lifetime_hours": ParameterSpec(POSITIVE, (8_760.0, 87_600.0)),  # 1-10 y
    # Logic die (Eq. 4-5).
    "soc_area_cm2": ParameterSpec(NON_NEGATIVE, (0.3, 2.0)),
    "ci_fab_g_per_kwh": ParameterSpec(NON_NEGATIVE, (30.0, 700.0)),
    "epa_kwh_per_cm2": ParameterSpec(NON_NEGATIVE, (0.8, 3.5)),
    "gpa_g_per_cm2": ParameterSpec(NON_NEGATIVE, (100.0, 500.0)),  # Table 7
    "mpa_g_per_cm2": ParameterSpec(NON_NEGATIVE, (250.0, 750.0)),
    "fab_yield": ParameterSpec(FRACTION, (0.5, 1.0)),
    # Memory / storage (Eq. 6-8).
    "dram_gb": ParameterSpec(NON_NEGATIVE, (2.0, 16.0)),
    "cps_dram_g_per_gb": ParameterSpec(NON_NEGATIVE, (48.0, 600.0)),  # Table 9
    "ssd_gb": ParameterSpec(NON_NEGATIVE, (32.0, 512.0)),
    "cps_ssd_g_per_gb": ParameterSpec(NON_NEGATIVE, (3.95, 30.0)),  # Table 10
    "hdd_gb": ParameterSpec(NON_NEGATIVE, (0.0, 4000.0)),
    "cps_hdd_g_per_gb": ParameterSpec(NON_NEGATIVE, (1.14, 20.5)),  # Table 11
    # Packaging (Eq. 3).
    "ic_count": ParameterSpec(NON_NEGATIVE, (1.0, 100.0)),
    "packaging_g_per_ic": ParameterSpec(NON_NEGATIVE, (75.0, 300.0)),
}


def require_parameter(name: str, value: float) -> float:
    """Validate one Table 1 parameter against its hard domain."""
    return PARAMETER_DOMAINS[name].kind.require(name, value)


def require_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number strictly greater than zero."""
    return POSITIVE.require(name, value)


def require_non_negative(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number greater than or equal to zero."""
    return NON_NEGATIVE.require(name, value)


def require_fraction(name: str, value: float, *, allow_zero: bool = False) -> float:
    """Validate that ``value`` lies in (0, 1] (or [0, 1] if ``allow_zero``)."""
    return (UNIT_INTERVAL if allow_zero else FRACTION).require(name, value)


def beyond_float_range(name: str) -> ParameterError:
    """The error for an integer too large to convert to a float."""
    return ParameterError(f"{name} must be finite, got an integer beyond float range")


def _require_finite(name: str, value: float) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{name} must be a number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise beyond_float_range(name) from None
    if not finite:
        raise ParameterError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class OperationalParams:
    """Inputs to the operational side of Eq. 1-2.

    Attributes:
        energy_kwh: Energy consumed running the workload (``Energy`` in Eq. 2).
        ci_use_g_per_kwh: Carbon intensity of the energy used during the use
            phase (``CI_use``, g CO2/kWh).
        duration_hours: Application execution time ``T``.
        lifetime_hours: Hardware lifetime ``LT`` over which embodied carbon is
            amortized.  Must be at least ``duration_hours``.
    """

    energy_kwh: float
    ci_use_g_per_kwh: float
    duration_hours: float
    lifetime_hours: float

    def __post_init__(self) -> None:
        for name in (
            "energy_kwh",
            "ci_use_g_per_kwh",
            "duration_hours",
            "lifetime_hours",
        ):
            require_parameter(name, getattr(self, name))
        if self.duration_hours > self.lifetime_hours:
            raise ParameterError(
                "duration_hours exceeds lifetime_hours: "
                f"{self.duration_hours} > {self.lifetime_hours}"
            )

    @property
    def lifetime_fraction(self) -> float:
        """The ``T / LT`` amortization factor of Eq. 1."""
        return self.duration_hours / self.lifetime_hours


@dataclass(frozen=True)
class FabParams:
    """Per-process fab characteristics feeding Eq. 5 (``CPA``).

    Attributes:
        ci_fab_g_per_kwh: Carbon intensity of the fab's electricity
            (``CI_fab``, g CO2/kWh).
        epa_kwh_per_cm2: Fab energy consumed per unit wafer area (``EPA``).
        gpa_g_per_cm2: Direct greenhouse-gas emissions per unit area from
            process chemicals (``GPA``), after abatement.
        mpa_g_per_cm2: Raw-material procurement emissions per unit area
            (``MPA``).
        fab_yield: Fab yield ``Y`` in (0, 1].
    """

    ci_fab_g_per_kwh: float
    epa_kwh_per_cm2: float
    gpa_g_per_cm2: float
    mpa_g_per_cm2: float = DEFAULT_MPA_G_PER_CM2
    fab_yield: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "ci_fab_g_per_kwh",
            "epa_kwh_per_cm2",
            "gpa_g_per_cm2",
            "mpa_g_per_cm2",
            "fab_yield",
        ):
            require_parameter(name, getattr(self, name))

    def cpa_g_per_cm2(self) -> float:
        """Carbon emitted per unit good area manufactured (Eq. 5)."""
        per_wafer_area = (
            self.ci_fab_g_per_kwh * self.epa_kwh_per_cm2
            + self.gpa_g_per_cm2
            + self.mpa_g_per_cm2
        )
        return per_wafer_area / self.fab_yield
