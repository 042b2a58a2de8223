"""One parameter domain, every entry point: the conformance matrix's first row.

Each Table 1 field's hard domain is written once
(:data:`repro.core.parameters.PARAMETER_DOMAINS`) and every validator is
derived from it, so every entry point that takes a parameter value must
accept and reject exactly the same values.  The expected verdict comes
from an independent spelling of the three domain kinds below, not from
the table's own predicate.

The one cross-field rule, ``duration_hours <= lifetime_hours``, has one
stated behaviour per entry point; the last rows below pin each of them.
"""

import json
import math
import sys

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    resolve_parameter_ranges,
    sample_shard_columns,
)
from repro.analysis.scenario import ActScenario
from repro.core.errors import ParameterError, ReproError
from repro.core.parameters import PARAMETER_DOMAINS, OperationalParams
from repro.engine import evaluate_batch
from repro.engine.batch import FIELD_NAMES, ScenarioBatch
from repro.engine.plan import plan_product
from repro.robustness import GuardedEngine
from repro.service.app import (
    CarbonQueryService,
    error_response,
    parse_body,
    parse_scenario,
)
from repro.service.config import ServiceConfig

BASE = ActScenario()

#: The values at and just past the edges of every domain kind.
BOUNDARY_VALUES = {
    "0.0": 0.0,
    "-tiny": -np.finfo(np.float64).tiny,
    "1.0": 1.0,
    "nextafter(1, 2)": math.nextafter(1.0, 2.0),
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
    "10**400": 10**400,
}

#: Each kind's rule for a finite value, spelled independently of the table.
KIND_RULES = {
    "must be >= 0": lambda value: value >= 0.0,
    "must be > 0": lambda value: value > 0.0,
    "must be in (0, 1]": lambda value: 0.0 < value <= 1.0,
}


def _service(name, value):
    """``/v1/footprint``'s parse of ``{"params": {name: value}}``; a
    rejection must answer 422."""
    body = parse_body(json.dumps({"params": {name: value}}).encode("utf-8"))
    try:
        parse_scenario(body["params"])
    except ReproError as error:
        assert error_response(error, ServiceConfig()).status == 422
        raise


ENTRY_POINTS = {
    "ActScenario": lambda name, value: ActScenario(**{name: value}),
    "ScenarioBatch.from_columns": lambda name, value: ScenarioBatch.from_columns(
        BASE, 3, {name: np.full(3, value)}
    ),
    "plan_product axis": lambda name, value: plan_product(
        BASE, {name: [value]}
    ),
    "GuardedEngine(ranges=None)": lambda name, value: GuardedEngine(
        ranges=None
    ).evaluate_columns(BASE, 3, {name: np.full(3, value)}),
    "parse_scenario": _service,
    "sampling range": lambda name, value: resolve_parameter_ranges(
        [name], {name: (value, value)}
    ),
}


def _accepts(entry, name, value):
    try:
        entry(name, value)
    except ReproError:
        return False
    return True


@pytest.mark.parametrize("label", list(BOUNDARY_VALUES))
@pytest.mark.parametrize("name", FIELD_NAMES)
def test_every_entry_point_accepts_the_same_values(name, label):
    value = BOUNDARY_VALUES[label]
    rule = KIND_RULES[PARAMETER_DOMAINS[name].kind.detail]
    # An integer beyond float range converts to no finite float.
    expected = abs(value) <= sys.float_info.max and rule(value)
    verdicts = {
        entry: _accepts(function, name, value)
        for entry, function in ENTRY_POINTS.items()
    }
    assert verdicts == dict.fromkeys(ENTRY_POINTS, expected)


def test_the_table_covers_every_field_in_order():
    fields = tuple(f.name for f in ActScenario.__dataclass_fields__.values())
    assert tuple(PARAMETER_DOMAINS) == fields == FIELD_NAMES
    for name, spec in PARAMETER_DOMAINS.items():
        low, high = spec.range
        assert spec.kind.holds(low) and spec.kind.holds(high), name


#: A three-year run on a one-year part: ``duration_hours > lifetime_hours``.
LONG_RUN = {"duration_hours": 26_280.0, "lifetime_hours": 8_760.0}


def test_operational_params_refuse_duration_past_lifetime():
    with pytest.raises(ParameterError, match="exceeds lifetime_hours"):
        OperationalParams(energy_kwh=1.0, ci_use_g_per_kwh=1.0, **LONG_RUN)


def test_scenario_amortizes_duration_past_lifetime():
    # The tornado sweep evaluates a one-year lifetime at the three-year
    # default duration, so the scenario charges the embodied carbon 3x.
    scenario = ActScenario(**LONG_RUN)
    assert scenario.total_g() == (
        scenario.operational_g() + 3.0 * scenario.embodied_g()
    )


def test_sampler_lifts_each_lifetime_draw_to_its_duration():
    ranges = resolve_parameter_ranges(
        list(LONG_RUN),
        {"duration_hours": (26_000.0, 26_280.0),
         "lifetime_hours": (8_760.0, 9_000.0)},
    )
    columns = sample_shard_columns(
        BASE, ranges, 64, np.random.SeedSequence(7)
    )
    np.testing.assert_array_equal(
        columns["lifetime_hours"], columns["duration_hours"]
    )


def test_batched_engine_amortizes_like_the_scenario():
    expected = ActScenario(**LONG_RUN).total_g()
    results = {
        "from_scenarios": evaluate_batch(
            ScenarioBatch.from_scenarios([ActScenario(**LONG_RUN)])
        ),
        "from_columns": evaluate_batch(
            ScenarioBatch.from_columns(
                BASE, 1, {n: np.full(1, v) for n, v in LONG_RUN.items()}
            )
        ),
        "GuardedEngine": GuardedEngine(ranges=None).evaluate_columns(
            BASE, 1, {n: np.full(1, v) for n, v in LONG_RUN.items()}
        ).result,
    }
    for entry, result in results.items():
        assert result.lifetime_fraction[0] == 3.0, entry
        assert result.total_g[0] == pytest.approx(expected, rel=1e-12), entry


def test_service_answers_duration_past_lifetime():
    service = CarbonQueryService(ServiceConfig(max_wait_s=0.001))
    try:
        body = json.dumps({"params": LONG_RUN}).encode("utf-8")
        response = service.handle("POST", "/v1/footprint", body, "test")
    finally:
        service.drain(5.0)
    assert response.status == 200
    direct = evaluate_batch(
        ScenarioBatch.from_scenarios([ActScenario(**LONG_RUN)])
    )
    assert response.payload["total_g"] == float(direct.total_g[0])
