"""Extension experiments and the DSE optimizer facade."""

import pytest

from repro.core.errors import ConstraintError, UnknownEntryError, ValidationError
from repro.core.metrics import DesignPoint, score_table, winners
from repro.engine.metrics import score_table_batched, winners_batched
from repro.dse.optimizer import ExplorationResult, explore, metric_disagreement
from repro.experiments import (
    EXPERIMENTS,
    EXTENSION_EXPERIMENTS,
    run_all_extensions,
    run_experiment,
)
from repro.obs.context import RunContext, use_context

EXT_IDS = sorted(EXTENSION_EXPERIMENTS)


@pytest.fixture(scope="module")
def extension_results():
    return {result.experiment_id: result for result in run_all_extensions()}


class TestExtensionRegistry:
    def test_eight_extensions(self):
        assert len(EXTENSION_EXPERIMENTS) == 8

    def test_namespaces_disjoint(self):
        assert not set(EXTENSION_EXPERIMENTS) & set(EXPERIMENTS)

    def test_all_ids_prefixed(self):
        assert all(key.startswith("ext-") for key in EXTENSION_EXPERIMENTS)

    def test_run_experiment_resolves_extensions(self):
        result = run_experiment("ext-dvfs")
        assert result.experiment_id == "ext-dvfs"

    @pytest.mark.parametrize("experiment_id", EXT_IDS)
    def test_all_checks_pass(self, extension_results, experiment_id):
        result = extension_results[experiment_id]
        failed = result.failed_checks()
        assert not failed, "\n".join(
            f"{c.name}: observed {c.observed}, expected {c.expected}"
            for c in failed
        )

    @pytest.mark.parametrize("experiment_id", EXT_IDS)
    def test_has_data_and_reference(self, extension_results, experiment_id):
        result = extension_results[experiment_id]
        assert result.figures or result.table_rows
        assert result.reference


class TestOptimizer:
    @pytest.fixture()
    def points(self):
        return (
            DesignPoint("lean", 10.0, 5.0, 10.0, area_mm2=1.0),
            DesignPoint("balanced", 20.0, 2.0, 4.0, area_mm2=2.0),
            DesignPoint("fast", 60.0, 1.5, 1.0, area_mm2=6.0),
            DesignPoint("dominated", 70.0, 6.0, 11.0, area_mm2=7.0),
        )

    def test_explore_shape(self, points):
        result = explore(points)
        assert isinstance(result, ExplorationResult)
        assert set(result.winners) == {
            "EDP", "EDAP", "CDP", "CEP", "C2EP", "CE2P",
        }
        assert len(result.points) == 4

    def test_pareto_excludes_dominated(self, points):
        result = explore(points)
        assert not result.is_pareto("dominated")
        assert result.is_pareto("lean")
        assert result.is_pareto("fast")

    def test_winner_point_lookup(self, points):
        result = explore(points)
        assert result.winner_point("C2EP").name == result.winners["C2EP"]

    def test_winner_point_unknown_metric(self, points):
        result = explore(points, metric_names=("EDP",))
        with pytest.raises(ConstraintError):
            result.winner_point("CEP")

    def test_winner_point_rejects_a_name_that_is_no_metric(self, points):
        with pytest.raises(UnknownEntryError):
            explore(points).winner_point("PPA")

    @pytest.mark.parametrize(
        "edp_spelling", ["EDP", " edp ", "ed-p", "ED_P", "e_d-P"]
    )
    def test_every_metric_spelling_keys_by_the_canonical_name(
        self, points, edp_spelling
    ):
        # One point without an area: EDAP skips it whatever its spelling.
        points = points + (DesignPoint("bare", 15.0, 3.0, 5.0),)
        names = (edp_spelling, "c-d-p", "ed_ap")
        canonical = ["EDP", "CDP", "EDAP"]
        for table in (
            score_table(points, names),
            score_table_batched(points, names),
        ):
            assert list(table) == canonical
            assert "bare" not in table["EDAP"]
        assert list(winners(points, names)) == canonical
        assert list(winners_batched(points, names)) == canonical
        result = explore(points, names)
        assert list(result.scores) == canonical
        assert list(result.winners) == canonical
        assert result.winner_point("EDP") == result.winner_point(edp_spelling)
        assert result.winner_point("edap").name == result.winners["EDAP"]
        assert metric_disagreement(result) == metric_disagreement(
            explore(points, canonical)
        )

    def test_distinct_winner_count(self, points):
        result = explore(points)
        assert 1 <= result.distinct_winner_count <= len(points)

    def test_empty_candidates(self):
        with pytest.raises(ConstraintError):
            explore(())

    @pytest.mark.parametrize(
        "field", ["embodied_carbon_g", "energy_kwh", "delay_s", "area_mm2"]
    )
    def test_non_finite_candidates_are_rejected_by_name(self, points, field):
        values = {
            "embodied_carbon_g": 1.0,
            "energy_kwh": 1.0,
            "delay_s": 1.0,
            "area_mm2": 1.0,
        }
        bad = (
            DesignPoint("nan", **{**values, field: float("nan")}),
            DesignPoint("inf", **{**values, field: float("inf")}),
        )
        with pytest.raises(ValidationError) as excinfo:
            explore(points + bad)
        message = str(excinfo.value)
        assert message.startswith("2 design point(s)")
        assert "'nan'" in message and "'inf'" in message
        assert "'lean'" not in message

    def test_many_non_finite_candidates_are_elided(self):
        bad = tuple(
            DesignPoint(f"bad{index}", float("nan"), 1.0, 1.0)
            for index in range(10)
        )
        with pytest.raises(ValidationError) as excinfo:
            explore(bad)
        message = str(excinfo.value)
        assert message.startswith("10 design point(s)")
        assert "'bad7'" in message and "'bad8'" not in message
        assert message.endswith("…")

    def test_unknown_metric_name_is_rejected(self, points):
        with pytest.raises(UnknownEntryError):
            explore(points, ("EDP", "PPA"))

    def test_explore_records_its_span_and_candidate_count(self, points):
        context = RunContext.create(describe_git=False)
        with use_context(context):
            explore(points, ("EDP", "cdp"))
        spans = context.tracer.find("dse.explore")
        assert spans and spans[0].attributes["candidates"] == len(points)
        assert spans[0].attributes["metrics"] == 2
        assert context.metrics.counter("dse.candidates") == len(points)

    def test_metric_disagreement_bounds(self, points):
        result = explore(points)
        assert 0.0 <= metric_disagreement(result) <= 1.0

    def test_metric_disagreement_zero_for_single_design(self):
        result = explore((DesignPoint("only", 1.0, 1.0, 1.0, area_mm2=1.0),))
        assert metric_disagreement(result) == 0.0

    def test_metric_disagreement_requires_edp(self, points):
        result = explore(points, metric_names=("CDP", "CEP"))
        with pytest.raises(ConstraintError):
            metric_disagreement(result)

    def test_mobile_design_space_disagrees(self):
        # The paper's Figure 8 message: carbon metrics change the answer.
        from repro.platforms.mobile import design_space

        result = explore(design_space())
        assert metric_disagreement(result) > 0.0
        assert result.distinct_winner_count >= 3
