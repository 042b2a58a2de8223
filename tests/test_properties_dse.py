"""Property test: :func:`~repro.dse.optimizer.explore` equals the scalar oracle.

``explore`` scores candidates with the batched engine kernels and takes
the front from :func:`~repro.dse.pareto.pareto_mask`; the scalar
:func:`~repro.core.metrics.score_table`, :func:`~repro.core.metrics.winners`
and :func:`~repro.dse.pareto.pareto_front` are the reference.  For random
candidate sets (1-64 designs, some without an area, values drawn from a
tiny pool so tied scores and duplicate objective rows are common) and
random metric subsets in mixed spellings, the two agree exactly: same
scores, same winners, same front, same dict key order.  The front is also
checked pairwise against :func:`~repro.dse.pareto.dominates`, since
``pareto_front`` shares ``pareto_mask`` with ``explore``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import METRICS, DesignPoint, score_table, winners
from repro.dse.optimizer import explore
from repro.dse.pareto import dominates, pareto_front

#: Few distinct values, so ties and duplicate rows are the common case,
#: plus arbitrary magnitudes so products are not all small integers.
VALUES = st.one_of(
    st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)),
    st.floats(min_value=1e-6, max_value=1e6),
)

SPELLINGS = (
    str.upper,
    str.lower,
    lambda name: f" {name.lower()} ",
    lambda name: "-".join(name),
    lambda name: "_".join(name.lower()),
)

OBJECTIVES = (
    lambda point: point.embodied_carbon_g,
    lambda point: point.energy_kwh,
    lambda point: point.delay_s,
)


@st.composite
def candidate_sets(draw):
    count = draw(st.integers(min_value=1, max_value=64))
    return [
        DesignPoint(
            name=f"d{index}",
            embodied_carbon_g=draw(VALUES),
            energy_kwh=draw(VALUES),
            delay_s=draw(VALUES),
            area_mm2=draw(st.none() | VALUES),
        )
        for index in range(count)
    ]


@st.composite
def metric_subsets(draw):
    names = draw(st.none() | st.lists(st.sampled_from(tuple(METRICS))))
    if names is None:
        return None
    return tuple(draw(st.sampled_from(SPELLINGS))(name) for name in names)


def _ordered(table):
    return [(metric, list(row.items())) for metric, row in table.items()]


class TestExploreEqualsScalarOracle:
    @settings(max_examples=100, deadline=None)
    @given(points=candidate_sets(), names=metric_subsets())
    def test_scores_winners_and_front(self, points, names):
        result = explore(points, names)
        assert _ordered(result.scores) == _ordered(score_table(points, names))
        assert list(result.winners.items()) == list(
            winners(points, names).items()
        )
        assert result.pareto == pareto_front(points, OBJECTIVES)
        vectors = [tuple(fn(point) for fn in OBJECTIVES) for point in points]
        on_front = [
            not any(dominates(other, vector) for other in vectors)
            for vector in vectors
        ]
        assert result.pareto == tuple(
            point for point, keep in zip(points, on_front) if keep
        )
