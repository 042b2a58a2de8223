"""Property tests: the planner is bit-identical to the dense batched path.

Two families of properties:

* **Factored == dense** — for *random* grids (random swept-field subsets,
  random axis lengths including degenerate singletons, random finite
  values in each field's domain), the planned evaluation equals the
  dense ``ScenarioBatch.from_product`` pass exactly — ``==`` per element
  on every output series of the float64 kernel.  This is
  the load-bearing claim behind every planner integration: broadcasting
  the Eq. 1-8 DAG over axis-shaped marginal factors performs the same
  IEEE operations on the same operand values as the row-wise pass.
* **Incremental dominance == fresh dominance** — updating per-row
  dominator counts from an arbitrary changed-row subset equals a fresh
  :func:`~repro.dse.pareto.dominance_counts` over the new matrix (and
  ``counts == 0`` equals :func:`~repro.dse.pareto.pareto_mask`), for
  random matrices, subsets, and perturbations including exact
  duplicates and unchanged "changed" rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.scenario import ActScenario
from repro.dse.pareto import (
    dominance_counts,
    pareto_mask,
    update_dominance_counts,
)
from repro.engine import ScenarioBatch, evaluate_batch
from repro.engine.batch import FIELD_NAMES
from repro.engine.plan import (
    SERIES_NAMES,
    plan_product,
)

BASE = ActScenario()

#: Fields swept by the random grids.  ``fab_yield`` is the only
#: fraction-constrained field; every other entry only needs to be a
#: positive finite float.  ``lifetime_hours`` is excluded so the random
#: sweeps cannot violate the duration <= lifetime coupling.
_SWEEPABLE = (
    "energy_kwh",
    "ci_use_g_per_kwh",
    "soc_area_cm2",
    "ci_fab_g_per_kwh",
    "epa_kwh_per_cm2",
    "fab_yield",
    "dram_gb",
    "ssd_gb",
    "hdd_gb",
    "ic_count",
    "packaging_g_per_ic",
)

_positive = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)
_fraction = st.floats(
    min_value=1e-3, max_value=1.0, allow_nan=False, allow_infinity=False
)


def _axis(name):
    values = _fraction if name == "fab_yield" else _positive
    return st.lists(values, min_size=1, max_size=5, unique=True)


@st.composite
def random_grids(draw):
    names = draw(
        st.lists(
            st.sampled_from(_SWEEPABLE), min_size=1, max_size=4, unique=True
        )
    )
    return {name: tuple(draw(_axis(name))) for name in names}


class TestPlannedEqualsDense:
    @settings(max_examples=60, deadline=None)
    @given(grids=random_grids())
    def test_planned_bit_identical_on_reference(self, grids):
        plan = plan_product(BASE, grids)
        dense = evaluate_batch(ScenarioBatch.from_product(BASE, grids))
        planned = plan.evaluate()
        for name in SERIES_NAMES:
            left, right = getattr(dense, name), getattr(planned, name)
            assert left.dtype == right.dtype
            np.testing.assert_array_equal(left, right, err_msg=name)

    @settings(max_examples=25, deadline=None)
    @given(grids=random_grids())
    def test_view_batch_matches_dense_batch(self, grids):
        plan = plan_product(BASE, grids)
        dense = ScenarioBatch.from_product(BASE, grids)
        batch = plan.batch()
        for name in FIELD_NAMES:
            np.testing.assert_array_equal(
                batch.column(name), dense.column(name), err_msg=name
            )

    @settings(max_examples=25, deadline=None)
    @given(grids=random_grids(), data=st.data())
    def test_gathered_slice_matches_dense_rows(self, grids, data):
        plan = plan_product(BASE, grids)
        start = data.draw(st.integers(min_value=0, max_value=plan.size))
        stop = data.draw(st.integers(min_value=start, max_value=plan.size))
        factors = plan.partial_series()
        rows = plan.gather_rows(factors, start, stop)
        dense = evaluate_batch(ScenarioBatch.from_product(BASE, grids))
        for name in SERIES_NAMES:
            np.testing.assert_array_equal(
                rows[name], getattr(dense, name)[start:stop], err_msg=name
            )


@st.composite
def dominance_updates(draw):
    """An (old, new, changed) triple with arbitrary overlap structure.

    Objective values draw from a tiny pool so exact duplicates and ties
    are common — the regime where dominance bookkeeping is easiest to
    get wrong.  ``changed`` may repeat rows and may name rows whose
    values did not actually move; both must be harmless.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=3))
    value = st.sampled_from((0.0, 1.0, 2.0, 3.0))
    row = st.lists(value, min_size=m, max_size=m)
    old = np.asarray(
        draw(st.lists(row, min_size=n, max_size=n)), dtype=np.float64
    )
    changed = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=0, max_size=n
        )
    )
    new = old.copy()
    for index in set(changed):
        new[index] = draw(row)
    return old, new, np.asarray(changed, dtype=np.intp)


class TestIncrementalDominance:
    @settings(max_examples=200, deadline=None)
    @given(spec=dominance_updates())
    def test_update_equals_fresh_counts_and_mask(self, spec):
        old, new, changed = spec
        counts = dominance_counts(old)
        updated = update_dominance_counts(old, counts, new, changed)
        np.testing.assert_array_equal(updated, dominance_counts(new))
        np.testing.assert_array_equal(updated == 0, pareto_mask(new))
