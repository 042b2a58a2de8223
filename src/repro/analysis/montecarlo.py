"""Monte Carlo uncertainty propagation through the ACT model.

The appendix publishes parameter *ranges*, not point values — fab carbon
intensity varies "by manufacturer, facility, and product line", abatement
bands span 95-99%, yields are proprietary.  This module samples the
scenario parameters from those ranges (independently, uniform or
triangular around the base value) and propagates them through Eq. 1-8,
yielding a footprint distribution instead of a single number.

There is one draw stream (:class:`ShardColumnSource`): the draws are
split into blocks of ``shard_rows`` rows, and each block is sampled from
its own ``np.random.SeedSequence(seed).spawn(n)`` child.  The batched
path runs through the chunked driver
(:func:`~repro.robustness.checkpoint.run_monte_carlo_chunked`), which
samples and evaluates one block at a time.  A custom scalar ``response``
callable is evaluated per draw over the same draws: the reference path
the equivalence suite checks the engine against.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.scenario import PARAMETER_RANGES, ActScenario, parameter_range
from repro.core.errors import ParameterError
from repro.core.parameters import PARAMETER_DOMAINS, require_positive
from repro.engine.batch import FIELD_NAMES, ScenarioBatch
from repro.engine.cache import EvaluationCache, evaluate_cached

if TYPE_CHECKING:  # pragma: no cover - robustness sits above this module
    from repro.robustness.guard import GuardedEngine

Response = Callable[[ActScenario], float]

UNIFORM = "uniform"
TRIANGULAR = "triangular"

#: Domain prefix and version of the draw stream's identity keys
#: (:meth:`ShardColumnSource.identity_key`).  The ``/`` and ``-`` keep
#: them apart from 64-hex content digests; bump the version whenever
#: sampling itself changes (distributions, clipping, seeding).
STREAM_KEY_PREFIX = "mc-stream/v1:"


@dataclass(frozen=True)
class MonteCarloResult:
    """Summary of a footprint distribution.

    Attributes:
        samples: The raw per-draw responses (g CO2).
        base_response: The base scenario's deterministic response.
        partial: A :class:`~repro.parallel.supervisor.PartialResult` when
            the run degraded (quarantined shards dropped from
            ``samples``); ``None`` for complete runs.
    """

    samples: np.ndarray
    base_response: float
    partial: object | None = None

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        return float(np.std(self.samples))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the distribution (0-100)."""
        return float(np.percentile(self.samples, q))

    def percentiles(self, qs: Sequence[float]) -> tuple[float, ...]:
        """Several percentiles of the distribution at once (0-100 each)."""
        return tuple(float(v) for v in np.percentile(self.samples, list(qs)))

    @property
    def p5(self) -> float:
        return self.percentile(5.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def spread(self) -> float:
        """The 90% interval width relative to the mean."""
        if self.mean == 0:
            return 0.0
        return (self.p95 - self.p5) / self.mean


def _sample_parameter(
    rng: np.random.Generator,
    distribution: str,
    low: float,
    high: float,
    mode: float,
    count: int,
) -> np.ndarray:
    if distribution == UNIFORM:
        return rng.uniform(low, high, count)
    if distribution == TRIANGULAR:
        mode = min(max(mode, low), high)
        return rng.triangular(low, mode, high, count)
    raise ParameterError(
        f"unknown distribution {distribution!r}; use {UNIFORM!r} or {TRIANGULAR!r}"
    )


def resolve_parameter_ranges(
    parameters: Iterable[str] | None = None,
    ranges: Mapping[str, tuple[float, float]] | None = None,
) -> dict[str, tuple[float, float]]:
    """The exact (low, high) sampling range of every varied parameter.

    Resolution order per parameter: the caller's ``ranges`` override, then
    the Table 1 appendix range.  Mapping order is the sampling order, so
    this dict fully determines a run's draw stream — the parallel runner
    resolves it once in the parent and ships it to every worker verbatim.
    A range must be finite and lie inside the parameter's hard domain
    (:data:`~repro.core.parameters.PARAMETER_DOMAINS`), so no draw can
    leave it.
    """
    names = tuple(parameters) if parameters is not None else tuple(PARAMETER_RANGES)
    resolved: dict[str, tuple[float, float]] = {}
    for name in names:
        low, high = (ranges or {}).get(name, parameter_range(name))
        domain = PARAMETER_DOMAINS[name].kind
        if not (domain.holds(low) and domain.holds(high)):
            raise ParameterError(
                f"range for {name} ({low}, {high}) leaves its domain: "
                f"{name} {domain.detail} and finite"
            )
        if low > high:
            raise ParameterError(f"range for {name} is inverted: ({low}, {high})")
        resolved[name] = (float(low), float(high))
    return resolved


def sample_shard_columns(
    base: ActScenario,
    resolved_ranges: Mapping[str, tuple[float, float]],
    count: int,
    seed: np.random.SeedSequence,
    distribution: str = TRIANGULAR,
) -> dict[str, np.ndarray]:
    """Sample one shard's columns from its own SeedSequence child stream.

    The one place draws are consumed: :class:`ShardColumnSource` spawns
    one child per shard and samples each shard here, in the parent or in
    a worker, column by column in ``resolved_ranges`` order, so a shard's
    draws depend only on its child seed — never on which process runs it
    or in what order.
    """
    require_positive("count", count)
    rng = np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    for name, (low, high) in resolved_ranges.items():
        columns[name] = _sample_parameter(
            rng, distribution, low, high, getattr(base, name), count
        )
    # Lifetime must dominate duration; clip any violating draws.
    if "lifetime_hours" in columns:
        duration = columns.get(
            "duration_hours", np.full(count, base.duration_hours)
        )
        columns["lifetime_hours"] = np.maximum(
            columns["lifetime_hours"], duration
        )
    return columns


@dataclass(frozen=True)
class ShardColumnSource:
    """The Monte Carlo draw stream, sampled on demand by row range.

    Resolves the sampling ranges, plans the ``shard_rows``-row shards and
    spawns one ``np.random.SeedSequence(seed)`` child per shard exactly
    once; :meth:`columns` then samples only the shards covering the
    requested rows.  Every shard's draws depend only on its child seed,
    so a run sampled all at once, wave by wave, across any number of
    workers, or resumed halfway yields the same columns, while a wave
    holds only its own rows.  A sample is therefore a pure function of
    (base, ranges, distribution, seed, draws, shard_rows).

    Build with :meth:`create`.
    """

    base: ActScenario
    ranges: Mapping[str, tuple[float, float]]
    distribution: str
    plan: tuple[tuple[int, int], ...]
    seeds: tuple[np.random.SeedSequence, ...]

    @classmethod
    def create(
        cls,
        base: ActScenario,
        parameters: Iterable[str] | None = None,
        *,
        draws: int,
        seed: int,
        shard_rows: int,
        distribution: str = TRIANGULAR,
        ranges: Mapping[str, tuple[float, float]] | None = None,
    ) -> "ShardColumnSource":
        require_positive("draws", draws)
        from repro.parallel.policy import shard_plan

        resolved = resolve_parameter_ranges(parameters, ranges)
        plan = shard_plan(draws, shard_rows)
        seeds = tuple(np.random.SeedSequence(seed).spawn(len(plan)))
        return cls(base, resolved, distribution, plan, seeds)

    @property
    def draws(self) -> int:
        return self.plan[-1][1]

    @property
    def names(self) -> tuple[str, ...]:
        """The sampled column names, in sampling order."""
        return tuple(self.ranges)

    @functools.cached_property
    def _stream_identity(self) -> bytes:
        """What every block's draws depend on besides its seed: each base
        field (exact float repr), the ranges in sampling order, the
        distribution and the block size."""
        base = self.base
        parts = [
            *(f"{name}={float(getattr(base, name))!r}" for name in FIELD_NAMES),
            *(
                f"range:{name}={float(low)!r},{float(high)!r}"
                for name, (low, high) in self.ranges.items()
            ),
            f"distribution={self.distribution!r}",
            f"shard_rows={self.plan[0][1]}",
        ]
        return "\n".join(parts).encode("utf-8")

    def identity_key(self, start: int = 0, stop: int | None = None) -> str:
        """The cache key of the batch built from rows ``[start, stop)``.

        The rows' columns are a pure function of the stream's
        configuration and the covered shards' seeds, so the key digests
        those and the row range instead of the columns' bytes.  Prefixed
        with :data:`STREAM_KEY_PREFIX`, so it never equals a content
        digest.  Valid only where this numpy installation samples the
        rows (its version is not part of the key): the parallel runner's
        workers, which sample their own shards, receive it, but it is
        never persisted.
        """
        stop = self.draws if stop is None else stop
        digest = hashlib.sha256(self._stream_identity)
        for index in self.shards(start, stop):
            seed = self.seeds[index]
            digest.update(
                f"\nseed {index}={seed.entropy!r}/{seed.spawn_key!r}/"
                f"{seed.pool_size}".encode("ascii")
            )
        digest.update(f"\nrows={start}:{stop}".encode("ascii"))
        return STREAM_KEY_PREFIX + digest.hexdigest()

    def shards(self, start: int = 0, stop: int | None = None) -> range:
        """Indices of the shards exactly covering rows ``[start, stop)``.

        Raises :class:`~repro.core.errors.ParameterError` unless both
        bounds fall on shard boundaries (``stop`` may be ``draws``).
        """
        stop = self.draws if stop is None else stop
        shard_rows = self.plan[0][1]
        if (
            not 0 <= start < stop <= self.draws
            or start % shard_rows
            or (stop % shard_rows and stop != self.draws)
        ):
            raise ParameterError(
                f"rows [{start}, {stop}) are not shard-aligned for "
                f"{self.draws} draws in {shard_rows}-row shards"
            )
        return range(start // shard_rows, -(-stop // shard_rows))

    def columns(
        self, start: int = 0, stop: int | None = None
    ) -> dict[str, np.ndarray]:
        """The sampled columns of rows ``[start, stop)`` (shard-aligned)."""
        shards = [
            sample_shard_columns(
                self.base,
                self.ranges,
                self.plan[index][1] - self.plan[index][0],
                self.seeds[index],
                self.distribution,
            )
            for index in self.shards(start, stop)
        ]
        if len(shards) == 1:
            return shards[0]
        return {
            name: np.concatenate([shard[name] for shard in shards])
            for name in self.ranges
        }


def sample_parameter_columns(
    base: ActScenario,
    parameters: Iterable[str] | None = None,
    *,
    draws: int = 2000,
    seed: int = 2022,
    distribution: str = TRIANGULAR,
    ranges: Mapping[str, tuple[float, float]] | None = None,
    shard_rows: int | None = None,
) -> dict[str, np.ndarray]:
    """Every draw of a Monte Carlo run's sampled columns, in row order.

    The columns are :class:`ShardColumnSource`'s stream: one
    ``SeedSequence(seed).spawn(n)`` child per ``shard_rows`` rows, so the
    same (seed, draws, shard_rows) yields the same columns however a run
    later chunks, shards or resumes them.  ``shard_rows`` defaults to
    :data:`~repro.parallel.policy.DEFAULT_SHARD_ROWS`, the block size of
    a run without a policy.
    """
    from repro.parallel.policy import DEFAULT_SHARD_ROWS

    return ShardColumnSource.create(
        base,
        parameters,
        draws=draws,
        seed=seed,
        shard_rows=DEFAULT_SHARD_ROWS if shard_rows is None else shard_rows,
        distribution=distribution,
        ranges=ranges,
    ).columns()


def sample_scenario_batch(
    base: ActScenario,
    parameters: Iterable[str] | None = None,
    *,
    draws: int = 2000,
    seed: int = 2022,
    distribution: str = TRIANGULAR,
    ranges: Mapping[str, tuple[float, float]] | None = None,
) -> ScenarioBatch:
    """Sample the Table 1 parameter ranges directly into a scenario batch.

    One draw per row: sampled parameters become full columns, everything
    else is the base scenario broadcast.  Draw order is reproducible — the
    same seed yields the same batch, column by column.

    Args:
        base: Scenario providing the untouched parameters (and triangular
            modes).
        parameters: Which parameters vary (default: all with ranges).
        draws: Number of Monte Carlo samples.
        seed: RNG seed.
        distribution: ``"uniform"`` over the range, or ``"triangular"``
            peaked at the base value.
        ranges: Optional per-parameter (low, high) overrides.
    """
    columns = sample_parameter_columns(
        base,
        parameters,
        draws=draws,
        seed=seed,
        distribution=distribution,
        ranges=ranges,
    )
    return ScenarioBatch.from_columns(base, draws, columns)


def run_monte_carlo(
    base: ActScenario,
    parameters: Iterable[str] | None = None,
    *,
    draws: int = 2000,
    seed: int = 2022,
    distribution: str = TRIANGULAR,
    ranges: Mapping[str, tuple[float, float]] | None = None,
    response: Response | None = None,
    cache: EvaluationCache | None = None,
    guard: "GuardedEngine | None" = None,
    policy: "object | int | None" = None,
) -> MonteCarloResult:
    """Propagate parameter uncertainty through the ACT model.

    The total footprint runs through the chunked driver
    (:func:`~repro.robustness.checkpoint.run_monte_carlo_chunked`)
    without a checkpoint, in ``shard_rows`` chunks of the one draw stream
    (:class:`ShardColumnSource`).  The samples therefore depend only on
    (base, ranges, distribution, seed, draws, shard_rows): never on the
    worker count, the failure policy, the guard, or
    whether a policy was given at all.

    Args:
        base: Scenario providing the untouched parameters (and triangular
            modes).
        parameters: Which parameters vary (default: all with ranges).
        draws: Number of Monte Carlo samples.
        seed: RNG seed — results are reproducible by construction.
        distribution: ``"uniform"`` over the range, or ``"triangular"``
            peaked at the base value.
        ranges: Optional per-parameter (low, high) overrides.
        response: Scalar to record per draw.  When omitted, the total
            footprint runs on the batched engine; a custom response is
            evaluated per draw on the scalar path (the oracle the batched
            path is checked against), over the same draws.
        cache: Optional evaluation cache for the in-process batched path
            (default: a private one per run, so fresh draws never fill
            the process-wide cache).
        guard: Optional :class:`~repro.robustness.guard.GuardedEngine`.
            When given, each chunk's columns are validated against the
            documented ranges before evaluation, and a bad draw raises
            :class:`~repro.core.errors.ValidationError` naming its row.
            Ignored on the custom-``response`` scalar path, which
            validates per scenario anyway.
        policy: An :class:`~repro.parallel.ExecutionPolicy`, a bare worker
            count, or ``None`` for the serial path.  Its ``shard_rows``
            (default 65,536) is the stream's block size; a parallel
            policy spreads the blocks over its workers in one shard map,
            each worker sampling its own blocks and returning only their
            ``total_g``.
            Ignored (like ``guard``) on the custom-``response`` path,
            except for ``shard_rows``.
    """
    from repro.parallel.policy import resolve_policy

    resolved_policy = resolve_policy(policy)
    if response is None:
        from repro.robustness.checkpoint import run_monte_carlo_chunked

        return run_monte_carlo_chunked(
            base,
            parameters,
            draws=draws,
            seed=seed,
            distribution=distribution,
            ranges=ranges,
            cache=cache,
            guard=guard,
            policy=resolved_policy,
        )
    batch = ScenarioBatch.from_columns(
        base,
        draws,
        sample_parameter_columns(
            base,
            parameters,
            draws=draws,
            seed=seed,
            distribution=distribution,
            ranges=ranges,
            shard_rows=resolved_policy.shard_rows if resolved_policy else None,
        ),
    )
    samples = np.empty(draws)
    for index, scenario in enumerate(batch.scenarios()):
        samples[index] = response(scenario)
    return MonteCarloResult(samples=samples, base_response=response(base))


def embodied_share_distribution(
    base: ActScenario, *, draws: int = 2000, seed: int = 2022
) -> MonteCarloResult:
    """Distribution of the embodied share of the total footprint.

    Quantifies how robust the paper's "manufacturing dominates" conclusion
    is to parameter uncertainty.  Runs entirely on the batched engine: the
    share is an array expression over the evaluated draw columns.
    """
    batch = sample_scenario_batch(base, draws=draws, seed=seed)
    result = evaluate_cached(batch)

    base_total = base.total_g()
    base_share = (
        0.0
        if base_total == 0
        else (base.duration_hours / base.lifetime_hours)
        * base.embodied_g()
        / base_total
    )
    return MonteCarloResult(
        samples=np.array(result.embodied_share, copy=True),
        base_response=base_share,
    )
