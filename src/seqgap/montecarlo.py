"""Deterministic, parallelizable replication harness with one trial loop.

Every trial owns a counter-based generator (numpy Philox) keyed by a
SplitMix64 mix of (master_seed, trial_index), so results are independent
of scheduling and worker count.  One loop runs every trial, for the rules
and for the SPRT (a one-stream source: its signal set is empty under h0
and {1} under h1, and rejecting the null rejects stream 1).  Per chunk of
trials the loop rekeys one generator, resolves the horizon once and scores
each distinct rejected set once.  Blocks of draws consume the random stream
exactly as single steps would, so their sizes are free: a trial's first
block is sized from the chunk's mean stopping time so far, later blocks
are ``_BLOCK`` rows.  A chunk returns int64 columns (T, V, W, R,
truncated) in trial-index order, which are all the summary, the SPRT's
error rate and the trial dump read.

Truncated trials (no stop by the horizon cap) are scored as maximally
wrong: their rejected set is the complement of the signal set, which
drives every error indicator and proportion to 1 and keeps the confusion
identities exact.  Over 5% truncations flag an experiment unreliable.
"""

from __future__ import annotations

import math
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Iterator, Literal, NamedTuple, Sequence, TypeAlias

import numpy as np

from .metrics import MetricEstimates, aggregate, binomial, confusion, sample_mean
from .model import ModelParams, SufficientStats, sample_block, update_stats
from .rules import (
    GapRuleConfig,
    GapRuleSpec,
    GiRuleSpec,
    GIRuleConfig,
    MaxGapRuleConfig,
    MaxGapRuleSpec,
    RuleSpec,
)
from .sprt import SprtConfig, SprtDecision, SprtTruncated, asn_asymptotic, run_sprt

__all__ = [
    "GENERATOR_ID",
    "ExperimentSpec",
    "ExperimentSummary",
    "GapRuleSpec",
    "GiRuleSpec",
    "MaxGapRuleSpec",
    "RuleSpec",
    "SprtBenchmark",
    "SprtMcResult",
    "SweepPoint",
    "TrialColumns",
    "TrialResult",
    "calibrated_rule",
    "default_horizon_cap",
    "derive_trial_seed",
    "matched_sprt_config",
    "ratio_sweep",
    "rho_sweep",
    "run_experiment",
    "run_experiment_with_trials",
    "run_trial",
    "sprt_benchmark",
    "sprt_error_mc",
    "summarize",
    "sweep_specs",
    "theoretical_asymptote",
    "trial_generator",
]

# Identifies the pinned pseudorandom scheme in every output artifact.
GENERATOR_ID = "philox4x64/splitmix64-keys/v1"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 64
_MIN_FIRST_BLOCK = 8  # below this, a draw's fixed cost outweighs the rows it saves
_TRUNCATION_LIMIT = 0.05
# Refuse specs whose worst case (every trial reaching the horizon) exceeds
# this many steps: at about 10^5 steps/s per core, 10^10 steps is over a
# day of work, e.g. "mu": 1e-3, whose default horizon is ~1.2e8 steps.
_MAX_WORST_CASE_STEPS = 10**10
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)
_ZERO_WORDS.flags.writeable = False


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """SplitMix64 mix of master seed and trial counter.

    For a fixed master seed the map is injective over all 64-bit trial
    indices: the increment constant is odd (so index scaling is a bijection
    mod 2^64) and the SplitMix64 finalizer is a bijection.
    """
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    x = (master_seed + trial_index * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def trial_generator(
    master_seed: int, trial_index: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """Counter-based generator for one trial (see GENERATOR_ID).

    Given a Philox-backed ``rng``, rekey it in place and return it instead
    of building a new generator.  A Philox stream is fully set by its key
    and counter, so with a zero counter and an empty output buffer the
    draws are those of a new generator, whatever ``rng`` drew before.
    """
    key = derive_trial_seed(master_seed, trial_index)
    if rng is None:
        return np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (key, 0)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to bit-reproduce one experiment."""

    params: ModelParams
    rule: RuleSpec
    alpha: float
    beta: float
    replications: int
    master_seed: int
    horizon_cap: int | None = None

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError(f"master_seed must be an unsigned 64-bit integer, got {self.master_seed}")
        if self.horizon_cap is not None and self.horizon_cap < 1:
            raise ValueError(f"horizon_cap must be >= 1, got {self.horizon_cap}")
        self.rule.check(self.params)
        calibrated_rule(self)  # surface calibration errors at construction
        # the asymptote sets the default horizon and the report's ratio;
        # an extreme mu over- or underflows mu**2 inside it
        try:
            asymptote = theoretical_asymptote(self)
        except ArithmeticError:
            asymptote = math.nan
        if not 0.0 < asymptote < math.inf:
            raise ValueError(
                f"mu={self.params.mu} is out of range: the theoretical mean sample size "
                "is not a finite positive number"
            )
        horizon = self.resolved_horizon_cap()
        if self.replications * horizon > _MAX_WORST_CASE_STEPS:
            raise ValueError(
                f"worst case {self.replications} replications x {horizon} steps = "
                f"{self.replications * horizon} steps exceeds the limit of {_MAX_WORST_CASE_STEPS} steps"
            )

    def resolved_horizon_cap(self) -> int:
        if self.horizon_cap is not None:
            return self.horizon_cap
        return default_horizon_cap(self)


def default_horizon_cap(spec: ExperimentSpec) -> int:
    """50x the theoretical mean sample size, rounded up, at least 1000."""
    return max(1000, math.ceil(50.0 * theoretical_asymptote(spec)))


def calibrated_rule(spec: ExperimentSpec) -> GapRuleConfig | MaxGapRuleConfig | GIRuleConfig:
    """Calibrate the spec's rule against its model and target levels."""
    return spec.rule.calibrate(spec.params, spec.alpha, spec.beta)


def theoretical_asymptote(spec: ExperimentSpec) -> float:
    """Small-error mean sample size for the spec's rule.

    gap:     (1-rho)/mu^2 * |log(min(alpha, beta))|
    maxgap:  2*(1-rho)/mu^2 * |log(min(alpha, beta))|
    gi:      |log(min(alpha, beta))| / (eta0 + eta1)   (independent baseline)
    """
    return spec.rule.asymptote(spec.params, abs(math.log(min(spec.alpha, spec.beta))))


@dataclass(frozen=True)
class TrialResult:
    """Stopping time, 1-based rejected set, and the truncation flag."""

    stopping_time: int
    rejected: frozenset[int]
    truncated: bool

    def __post_init__(self) -> None:
        if self.stopping_time < 1:
            raise ValueError(f"stopping_time must be >= 1, got {self.stopping_time}")


class TrialColumns(NamedTuple):
    """Per-trial results in trial-index order, one int64 column each: the
    stopping time, the confusion counts of the rejected set, and 1 for a
    trial the horizon cut off."""

    T: array
    V: array
    W: array
    R: array
    truncated: array

    @classmethod
    def zeros(cls, n: int) -> TrialColumns:
        return cls(*(array("q", [0]) * n for _ in cls._fields))


# (generator, first block size) -> stopping time, rejected set (None if truncated);
# a string, so that importing this module does not load numpy.random
Trial: TypeAlias = "Callable[[np.random.Generator, int], tuple[int, frozenset[int] | None]]"


def _blocks(draw: Callable[[int], list], horizon: int, first_block: int) -> Iterator[list]:
    """``draw(count)`` for ``first_block`` rows, then ``_BLOCK`` at a time, ``horizon`` rows in all."""
    n, block = 0, first_block
    while n < horizon:
        count = min(block, horizon - n)
        yield draw(count)
        n += count
        block = _BLOCK


def _all_wrong(signal_set: frozenset[int], K: int) -> frozenset[int]:
    """The rejected set a truncated trial is scored with."""
    return frozenset(range(1, K + 1)) - signal_set


def _rule_trial(spec: ExperimentSpec, horizon: int) -> Trial:
    params, step = spec.params, spec.rule.stepper(calibrated_rule(spec), spec.params)

    def trial(rng: np.random.Generator, first_block: int) -> tuple[int, frozenset[int] | None]:
        stats = SufficientStats._trusted(0, (0.0,) * params.K)
        for rows in _blocks(lambda count: sample_block(params, rng, count).tolist(), horizon, first_block):
            for row in rows:
                stats = update_stats(stats, row)
                decision = step(stats)
                if decision.stopped:
                    return stats.n, decision.rejected
        return horizon, None

    return trial


def run_trial(spec: ExperimentSpec, trial_index: int) -> TrialResult:
    """Simulate one trial; pure function of (spec, trial_index)."""
    rng = trial_generator(spec.master_seed, trial_index)
    n, rejected = _rule_trial(spec, spec.resolved_horizon_cap())(rng, _BLOCK)
    if rejected is None:
        return TrialResult(n, _all_wrong(spec.params.signal_set, spec.params.K), True)
    return TrialResult(n, rejected, False)


def _run_trials(
    master_seed: int, start: int, stop: int, trial: Trial, signal_set: frozenset[int], K: int
) -> TrialColumns:
    """The trial loop: trials ``start`` to ``stop - 1`` as columns."""
    columns = TrialColumns.zeros(stop - start)
    T, V, W, R, truncated = columns
    wrong = _all_wrong(signal_set, K)
    scored: dict[frozenset[int], tuple[int, int, int]] = {}
    rng, first_block, steps = None, _BLOCK, 0
    for j in range(stop - start):
        rng = trial_generator(master_seed, start + j, rng)
        n, rejected = trial(rng, first_block)
        if rejected is None:
            rejected = wrong
            truncated[j] = 1
        counts = scored.get(rejected)
        if counts is None:  # V, W, R depend only on the rejected set
            c = confusion(rejected, signal_set, K)
            counts = scored[rejected] = (c.V, c.W, c.R)
        T[j] = n
        V[j], W[j], R[j] = counts
        # twice the mean stopping time so far covers most trials in one draw
        steps += n
        first_block = min(_BLOCK, max(_MIN_FIRST_BLOCK, math.ceil(2 * steps / (j + 1))))
    return columns


def _run_chunk(spec: ExperimentSpec, start: int, stop: int) -> TrialColumns:
    trial = _rule_trial(spec, spec.resolved_horizon_cap())
    return _run_trials(spec.master_seed, start, stop, trial, spec.params.signal_set, spec.params.K)


def _run_all_trials(spec: ExperimentSpec, workers: int) -> TrialColumns:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = spec.replications
    if workers == 1 or n < 2 * _BLOCK:
        return _run_chunk(spec, 0, n)
    chunk = max(_BLOCK, math.ceil(n / (4 * workers)))
    columns = TrialColumns.zeros(n)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {s: pool.submit(_run_chunk, spec, s, min(s + chunk, n)) for s in range(0, n, chunk)}
        for s, fut in futures.items():
            for column, part in zip(columns, fut.result()):
                column[s:s + len(part)] = part
    return columns


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregated estimates plus everything needed to reproduce them."""

    metrics: MetricEstimates
    mean_T: float
    se_T: float
    asymptote: float
    ratio: float
    truncation_count: int
    replications: int
    master_seed: int
    generator_id: str = GENERATOR_ID

    @property
    def reliable(self) -> bool:
        return self.truncation_count <= _TRUNCATION_LIMIT * self.replications


def summarize(spec: ExperimentSpec, trials: TrialColumns) -> ExperimentSummary:
    """Aggregate completed trials (columns in trial-index order) into a summary."""
    time = sample_mean(trials.T)
    asymptote = theoretical_asymptote(spec)
    return ExperimentSummary(
        metrics=aggregate(trials.V, trials.W, trials.R, spec.params.K),
        mean_T=time.value,
        se_T=time.se,
        asymptote=asymptote,
        ratio=time.value / asymptote,
        truncation_count=sum(trials.truncated),
        replications=spec.replications,
        master_seed=spec.master_seed,
    )


def run_experiment_with_trials(
    spec: ExperimentSpec, workers: int = 1
) -> tuple[ExperimentSummary, TrialColumns]:
    """Run all replications and return the summary plus per-trial columns."""
    trials = _run_all_trials(spec, workers)
    return summarize(spec, trials), trials


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentSummary:
    """Run all replications of the spec and aggregate."""
    return run_experiment_with_trials(spec, workers)[0]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a sweep: the varied value, the resolved spec, the summary."""

    value: float
    spec: ExperimentSpec
    summary: ExperimentSummary


def sweep_specs(
    spec_template: ExperimentSpec, kind: Literal["alpha", "rho"], grid: Sequence[float]
) -> list[ExperimentSpec]:
    """The template at each grid point: alpha (= beta), or the common correlation.

    Building a spec validates it, so a bad point fails here, naming its
    grid entry, before any point runs.
    """
    if len(grid) == 0:
        raise ValueError(f"{kind}_grid must be nonempty")
    if kind == "alpha":
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"alpha_grid must be strictly decreasing, got {list(grid)}")
        point = lambda a: replace(spec_template, alpha=a, beta=a)
    elif kind == "rho":
        point = lambda rho: replace(spec_template, params=replace(spec_template.params, rho=rho))
    else:
        raise ValueError(f"sweep kind must be 'alpha' or 'rho', got {kind!r}")
    specs = []
    for value in grid:
        try:
            specs.append(point(value))
        except ValueError as exc:
            raise ValueError(f"{kind}_grid entry {value!r}: {exc}") from exc
    return specs


def _run_points(specs: list[ExperimentSpec], grid: Sequence[float], workers: int) -> list[SweepPoint]:
    return [
        SweepPoint(value=value, spec=spec, summary=run_experiment(spec, workers))
        for value, spec in zip(grid, specs)
    ]


def ratio_sweep(
    spec_template: ExperimentSpec,
    alpha_grid: Sequence[float],
    workers: int = 1,
) -> list[SweepPoint]:
    """Run the template at each alpha (= beta) on a decreasing grid.

    All points share the template's master seed (common random numbers), so
    cross-point comparisons are variance-reduced.
    """
    return _run_points(sweep_specs(spec_template, "alpha", alpha_grid), alpha_grid, workers)


def rho_sweep(
    spec_template: ExperimentSpec,
    rho_grid: Sequence[float],
    workers: int = 1,
) -> list[SweepPoint]:
    """Run the template at each common correlation, sharing the master seed."""
    return _run_points(sweep_specs(spec_template, "rho", rho_grid), rho_grid, workers)


@dataclass(frozen=True)
class SprtBenchmark:
    """Gap-rule mean sample size against the matched single-pair SPRT yardstick."""

    gap_summary: ExperimentSummary
    sprt_level: float
    sprt_asn: float
    ratio: float


def matched_sprt_config(spec: ExperimentSpec) -> SprtConfig:
    """One-sided SPRT distinguishing a wrongly-ordered pair of streams.

    The pairwise sum difference has mean -mu vs +mu and variance 2*(1-rho)
    per step; the level is min(alpha, beta) split across the m*(K-m)
    signal/noise pairs.
    """
    rule = spec.rule
    if not isinstance(rule, GapRuleSpec):
        raise ValueError(f"SPRT benchmark applies to the gap rule, got kind={rule.kind!r}")
    p = spec.params
    level = min(spec.alpha, spec.beta) / (rule.m * (p.K - rule.m))
    return SprtConfig(theta0=-p.mu, theta1=p.mu, sigma2=2.0 * (1.0 - p.rho), gamma=level, delta=0.0)


def sprt_benchmark(spec: ExperimentSpec, workers: int = 1) -> SprtBenchmark:
    """Ratio of the gap rule's Monte Carlo mean sample size to the SPRT ASN."""
    config = matched_sprt_config(spec)
    asn = asn_asymptotic(config)
    summary = run_experiment(spec, workers)
    return SprtBenchmark(
        gap_summary=summary,
        sprt_level=config.gamma,
        sprt_asn=asn,
        ratio=summary.mean_T / asn,
    )


@dataclass(frozen=True)
class SprtMcResult:
    """Monte Carlo estimates for a single-stream SPRT."""

    mean_T: float
    se_T: float
    error_rate: float
    error_se: float
    truncation_count: int
    replications: int


_STREAM_1 = frozenset({1})  # the SPRT's signal set under h1, and its rejected set on a rejection


def _sprt_trial(config: SprtConfig, truth: Literal["h0", "h1"], horizon: int) -> Trial:
    mean = config.theta0 if truth == "h0" else config.theta1
    sd = math.sqrt(config.sigma2)

    def trial(rng: np.random.Generator, first_block: int) -> tuple[int, frozenset[int] | None]:
        draws = _blocks(lambda count: (mean + sd * rng.standard_normal(count)).tolist(), horizon, first_block)
        outcome = run_sprt(config, chain.from_iterable(draws), horizon)
        if isinstance(outcome, SprtTruncated):
            return outcome.stopping_time, None
        return outcome.stopping_time, _STREAM_1 if outcome.decision is SprtDecision.REJECT_H0 else frozenset()

    return trial


def sprt_error_mc(
    config: SprtConfig,
    truth: Literal["h0", "h1"],
    replications: int,
    master_seed: int,
    horizon_cap: int | None = None,
) -> SprtMcResult:
    """Estimate the SPRT's error rate and mean stopping time by simulation.

    ``truth`` selects the data-generating mean.  The error event is
    rejecting under h0 / accepting under h1; truncated runs count as
    errors (conservative) and are also reported separately.  The runs go
    through the harness's trial loop as one stream whose signal set is
    empty under h0 and {1} under h1, so a run errs exactly when V + W > 0.
    """
    if truth not in ("h0", "h1"):
        raise ValueError(f"truth must be 'h0' or 'h1', got {truth!r}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    horizon = horizon_cap if horizon_cap is not None else max(1000, math.ceil(50.0 * asn_asymptotic(config)))
    signal_set = frozenset() if truth == "h0" else _STREAM_1
    trials = _run_trials(master_seed, 0, replications, _sprt_trial(config, truth, horizon), signal_set, 1)
    time = sample_mean(trials.T)
    error = binomial(np.logical_or(trials.V, trials.W))  # V + W > 0, without an int64 temporary
    return SprtMcResult(
        mean_T=time.value,
        se_T=time.se,
        error_rate=error.value,
        error_se=error.se,
        truncation_count=sum(trials.truncated),
        replications=replications,
    )
