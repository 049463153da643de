"""Deterministic, parallelizable replication harness.

Every trial owns a counter-based generator (numpy Philox) keyed by a
SplitMix64 mix of (master_seed, trial_index), so results are independent
of scheduling and worker count: the same spec bit-reproduces the same
estimates serially or in parallel.  Trials are simulated in sampled blocks
but consume the random stream exactly as single-step sampling would.

Truncated trials (no stop by the horizon cap) are scored as maximally
wrong: the recorded rejection set is the complement of the signal set,
which drives every error indicator and proportion to 1 while keeping the
confusion identities exact.  Experiments with more than 5% truncations are
flagged unreliable.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator, Literal, Sequence

import numpy as np

from .metrics import (
    MetricEstimates,
    TrialContribs,
    aggregate,
    binomial,
    confusion,
    per_trial_contribs,
    sample_mean,
)
from .model import ModelParams, SufficientStats, sample_block, update_stats
from .rules import (
    GapRuleConfig,
    GapRuleSpec,
    GiRuleSpec,
    GIRuleConfig,
    MaxGapRuleConfig,
    MaxGapRuleSpec,
    RuleSpec,
    Stepper,
)
from .sprt import SprtConfig, SprtOutcome, SprtDecision, asn_asymptotic, run_sprt

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
    "theoretical_asymptote",
    "trial_contribs",
    "trial_generator",
]

# Identifies the pinned pseudorandom scheme in every output artifact.
GENERATOR_ID = "philox4x64/splitmix64-keys/v1"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 64
_TRUNCATION_LIMIT = 0.05


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


def trial_generator(master_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based generator for one trial (see GENERATOR_ID)."""
    return np.random.Generator(np.random.Philox(key=derive_trial_seed(master_seed, trial_index)))


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


def _make_stepper(spec: ExperimentSpec) -> Stepper:
    return spec.rule.stepper(calibrated_rule(spec), spec.params)


def _simulate(spec: ExperimentSpec, step: Stepper, trial_index: int) -> TrialResult:
    params = spec.params
    horizon = spec.resolved_horizon_cap()
    rng = trial_generator(spec.master_seed, trial_index)
    stats = SufficientStats.initial(params.K)
    n = 0
    while n < horizon:
        rows = sample_block(params, rng, min(_BLOCK, horizon - n)).tolist()
        for row in rows:
            stats = update_stats(stats, row)
            n += 1
            decision = step(stats)
            if decision.stopped:
                assert decision.rejected is not None
                return TrialResult(n, decision.rejected, False)
    wrong = frozenset(range(1, params.K + 1)) - params.signal_set
    return TrialResult(horizon, wrong, True)


def run_trial(spec: ExperimentSpec, trial_index: int) -> TrialResult:
    """Simulate one trial; pure function of (spec, trial_index)."""
    return _simulate(spec, _make_stepper(spec), trial_index)


def _run_chunk(spec: ExperimentSpec, start: int, stop: int) -> list[TrialResult]:
    step = _make_stepper(spec)
    return [_simulate(spec, step, i) for i in range(start, stop)]


def _run_all_trials(spec: ExperimentSpec, workers: int) -> list[TrialResult]:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = spec.replications
    if workers == 1 or n < 2 * _BLOCK:
        return _run_chunk(spec, 0, n)
    chunk = max(_BLOCK, math.ceil(n / (4 * workers)))
    starts = list(range(0, n, chunk))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_chunk, spec, s, min(s + chunk, n)) for s in starts]
        results: list[TrialResult] = []
        for fut in futures:  # submission order == trial-index order
            results.extend(fut.result())
    return results


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


def trial_contribs(trial: TrialResult, params: ModelParams) -> TrialContribs:
    """Metric contributions of one trial (truncated trials score as all-wrong)."""
    counts = confusion(trial.rejected, params.signal_set, params.K)
    return per_trial_contribs(counts)


def summarize(spec: ExperimentSpec, trials: Sequence[TrialResult]) -> ExperimentSummary:
    """Aggregate completed trials (in trial-index order) into a summary."""
    contribs = [trial_contribs(t, spec.params) for t in trials]
    time = sample_mean([t.stopping_time for t in trials])
    asymptote = theoretical_asymptote(spec)
    return ExperimentSummary(
        metrics=aggregate(contribs),
        mean_T=time.value,
        se_T=time.se,
        asymptote=asymptote,
        ratio=time.value / asymptote,
        truncation_count=sum(1 for t in trials if t.truncated),
        replications=spec.replications,
        master_seed=spec.master_seed,
    )


def run_experiment_with_trials(
    spec: ExperimentSpec, workers: int = 1
) -> tuple[ExperimentSummary, list[TrialResult]]:
    """Run all replications and return the summary plus per-trial results."""
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


def ratio_sweep(
    spec_template: ExperimentSpec,
    alpha_grid: Sequence[float],
    workers: int = 1,
) -> list[SweepPoint]:
    """Run the template at each alpha (= beta) on a decreasing grid.

    All points share the template's master seed (common random numbers), so
    cross-point comparisons are variance-reduced.
    """
    if len(alpha_grid) == 0:
        raise ValueError("grid must be nonempty")
    if any(b >= a for a, b in zip(alpha_grid, alpha_grid[1:])):
        raise ValueError(f"alpha grid must be strictly decreasing, got {list(alpha_grid)}")
    points = []
    for a in alpha_grid:
        spec = replace(spec_template, alpha=a, beta=a)
        points.append(SweepPoint(value=a, spec=spec, summary=run_experiment(spec, workers)))
    return points


def rho_sweep(
    spec_template: ExperimentSpec,
    rho_grid: Sequence[float],
    workers: int = 1,
) -> list[SweepPoint]:
    """Run the template at each common correlation, sharing the master seed."""
    if len(rho_grid) == 0:
        raise ValueError("grid must be nonempty")
    points = []
    for rho in rho_grid:
        spec = replace(spec_template, params=replace(spec_template.params, rho=rho))
        points.append(SweepPoint(value=rho, spec=spec, summary=run_experiment(spec, workers)))
    return points


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


def _gaussian_increments(rng: np.random.Generator, mean: float, sd: float, horizon: int) -> Iterator[float]:
    remaining = horizon
    while remaining > 0:
        block = mean + sd * rng.standard_normal(min(_BLOCK, remaining))
        yield from block.tolist()
        remaining -= block.shape[0]


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
    errors (conservative) and are also reported separately.
    """
    if truth not in ("h0", "h1"):
        raise ValueError(f"truth must be 'h0' or 'h1', got {truth!r}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    horizon = horizon_cap if horizon_cap is not None else max(1000, math.ceil(50.0 * asn_asymptotic(config)))
    mean = config.theta0 if truth == "h0" else config.theta1
    sd = math.sqrt(config.sigma2)
    wrong = SprtDecision.REJECT_H0 if truth == "h0" else SprtDecision.ACCEPT_H0
    times = []
    errors = []
    truncations = 0
    for rep in range(replications):
        rng = trial_generator(master_seed, rep)
        outcome = run_sprt(config, _gaussian_increments(rng, mean, sd, horizon), horizon)
        times.append(outcome.stopping_time)
        if isinstance(outcome, SprtOutcome):
            errors.append(int(outcome.decision is wrong))
        else:
            truncations += 1
            errors.append(1)
    time = sample_mean(times)
    error = binomial(errors)
    return SprtMcResult(
        mean_T=time.value,
        se_T=time.se,
        error_rate=error.value,
        error_se=error.se,
        truncation_count=truncations,
        replications=replications,
    )
