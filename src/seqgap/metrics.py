"""Per-trial confusion accounting and aggregation into error-rate estimates.

Per trial: V true nulls rejected, W false nulls accepted, R total
rejections.  Trial contributions are the false-discovery and
false-non-discovery proportions (guarded at 0 denominators) and the 0/1
indicators behind the familywise rates.  Aggregation produces:

    FWER1 = P(V >= 1)            FWER2 = P(W >= 1)
    PICS  = P(selection != truth)
    FDR   = E[V / max(R, 1)]     FNR   = E[W / max(K - R, 1)]
    pFDR  = E[V / R | R >= 1]    pFNR  = E[W / (K - R) | K - R >= 1]

Indicator metrics carry binomial standard errors, proportion metrics carry
sample standard errors; the conditional metrics use the ratio-of-sums
estimator and are reported as undefined (never 0) when no trial qualifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "ConfusionCounts",
    "Estimate",
    "MetricEstimates",
    "TrialContribs",
    "aggregate",
    "binomial",
    "confusion",
    "per_trial_contribs",
    "sample_mean",
]


@dataclass(frozen=True)
class ConfusionCounts:
    """V, W, R for one trial on K streams."""

    V: int
    W: int
    R: int
    K: int

    def __post_init__(self) -> None:
        if not 0 <= self.V <= self.R <= self.K:
            raise ValueError(f"need 0 <= V <= R <= K, got V={self.V}, R={self.R}, K={self.K}")
        # false acceptances live among the K - R accepted streams; this also
        # caps the implied signal count R - V + W at K and keeps fnp <= 1
        if not 0 <= self.W <= self.K - self.R:
            raise ValueError(
                f"W out of range 0..{self.K - self.R} "
                f"(K={self.K} streams, R={self.R} rejected): {self.W}"
            )


def confusion(rejected: Iterable[int], signal_set: Iterable[int], K: int) -> ConfusionCounts:
    """Count false rejections, false acceptances, and total rejections."""
    d = frozenset(int(i) for i in rejected)
    a = frozenset(int(i) for i in signal_set)
    streams = frozenset(range(1, K + 1))
    if not d <= streams:
        raise ValueError(f"rejected set {sorted(d - streams)} outside 1..{K}")
    if not a <= streams:
        raise ValueError(f"signal set {sorted(a - streams)} outside 1..{K}")
    return ConfusionCounts(V=len(d - a), W=len(a - d), R=len(d), K=K)


@dataclass(frozen=True)
class TrialContribs:
    """One trial's additive contributions to every metric estimator."""

    fdp: float
    fnp: float
    any_false_rej: int
    any_false_acc: int
    incorrect_selection: int
    r_positive: int
    k_minus_r_positive: int


def per_trial_contribs(counts: ConfusionCounts) -> TrialContribs:
    """Proportions and indicators for one trial's confusion counts."""
    fdp = counts.V / max(counts.R, 1)
    fnp = counts.W / max(counts.K - counts.R, 1)
    return TrialContribs(
        fdp=fdp,
        fnp=fnp,
        any_false_rej=int(counts.V >= 1),
        any_false_acc=int(counts.W >= 1),
        incorrect_selection=int(counts.V + counts.W > 0),
        r_positive=int(counts.R >= 1),
        k_minus_r_positive=int(counts.K - counts.R >= 1),
    )


@dataclass(frozen=True)
class Estimate:
    """Point estimate with standard error; ``defined`` is False when no
    trial qualifies for a conditional metric (value and se are None then)."""

    value: float | None
    se: float | None
    defined: bool = True


@dataclass(frozen=True)
class MetricEstimates:
    fwer1: Estimate
    fwer2: Estimate
    pics: Estimate
    fdr: Estimate
    fnr: Estimate
    pfdr: Estimate
    pfnr: Estimate


def binomial(values: Sequence[int]) -> Estimate:
    """Share of 1s among 0/1 values, with its binomial standard error."""
    n = len(values)
    p = sum(values) / n
    return Estimate(value=p, se=math.sqrt(p * (1.0 - p) / n))


def sample_mean(values: Sequence[float]) -> Estimate:
    """Mean with its sample standard error (0 for a single value)."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return Estimate(value=mean, se=0.0)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return Estimate(value=mean, se=math.sqrt(var / n))


def _conditional(numerators: Sequence[float], qualifies: Sequence[int]) -> Estimate:
    count = sum(qualifies)
    if count == 0:
        return Estimate(value=None, se=None, defined=False)
    total = sum(num for num, q in zip(numerators, qualifies) if q)
    return Estimate(value=total / count, se=None)


def aggregate(contribs: Sequence[TrialContribs]) -> MetricEstimates:
    """Combine per-trial contributions into metric estimates.

    Order-independent (sums only), so results do not depend on how trials
    were scheduled, provided the collection itself is complete.
    """
    if not contribs:
        raise ValueError("cannot aggregate an empty trial collection")
    return MetricEstimates(
        fwer1=binomial([t.any_false_rej for t in contribs]),
        fwer2=binomial([t.any_false_acc for t in contribs]),
        pics=binomial([t.incorrect_selection for t in contribs]),
        fdr=sample_mean([t.fdp for t in contribs]),
        fnr=sample_mean([t.fnp for t in contribs]),
        pfdr=_conditional([t.fdp for t in contribs], [t.r_positive for t in contribs]),
        pfnr=_conditional([t.fnp for t in contribs], [t.k_minus_r_positive for t in contribs]),
    )
