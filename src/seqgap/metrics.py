"""Per-trial confusion accounting and aggregation into error-rate estimates.

Per trial: V true nulls rejected, W false nulls accepted, R total
rejections; ``confusion`` returns them as the tuple ``(V, W, R)`` for one
rejected set.  Aggregation reads V, W and R as columns, one entry per
trial, and derives each trial's false-discovery and false-non-discovery
proportions (guarded at 0 denominators) and the 0/1 indicators behind the
familywise rates:

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

import numpy as np

__all__ = [
    "Estimate",
    "MetricEstimates",
    "aggregate",
    "binomial",
    "confusion",
    "sample_mean",
]


def confusion(rejected: Iterable[int], signal_set: Iterable[int], K: int) -> tuple[int, int, int]:
    """``(V, W, R)``: false rejections, false acceptances and total rejections.

    Both sets lie in 1..K once the checks pass, so 0 <= V <= R <= K and
    0 <= W <= K - R: false acceptances live among the K - R accepted streams.
    """
    d = frozenset(int(i) for i in rejected)
    a = frozenset(int(i) for i in signal_set)
    streams = frozenset(range(1, K + 1))
    if not d <= streams:
        raise ValueError(f"rejected set {sorted(d - streams)} outside 1..{K}")
    if not a <= streams:
        raise ValueError(f"signal set {sorted(a - streams)} outside 1..{K}")
    return len(d - a), len(a - d), len(d)


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
    p = int(np.count_nonzero(values)) / n
    return Estimate(value=p, se=math.sqrt(p * (1.0 - p) / n))


def sample_mean(values: Sequence[float]) -> Estimate:
    """Mean with its sample standard error (0 for a single value)."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return Estimate(value=mean, se=0.0)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return Estimate(value=mean, se=math.sqrt(var / n))


def _conditional(values: np.ndarray) -> Estimate:
    if len(values) == 0:
        return Estimate(value=None, se=None, defined=False)
    return Estimate(value=sum(values.tolist()) / len(values), se=None)


def aggregate(V: Sequence[int], W: Sequence[int], R: Sequence[int], K: int) -> MetricEstimates:
    """Metric estimates from per-trial V, W, R columns on K streams.

    The proportions are computed per trial (float division is correctly
    rounded, so each equals Python's ``V / max(R, 1)``) and summed with the
    built-in ``sum`` over Python floats in the order given.  Float sums
    depend on their order, so FDR, FNR and their conditional forms can
    change in the last digits if the trials are reordered; the harness
    passes trials in trial-index order, which keeps reports byte-identical
    across ``--workers``.
    """
    v, w, r = (np.asarray(column, dtype=np.int64) for column in (V, W, R))
    if len(v) == 0:
        raise ValueError("cannot aggregate an empty trial collection")
    fdp = v / np.maximum(r, 1)
    fnp = w / np.maximum(K - r, 1)
    return MetricEstimates(
        fwer1=binomial(v >= 1),
        fwer2=binomial(w >= 1),
        pics=binomial(v + w > 0),
        fdr=sample_mean(fdp.tolist()),
        fnr=sample_mean(fnp.tolist()),
        pfdr=_conditional(fdp[r >= 1]),
        pfnr=_conditional(fnp[r < K]),
    )
