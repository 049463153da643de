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

Aggregation reads V, W and R entry by entry from any integer sequences,
copies no column and loads no numpy.  Every total is ``_total``, a plain
left-to-right fold from the int 0 over the trial-ordered stream: the
built-in ``sum`` of CPython 3.10 and 3.11 adds the same way, but from
3.12 on it compensates float totals, which would move the last digits of
a report with the interpreter rather than with the config.  A trial's
proportion, and its squared deviation from the mean, depend only on its
(V, R) or (W, R) pair, of which a run has few, so each is computed once
per pair and then looked up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, countOf
from typing import Callable, Iterable, Sequence

__all__ = [
    "Estimate",
    "MetricEstimates",
    "aggregate",
    "binomial",
    "confusion",
    "sample_mean",
]

_MEMO_KEPT = 4096  # keys kept: all (K + 1)(K + 2) / 2 (V, R) or (W, R) pairs up to K = 89


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


def binomial(hits: int, n: int) -> Estimate:
    """Share of hits among n trials, with its binomial standard error."""
    p = hits / n
    return Estimate(value=p, se=math.sqrt(p * (1.0 - p) / n))


def _total(values: Iterable) -> float | int:
    """``values`` added left to right to the int 0, as the ``sum`` of CPython 3.10 and 3.11 adds them."""
    return reduce(add, values, 0)


def sample_mean(values: Sequence[float]) -> Estimate:
    """Mean with its sample standard error (0 for a single value).

    ``values`` is iterated twice: the mean, then the variance, in which each
    distinct value's squared deviation is computed once.
    """
    n = len(values)
    mean = _total(values) / n
    square = _Memo(lambda v: (v - mean) ** 2)
    return _spread(mean, n, map(square.__getitem__, values))


def _spread(mean: float, n: int, squares: Iterable[float]) -> Estimate:
    """``mean`` of n values, with the sample standard error of their squared deviations ``squares``."""
    if n < 2:
        return Estimate(value=mean, se=0.0)
    var = _total(squares) / (n - 1)
    return Estimate(value=mean, se=math.sqrt(var / n))


class _Memo(dict):
    """``function(*key)`` for a tuple key, else ``function(key)``, as a Python float by key,
    each computed once; at most ``_MEMO_KEPT`` kept."""

    def __init__(self, function: Callable[..., float]) -> None:
        self._function = function

    def __missing__(self, key: object) -> float:
        value = self._function(*key) if type(key) is tuple else self._function(key)
        value = float(value)  # a Python float even from numpy integers
        if len(self) < _MEMO_KEPT:
            self[key] = value
        return value


def _proportion(quotient: _Memo, pairs: Callable, n: int, qualifying: int) -> tuple[Estimate, Estimate]:
    """The sample mean of ``quotient`` over the trials' ``pairs()``, and its conditional mean
    over the ``qualifying`` trials, those whose quotient can be nonzero: each other trial adds
    a 0.0, which leaves a float total as it is, so both means share one total."""
    total = _total(map(quotient.__getitem__, pairs()))
    mean = total / n
    square = _Memo(lambda *pair: (quotient[pair] - mean) ** 2)
    conditional = Estimate(total / qualifying, None) if qualifying else Estimate(None, None, defined=False)
    return _spread(mean, n, map(square.__getitem__, pairs())), conditional


def aggregate(V: Sequence[int], W: Sequence[int], R: Sequence[int], K: int) -> MetricEstimates:
    """Metric estimates from per-trial V, W, R columns on K streams.

    Each proportion is Python's ``V / max(R, 1)`` or ``W / max(K - R, 1)``,
    correctly rounded, and each total is one ``_total`` in the order given:
    reordered trials can change FDR, FNR and their conditional forms in the
    last digits, so the harness passes them in trial-index order, which
    keeps reports byte-identical across ``--workers``.  The columns may be
    any sequences of integers, Python's or numpy's, and are never copied:
    each pass zips them afresh.  They hold what ``confusion`` gives, so
    V <= R and W <= K - R: a trial with R = 0 has an FDP of 0, and one with
    R = K an FNP of 0.
    """
    n = len(V)
    if n == 0:
        raise ValueError("cannot aggregate an empty trial collection")
    fdr, pfdr = _proportion(_Memo(lambda v, r: v / max(r, 1)), lambda: zip(V, R), n, n - countOf(R, 0))
    fnr, pfnr = _proportion(_Memo(lambda w, r: w / max(K - r, 1)), lambda: zip(W, R), n, n - countOf(R, K))
    return MetricEstimates(
        fwer1=binomial(n - countOf(V, 0), n),
        fwer2=binomial(n - countOf(W, 0), n),
        pics=binomial(n - countOf(zip(V, W), (0, 0)), n),
        fdr=fdr,
        fnr=fnr,
        pfdr=pfdr,
        pfnr=pfnr,
    )
