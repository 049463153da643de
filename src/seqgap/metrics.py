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
copies no column and loads no numpy.  Each float total is one built-in
``sum`` over the whole trial-ordered stream, never a sum of partial sums:
the float ``sum`` of CPython 3.12+ is compensated across its whole input.
A trial's proportion depends only on its (V, R) or (W, R) pair, of which a
run has few, so each pair is divided once and then looked up.  The trial
dump reads the columns ``_SLICE`` trials at a time through ``_slices``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat
from operator import countOf, lt
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Estimate",
    "MetricEstimates",
    "aggregate",
    "binomial",
    "confusion",
    "sample_mean",
]

_SLICE = 4096  # trials per slice of the columns
_QUOTIENTS_KEPT = 4096  # (V, R) or (W, R) pairs kept: all (K + 1)(K + 2) / 2 of them up to K = 89


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


def sample_mean(values: Sequence[float]) -> Estimate:
    """Mean with its sample standard error (0 for a single value).

    ``values`` is iterated twice (the mean, then the variance), so a lazy
    column that yields the same values on each pass serves as well as a list.
    """
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return Estimate(value=mean, se=0.0)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return Estimate(value=mean, se=math.sqrt(var / n))


def _slices(*columns: Sequence) -> Iterator[list]:
    """The columns one slice of ``_SLICE`` trials at a time, in trial order."""
    for start in range(0, len(columns[0]), _SLICE):
        yield [column[start : start + _SLICE] for column in columns]


class _Floats:
    """``n`` floats that ``values()`` yields afresh on each of ``sample_mean``'s two passes."""

    def __init__(self, values: Callable[[], Iterator[float]], n: int) -> None:
        self._values, self._len = values, n

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[float]:
        return self._values()


class _Quotients(dict):
    """``quotient(*key)`` as a Python float by key, each computed once; at most ``_QUOTIENTS_KEPT`` kept."""

    def __init__(self, quotient: Callable[[int, int], float]) -> None:
        self._quotient = quotient

    def __missing__(self, key: tuple[int, int]) -> float:
        value = float(self._quotient(*key))  # a Python float even from numpy integers
        if len(self) < _QUOTIENTS_KEPT:
            self[key] = value
        return value


def _conditional(values: Iterator[float], n: int) -> Estimate:
    if n == 0:
        return Estimate(value=None, se=None, defined=False)
    return Estimate(value=sum(values) / n, se=None)


def aggregate(V: Sequence[int], W: Sequence[int], R: Sequence[int], K: int) -> MetricEstimates:
    """Metric estimates from per-trial V, W, R columns on K streams.

    Each proportion is Python's ``V / max(R, 1)`` or ``W / max(K - R, 1)``,
    correctly rounded, and each total is one ``sum`` in the order given:
    reordered trials can change FDR, FNR and their conditional forms in the
    last digits, so the harness passes them in trial-index order, which
    keeps reports byte-identical across ``--workers``.  The columns may be
    any sequences of integers, Python's or numpy's, and are never copied.
    """
    n = len(V)
    if n == 0:
        raise ValueError("cannot aggregate an empty trial collection")
    fdp = _Quotients(lambda v, r: v / max(r, 1))
    fnp = _Quotients(lambda w, r: w / max(K - r, 1))
    fdps = lambda: map(fdp.__getitem__, zip(V, R))
    fnps = lambda: map(fnp.__getitem__, zip(W, R))
    return MetricEstimates(
        fwer1=binomial(n - countOf(V, 0), n),
        fwer2=binomial(n - countOf(W, 0), n),
        pics=binomial(sum(1 for v, w in zip(V, W) if v or w), n),
        fdr=sample_mean(_Floats(fdps, n)),
        fnr=sample_mean(_Floats(fnps, n)),
        pfdr=_conditional(compress(fdps(), R), n - countOf(R, 0)),  # the trials with R >= 1
        pfnr=_conditional(compress(fnps(), map(lt, R, repeat(K))), n - countOf(R, K)),  # and with R < K
    )
