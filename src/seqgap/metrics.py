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

Aggregation reads the columns one slice of ``_SLICE`` trials at a time, so
its numpy temporaries and Python floats exist for one slice only and its
memory does not grow with the number of trials.  Each float total is still
one built-in ``sum`` over the whole trial-ordered stream of floats, never a
sum of per-slice sums: the float ``sum`` of CPython 3.12+ is compensated
across its whole input, so only one ``sum`` per total keeps the result
independent of the slice size on every supported Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Estimate",
    "MetricEstimates",
    "aggregate",
    "binomial",
    "confusion",
    "sample_mean",
]

_SLICE = 4096  # trials per slice of the columns


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


def _count(vwr: Sequence[np.ndarray], test: Callable[..., np.ndarray]) -> int:
    """Trials that pass ``test``, counted one slice at a time."""
    return sum(int(np.count_nonzero(test(*part))) for part in _slices(*vwr))


class _Floats:
    """Per-trial floats in trial order, computed one slice at a time on each
    pass: ``floats`` of the slice's V, W, R, restricted to the trials that
    pass ``keep`` (all of them when it is None)."""

    def __init__(
        self,
        vwr: Sequence[np.ndarray],
        floats: Callable[..., np.ndarray],
        keep: Callable[..., np.ndarray] | None = None,
    ) -> None:
        self._vwr, self._floats, self._keep = vwr, floats, keep
        self._len = len(vwr[0]) if keep is None else _count(vwr, keep)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[float]:
        for part in _slices(*self._vwr):
            values = self._floats(*part)
            if self._keep is not None:
                values = values[self._keep(*part)]
            yield from values.tolist()


def _conditional(values: _Floats) -> Estimate:
    if len(values) == 0:
        return Estimate(value=None, se=None, defined=False)
    return Estimate(value=sum(values) / len(values), se=None)


def aggregate(V: Sequence[int], W: Sequence[int], R: Sequence[int], K: int) -> MetricEstimates:
    """Metric estimates from per-trial V, W, R columns on K streams.

    The proportions are computed per trial (float division is correctly
    rounded, so each equals Python's ``V / max(R, 1)``), one slice of
    ``_SLICE`` trials at a time, and each total is one built-in ``sum`` over
    the Python floats of every slice in the order given, so the slice size
    cannot change a result.  Float sums depend on their order, so FDR, FNR
    and their conditional forms can change in the last digits if the trials
    are reordered; the harness passes trials in trial-index order, which
    keeps reports byte-identical across ``--workers``.
    """
    vwr = [np.asarray(column, dtype=np.int64) for column in (V, W, R)]
    n = len(vwr[0])
    if n == 0:
        raise ValueError("cannot aggregate an empty trial collection")

    def fdp(v, w, r):
        return v / np.maximum(r, 1)

    def fnp(v, w, r):
        return w / np.maximum(K - r, 1)

    return MetricEstimates(
        fwer1=binomial(_count(vwr, lambda v, w, r: v >= 1), n),
        fwer2=binomial(_count(vwr, lambda v, w, r: w >= 1), n),
        pics=binomial(_count(vwr, lambda v, w, r: v + w > 0), n),
        fdr=sample_mean(_Floats(vwr, fdp)),
        fnr=sample_mean(_Floats(vwr, fnp)),
        pfdr=_conditional(_Floats(vwr, fdp, lambda v, w, r: r >= 1)),
        pfnr=_conditional(_Floats(vwr, fnp, lambda v, w, r: r < K)),
    )
