"""Wald sequential probability ratio test for a Gaussian mean.

Two simple hypotheses theta0 vs theta1 (theta0 < theta1) with known
variance sigma2.  The log-boundaries are a = log[(1-delta)/gamma] and
b = log[delta/(1-gamma)]; delta = 0 selects the one-sided test (b = -inf,
never accept the null).  Decisions compare the drift-centered sum

    sum(u) - n*(theta1+theta0)/2

against the boundaries rescaled by sigma2/(theta1-theta0).

``sprt_step`` returns the rejected set of one stream, as the rule steps
do: ``REJECT_H0`` = {1} or ``ACCEPT_H0`` = {} on a decision, ``None`` to
continue.  ``run_sprt`` returns the run's ``TrialResult(stopping_time,
rejected)``, the type of every trial's outcome, with ``rejected`` None
when the horizon or the source runs out.

Also provides the classical average-sample-number (ASN) approximations and
the small-error asymptotic ASN used as the optimality yardstick for the
multi-stream rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, NamedTuple

__all__ = [
    "ACCEPT_H0",
    "REJECT_H0",
    "SprtConfig",
    "TrialResult",
    "asn_asymptotic",
    "asn_wald",
    "run_sprt",
    "sprt_step",
]


REJECT_H0: frozenset[int] = frozenset({1})  # the null is rejected: stream 1 carries the signal
ACCEPT_H0: frozenset[int] = frozenset()


@dataclass(frozen=True)
class SprtConfig:
    """Hypotheses, known variance, and target error levels gamma (type I),
    delta (type II).  delta = 0 selects the one-sided test.

    Building the config also derives, once, the log-boundaries ``a`` and
    ``b`` (``b`` = -inf when delta = 0), ``sum_scale`` = sigma2/(theta1 -
    theta0) and ``drift`` = (theta1 + theta0)/2, and the statistic's two
    sum-scale thresholds for ``sprt_step``.  They are not fields: equality,
    hashing and repr stay those of the five fields; ``dataclasses.replace``
    rebuilds them and pickle carries them.
    """

    theta0: float
    theta1: float
    sigma2: float = 1.0
    gamma: float = 0.05
    delta: float = 0.05

    def __post_init__(self) -> None:
        for name in ("theta0", "theta1", "sigma2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.theta0 < self.theta1:
            raise ValueError(f"need theta0 < theta1, got {self.theta0} >= {self.theta1}")
        if not self.sigma2 > 0.0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if not self.gamma + self.delta < 1.0:
            raise ValueError(f"need gamma + delta < 1, got {self.gamma + self.delta}")
        try:
            kl = self.kl_rate
        except OverflowError:
            kl = math.inf
        if not 0.0 < kl < math.inf:
            raise ValueError(
                f"the information number (theta1-theta0)^2/(2*sigma2) = {kl} for theta0={self.theta0}, "
                f"theta1={self.theta1}, sigma2={self.sigma2} is not a finite positive number"
            )
        a = math.log((1.0 - self.delta) / self.gamma)
        b = math.log(self.delta / (1.0 - self.gamma)) if self.delta > 0.0 else -math.inf
        if not math.isfinite(a):
            raise ValueError(f"boundary a = log((1-delta)/gamma) = {a} is not finite for gamma={self.gamma}")
        if self.delta > 0.0 and not math.isfinite(b):
            raise ValueError(f"boundary b = log(delta/(1-gamma)) = {b} is not finite for delta={self.delta}")
        if not math.isfinite(asn_asymptotic(self)):
            raise ValueError(
                f"the asymptotic mean sample size is not finite: the information number {kl} is too small"
            )
        sum_scale = self.sigma2 / (self.theta1 - self.theta0)
        # set one by one: on CPython 3.11, writing through ``__dict__`` would
        # slow every later attribute read, three per ``sprt_step`` call
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sum_scale", sum_scale)
        object.__setattr__(self, "drift", (self.theta1 + self.theta0) / 2.0)
        object.__setattr__(self, "_upper", a * sum_scale)  # reject once the centered sum reaches this
        object.__setattr__(self, "_lower", b * sum_scale)  # accept once it falls to this

    @property
    def kl_rate(self) -> float:
        """Per-observation information number (theta1-theta0)^2 / (2*sigma2)."""
        return (self.theta1 - self.theta0) ** 2 / (2.0 * self.sigma2)


def sprt_step(config: SprtConfig, n: int, cum_sum: float) -> frozenset[int] | None:
    """Decision after n observations with raw cumulative sum ``cum_sum``:
    ``REJECT_H0``, ``ACCEPT_H0``, or None to continue.

    Rejection takes precedence when both boundaries are crossed at once,
    which can only happen in degenerate configurations with a <= b.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    statistic = cum_sum - n * config.drift
    if statistic >= config._upper:
        return REJECT_H0
    if statistic <= config._lower:
        return ACCEPT_H0
    return None


class TrialResult(NamedTuple):
    """A trial's outcome, for a rule or the SPRT: its stopping time and its 1-based rejected set,
    None when the horizon (or the SPRT's source) cut the trial off."""

    stopping_time: int
    rejected: frozenset[int] | None


def run_sprt(config: SprtConfig, increments: Iterable[float], horizon_cap: int) -> TrialResult:
    """Feed increments through the test until a decision or the horizon.

    ``rejected`` is None if the horizon is reached or the source is
    exhausted while the test still wants more data.
    """
    if horizon_cap < 1:
        raise ValueError(f"horizon_cap must be >= 1, got {horizon_cap}")
    n = 0
    cum_sum = 0.0
    for u in increments:
        n += 1
        cum_sum += u
        rejected = sprt_step(config, n, cum_sum)
        if rejected is not None:
            return TrialResult(n, rejected)
        if n >= horizon_cap:
            break
    return TrialResult(n, None)


def asn_wald(config: SprtConfig, under: Literal["h0", "h1"]) -> float:
    """Classical ASN approximation under the null or the alternative.

    Under the null:  [(1-gamma)*b + gamma*a] / (-L),
    under the alternative: [delta*b + (1-delta)*a] / L,
    with a, b the log-boundaries and L the per-observation information
    number.  No overshoot correction is applied.

    delta = 0 is undefined under the null (b = -inf); the alternative-side
    value degenerates continuously to |log gamma| / L and is returned.
    """
    if under not in ("h0", "h1"):
        raise ValueError(f"under must be 'h0' or 'h1', got {under!r}")
    L = config.kl_rate
    a, b = config.a, config.b
    if config.delta == 0.0:
        if under == "h0":
            raise ValueError(
                "ASN under the null is undefined for the one-sided test (delta=0); "
                "use asn_asymptotic instead"
            )
        return a / L
    if under == "h0":
        return ((1.0 - config.gamma) * b + config.gamma * a) / (-L)
    return (config.delta * b + (1.0 - config.delta) * a) / L


def asn_asymptotic(config: SprtConfig) -> float:
    """Small-error ASN: 2*sigma2/(theta1-theta0)^2 * |log(min(gamma, delta))|.

    For the one-sided test (delta=0) the minimum is read as gamma.
    """
    level = config.gamma if config.delta == 0.0 else min(config.gamma, config.delta)
    return abs(math.log(level)) / config.kl_rate
