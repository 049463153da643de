"""Threshold calibration and stepping logic for the sequential rules.

Three procedures over the ordered cumulative sums (gaps are invariant to
the shared factor, so the observable sums stand in for the idiosyncratic
ones):

* gap rule -- the signal count m is known; stop when the gap between the
  m-th and (m+1)-th largest sums reaches a fixed threshold G, reject the
  top m.
* max-gap rule -- only strict bounds l < |signals| < u are known; stop
  when the largest eligible ordered-sum gap reaches a time-growing
  threshold e(n) = base + slope*n, reject the top p where p is the
  maximizing index.
* gap-intersection rule -- independent-streams baseline on the per-stream
  log-likelihood ratios, combining three stopping criteria with four
  thresholds.

Calibrations accept a ``c1_adjust`` factor (C1) that tightens the nominal
levels to alpha/C1, beta/C1, converting familywise-error control into
control of any error metric bounded by C1 times the familywise rates.

Each procedure has one spec class (``GapRuleSpec``, ``MaxGapRuleSpec``,
``GiRuleSpec``) that owns every decision particular to its kind: which
models it accepts, its calibration, its theoretical mean sample size, its
per-step stopper, its calibration printout and its default signal set.
``RULE_KINDS`` maps each kind name to its spec class.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import sub
from typing import Any, Callable, ClassVar, Sequence

from .model import ModelParams, SufficientStats, llr_star

__all__ = [
    "GI_CORRELATED_UNSUPPORTED",
    "GapRuleConfig",
    "GapRuleSpec",
    "GIRuleConfig",
    "GiRuleSpec",
    "MAXGAP_VARIANTS",
    "MaxGapRuleConfig",
    "MaxGapRuleSpec",
    "RULE_KINDS",
    "RuleSpec",
    "Stepper",
    "VARIANT_SQRT2",
    "VARIANT_UNSCALED",
    "calibrate_gap",
    "calibrate_gi",
    "calibrate_maxgap",
    "gap_rule_step",
    "gi_rule_step",
    "maxgap_rule_step",
]

# The time-varying max-gap threshold admits two published forms differing
# by a factor of sqrt(2).  The union-bound error derivation carries the
# sqrt(2) through to the threshold; the displayed closed form drops it.
# "sqrt2" is the conservative default, "unscaled" the displayed form.
VARIANT_SQRT2 = "sqrt2"
VARIANT_UNSCALED = "unscaled"
MAXGAP_VARIANTS = (VARIANT_SQRT2, VARIANT_UNSCALED)

GI_CORRELATED_UNSUPPORTED = (
    "the gap-intersection baseline is calibrated for independent streams (rho=0); "
    "pass experimental_correlated=True to run it on correlated streams anyway"
)


@dataclass(frozen=True)
class GapRuleConfig:
    """Known-m gap rule with log-scale threshold c and sum-scale threshold G."""

    m: int
    c: float
    G: float

    def __post_init__(self) -> None:
        if self.G <= 0.0:
            raise ValueError(f"G must be > 0, got {self.G}")


def _check_levels(alpha: float, beta: float, c1_adjust: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if not c1_adjust > 0.0:
        raise ValueError(f"c1_adjust must be > 0, got {c1_adjust}")
    if alpha / c1_adjust >= 1.0 or beta / c1_adjust >= 1.0:
        raise ValueError(
            f"adjusted levels alpha/C1={alpha / c1_adjust}, beta/C1={beta / c1_adjust} "
            "must be below 1"
        )


def calibrate_gap(
    m: int,
    K: int,
    alpha: float,
    beta: float,
    rho: float,
    mu: float,
    c1_adjust: float = 1.0,
) -> GapRuleConfig:
    """Threshold selection for the known-m gap rule.

    c = |log(min(alpha, beta)/C1)| + log(m*(K-m)) makes the union bound
    m*(K-m)*exp(-c) equal min(alpha, beta)/C1 exactly;
    G = (1-rho)*c/mu converts to the sum scale.
    """
    if not 1 <= m <= K - 1:
        raise ValueError(f"m must be in 1..{K - 1}, got {m}")
    _check_levels(alpha, beta, c1_adjust)
    c = abs(math.log(min(alpha / c1_adjust, beta / c1_adjust))) + math.log(m * (K - m))
    G = (1.0 - rho) / mu * c
    return GapRuleConfig(m=m, c=c, G=G)


def _top_streams(values: Sequence[float], cut: float) -> frozenset[int]:
    """The streams whose value is at least ``cut``: every stop's rejected set.

    ``gap_rule_step`` and ``maxgap_rule_step`` call it on the sums and
    ``gi_rule_step`` on the llrs, each with ``cut`` the smallest of the top
    group.  Each threshold config checks its thresholds are positive, so a
    strictly positive gap separates that group from the rest: no tie, and
    no 0.0 beside a -0.0, can straddle it, so these are exactly the top
    streams of the tie rule (value descending, ties by ascending stream).
    """
    return frozenset(i for i, v in enumerate(values, 1) if v >= cut)


def gap_rule_step(stats: SufficientStats, cfg: GapRuleConfig) -> frozenset[int] | None:
    """Stop when the m-th ordered-sum gap reaches G; reject the top m streams.

    Returns the rejected streams on a stop and None otherwise.  The bare
    sums are sorted once, descending and without a key.
    """
    n, sums = stats
    if n < 1:
        raise ValueError("rule stepping starts at n >= 1")
    m = cfg.m
    if not 1 <= m < len(sums):
        raise ValueError(f"gap index must be in 1..{len(sums) - 1}, got {m}")
    ranked = sorted(sums, reverse=True)
    cut = ranked[m - 1]
    if cut - ranked[m] >= cfg.G:
        return _top_streams(sums, cut)
    return None


@dataclass(frozen=True)
class MaxGapRuleConfig:
    """Bounded-count max-gap rule with affine threshold e(n) = base + slope*n."""

    l: int
    u: int
    base: float
    slope: float

    def __post_init__(self) -> None:
        if self.base <= 0.0:
            raise ValueError(f"base must be > 0, got {self.base}")
        if self.slope < 0.0:  # e(n) > 0 at every n, so every stop has a positive gap
            raise ValueError(f"slope must be >= 0, got {self.slope}")


def calibrate_maxgap(
    l: int,
    u: int,
    K: int,
    alpha: float,
    beta: float,
    rho: float,
    mu: float,
    c1_adjust: float = 1.0,
    variant: str = VARIANT_SQRT2,
) -> MaxGapRuleConfig:
    """Threshold selection for the max-gap rule with strict bounds l < p < u.

    inner = max(|log((alpha/C1) / (2(K-l)(K-l-1)))|,
                |log((beta/C1) / (2u(u-1)))|)
    unscaled:  e(n) = (1-rho)/mu * inner + n*mu/2
    sqrt2:     e(n) = sqrt(2) * [(1-rho)/mu * inner + n*mu/2]
    """
    if variant not in MAXGAP_VARIANTS:
        raise ValueError(f"variant must be one of {MAXGAP_VARIANTS}, got {variant!r}")
    if not 1 <= l < u <= K - 1:
        raise ValueError(f"need 1 <= l < u <= {K - 1}, got l={l}, u={u}")
    if u < l + 2:
        raise ValueError(
            f"eligible gap indices l < i < u are empty for l={l}, u={u}; need u >= l + 2"
        )
    _check_levels(alpha, beta, c1_adjust)
    inner = max(
        abs(math.log((alpha / c1_adjust) / (2.0 * (K - l) * (K - l - 1)))),
        abs(math.log((beta / c1_adjust) / (2.0 * u * (u - 1)))),
    )
    base = (1.0 - rho) / mu * inner
    slope = mu / 2.0
    if variant == VARIANT_SQRT2:
        base *= math.sqrt(2.0)
        slope *= math.sqrt(2.0)
    return MaxGapRuleConfig(l=l, u=u, base=base, slope=slope)


def maxgap_rule_step(stats: SufficientStats, cfg: MaxGapRuleConfig) -> frozenset[int] | None:
    """Stop when max_{l < i < u} gap(i) reaches e(n); reject the top p streams.

    Returns the rejected streams on a stop and None otherwise.  p is the
    maximizing gap index, smallest index on ties (the conservative choice:
    fewer rejections).  On every stop l < p < u by construction.  The bare
    sums are sorted once, descending and without a key.
    """
    n, sums = stats
    if n < 1:
        raise ValueError("rule stepping starts at n >= 1")
    l, u = cfg.l, cfg.u
    if l < 0 or u > len(sums):
        raise ValueError(f"gap indices {l + 1}..{u - 1} must be in 1..{len(sums) - 1}")
    ranked = sorted(sums, reverse=True)
    gaps = list(map(sub, ranked[l:u - 1], ranked[l + 1:u]))  # gap(i) for l < i < u
    if gaps:  # empty when u == l + 1: no eligible index, never stop
        best_gap = max(gaps)  # the first of equal maxima
        if best_gap >= cfg.base + cfg.slope * n:  # e(n)
            return _top_streams(sums, ranked[l + gaps.index(best_gap)])
    return None


@dataclass(frozen=True)
class GIRuleConfig:
    """Gap-intersection rule thresholds (all on the log-likelihood scale)."""

    l: int
    u: int
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"threshold {name} must be > 0, got {getattr(self, name)}")


def calibrate_gi(l: int, u: int, K: int, alpha: float, beta: float) -> GIRuleConfig:
    """Threshold selection for the gap-intersection baseline.

    a = |log beta| + log K        d = |log beta| + log(u*K)
    b = |log alpha| + log K       c = |log alpha| + log((K-l)*K)
    """
    if not 1 <= l < u <= K - 1:
        raise ValueError(f"need 1 <= l < u <= {K - 1}, got l={l}, u={u}")
    _check_levels(alpha, beta, 1.0)
    log_a = abs(math.log(alpha))
    log_b = abs(math.log(beta))
    return GIRuleConfig(
        l=l,
        u=u,
        a=log_b + math.log(K),
        b=log_a + math.log(K),
        c=log_a + math.log((K - l) * K),
        d=log_b + math.log(u * K),
    )


def gi_rule_step(llrs: list[float], cfg: GIRuleConfig) -> frozenset[int] | None:
    """One step of the gap-intersection rule on per-stream log-likelihood ratios.

    With ordered statistics lam(1) >= ... >= lam(K) and p = #{positive llrs}:

    * undershoot criterion: lam(l+1) <= -a and lam(l) - lam(l+1) >= c
    * intersection criterion: l <= p <= u and no llr inside (-a, b)
    * overshoot criterion: lam(u) >= b and lam(u) - lam(u+1) >= d

    The top p llrs are the positive ones, so with a, b > 0 the intersection
    criterion reads lam(p) >= b and lam(p+1) <= -a.  On stop the top p'
    streams are returned as the rejected set, p' = p clamped into [l, u];
    otherwise None.

    The llrs are sorted once, ascending and without a key, so lam(j) is
    ``ascending[K - j]`` and p is K minus the count of llrs <= 0.0.  Equal
    llrs can only differ in the sign of a zero, which no comparison
    against the positive thresholds can tell apart.
    """
    K = len(llrs)
    l, u = cfg.l, cfg.u
    if u + 1 > K:
        raise ValueError(f"rule needs at least {u + 1} streams, got {K}")
    ascending = sorted(llrs)
    p = K - bisect_right(ascending, 0.0)

    tau1 = ascending[K - l - 1] <= -cfg.a and ascending[K - l] - ascending[K - l - 1] >= cfg.c
    tau2 = l <= p <= u and ascending[K - p] >= cfg.b and ascending[K - p - 1] <= -cfg.a
    tau3 = ascending[K - u] >= cfg.b and ascending[K - u] - ascending[K - u - 1] >= cfg.d

    if not (tau1 or tau2 or tau3):
        return None
    return _top_streams(llrs, ascending[K - min(max(p, l), u)])


# A stepper is a (function, argument) pair: the trial loop calls
# ``function(stats, argument)`` once per step, with ``stats`` the
# ``(n, sums)`` tuple, and the call returns the rejected set on a stop and
# None otherwise.  ``stepper`` reads the function by module-global name
# when it builds the pair, and ``_gi_step`` reads ``llr_star`` and
# ``gi_rule_step`` by name at call time, so a profiler that rebinds those
# names before the pair is built sees every call.
Stepper = tuple[Callable[[SufficientStats, Any], frozenset[int] | None], Any]


def _gi_step(
    stats: SufficientStats, arg: tuple[GIRuleConfig, ModelParams, range]
) -> frozenset[int] | None:
    """One GI step from the sums: the K ``llr_star`` calls, then ``gi_rule_step``."""
    cfg, params, streams = arg
    # a comprehension, not map: CPython 3.11 runs a call from Python code in
    # the caller's interpreter loop but enters a new loop for each call map
    # makes (about 20% slower here at K=10)
    return gi_rule_step([llr_star(stats, i, params) for i in streams], cfg)


def _check_count_bounds(l: int, u: int, params: ModelParams) -> None:
    n_signals = len(params.signal_set)
    if not l < n_signals < u:
        raise ValueError(
            f"rule assumes l < |signals| < u, got |signals|={n_signals} with l={l}, u={u}"
        )


@dataclass(frozen=True)
class GapRuleSpec:
    """Known signal count m."""

    kind: ClassVar[str] = "gap"
    m: int
    c1_adjust: float = 1.0

    def check(self, params: ModelParams) -> None:
        """Reject a model the rule's assumptions do not cover."""
        n_signals = len(params.signal_set)
        if n_signals != self.m:
            raise ValueError(
                f"gap rule assumes exactly m={self.m} signals, signal_set has {n_signals}"
            )

    def default_signal_set(self, K: int) -> frozenset[int] | None:
        """Signal set used when a config names none (None: one is required)."""
        # canonical choice; exchangeability makes the labels immaterial; an m > K fails ``check``
        return frozenset(range(1, min(self.m, K) + 1))

    def calibrate(self, params: ModelParams, alpha: float, beta: float) -> GapRuleConfig:
        return calibrate_gap(self.m, params.K, alpha, beta, params.rho, params.mu, self.c1_adjust)

    def asymptote(self, params: ModelParams, log_level: float) -> float:
        """(1-rho)/mu^2 * |log(min(alpha, beta))|"""
        return (1.0 - params.rho) / params.mu**2 * log_level

    def stepper(self, cfg: GapRuleConfig, params: ModelParams) -> Stepper:
        return gap_rule_step, cfg

    def calibration_lines(self, params: ModelParams, alpha: float, beta: float) -> list[str]:
        cfg = self.calibrate(params, alpha, beta)
        return [f"c = {cfg.c!r}", f"G = {cfg.G!r}"]


@dataclass(frozen=True)
class MaxGapRuleSpec:
    """Strict signal-count bounds l < count < u."""

    kind: ClassVar[str] = "maxgap"
    l: int
    u: int
    variant: str = VARIANT_SQRT2
    c1_adjust: float = 1.0

    def check(self, params: ModelParams) -> None:
        """Reject a model the rule's assumptions do not cover."""
        _check_count_bounds(self.l, self.u, params)

    def default_signal_set(self, K: int) -> frozenset[int] | None:
        """Signal set used when a config names none (None: one is required)."""
        return None

    def calibrate(self, params: ModelParams, alpha: float, beta: float) -> MaxGapRuleConfig:
        return calibrate_maxgap(
            self.l, self.u, params.K, alpha, beta, params.rho, params.mu,
            self.c1_adjust, self.variant,
        )

    def asymptote(self, params: ModelParams, log_level: float) -> float:
        """2*(1-rho)/mu^2 * |log(min(alpha, beta))|"""
        return 2.0 * (1.0 - params.rho) / params.mu**2 * log_level

    def stepper(self, cfg: MaxGapRuleConfig, params: ModelParams) -> Stepper:
        return maxgap_rule_step, cfg

    def calibration_lines(self, params: ModelParams, alpha: float, beta: float) -> list[str]:
        # show both threshold variants so their scale difference is visible
        lines = []
        for variant in MAXGAP_VARIANTS:
            cfg = replace(self, variant=variant).calibrate(params, alpha, beta)
            lines.append(f"variant {variant}: e(n) = {cfg.base!r} + n * {cfg.slope!r}")
        return lines


@dataclass(frozen=True)
class GiRuleSpec:
    """Gap-intersection baseline; calibrated for independent streams only."""

    kind: ClassVar[str] = "gi"
    l: int
    u: int
    experimental_correlated: bool = False

    def check(self, params: ModelParams) -> None:
        """Reject a model the rule's assumptions do not cover."""
        _check_count_bounds(self.l, self.u, params)
        if params.rho > 0.0 and not self.experimental_correlated:
            raise ValueError(GI_CORRELATED_UNSUPPORTED)

    def default_signal_set(self, K: int) -> frozenset[int] | None:
        """Signal set used when a config names none (None: one is required)."""
        return None

    def calibrate(self, params: ModelParams, alpha: float, beta: float) -> GIRuleConfig:
        return calibrate_gi(self.l, self.u, params.K, alpha, beta)

    def asymptote(self, params: ModelParams, log_level: float) -> float:
        """|log(min(alpha, beta))| / (eta0 + eta1), the independent baseline"""
        eta = params.mu**2 / 2.0  # eta0 = eta1: every stream's information number is mu^2/2
        return log_level / (eta + eta)

    def stepper(self, cfg: GIRuleConfig, params: ModelParams) -> Stepper:
        return _gi_step, (cfg, params, range(1, params.K + 1))

    def calibration_lines(self, params: ModelParams, alpha: float, beta: float) -> list[str]:
        cfg = self.calibrate(params, alpha, beta)
        return [f"{name} = {getattr(cfg, name)!r}" for name in ("a", "b", "c", "d")]


RuleSpec = GapRuleSpec | MaxGapRuleSpec | GiRuleSpec

RULE_KINDS: dict[str, type[RuleSpec]] = {
    cls.kind: cls for cls in (GapRuleSpec, MaxGapRuleSpec, GiRuleSpec)
}
