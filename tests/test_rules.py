import math

import pytest

from reference import threshold_at
from seqgap.config import ExperimentSpec
from seqgap.model import ModelParams
from seqgap.rules import (
    GapRuleConfig,
    GIRuleConfig,
    GiRuleSpec,
    MaxGapRuleConfig,
    MaxGapRuleSpec,
    VARIANT_SQRT2,
    VARIANT_UNSCALED,
    calibrate_gap,
    calibrate_gi,
    calibrate_maxgap,
    gap_rule_step,
    gi_rule_step,
    maxgap_rule_step,
)


def stats(*sums, n=1):
    return n, tuple(float(s) for s in sums)


# ---------------------------------------------------------------- gap rule


def test_calibrate_gap_frozen_values():
    """c = |log 0.01| + log 4 and G = 0.5 c, hand evaluated."""
    cfg = calibrate_gap(2, 4, 0.01, 0.01, 0.5, 1.0)
    assert cfg.c == pytest.approx(5.991465, abs=1e-6)
    assert cfg.G == pytest.approx(2.995732, abs=1e-6)
    # the log-level identity the threshold was solved from
    assert 2 * (4 - 2) * math.exp(-cfg.c) == pytest.approx(0.01, rel=1e-9)


def test_calibrate_gap_degenerate_log_term():
    # m(K-m) = 1 contributes nothing; alpha = e^-1 gives c = 1
    cfg = calibrate_gap(1, 2, math.exp(-1), math.exp(-1), 0.0, 1.0)
    assert cfg.c == pytest.approx(1.0, rel=1e-12)


def test_calibrate_gap_uses_smaller_level():
    a = calibrate_gap(1, 3, 0.01, 0.20, 0.0, 1.0)
    b = calibrate_gap(1, 3, 0.01, 0.01, 0.0, 1.0)
    assert a.c == b.c


def test_calibrate_gap_monotone_in_alpha_and_pairs():
    cs = [calibrate_gap(1, 3, a, 0.5, 0.0, 1.0).c for a in (0.1, 0.01, 0.001)]
    assert cs[0] < cs[1] < cs[2]
    assert calibrate_gap(1, 4, 0.01, 0.01, 0.0, 1.0).c < calibrate_gap(2, 4, 0.01, 0.01, 0.0, 1.0).c


def test_gap_scale_conversion_is_exact():
    cfg = calibrate_gap(2, 6, 0.03, 0.02, 0.25, 1.7)
    assert cfg.G == (1.0 - 0.25) / 1.7 * cfg.c


def test_c1_adjustment():
    """C1 scales the levels before the log; C1=1 is a bitwise no-op."""
    plain = calibrate_gap(2, 4, 0.01, 0.01, 0.5, 1.0)
    adjusted = calibrate_gap(2, 4, 0.01, 0.01, 0.5, 1.0, c1_adjust=1.0)
    assert (plain.c, plain.G) == (adjusted.c, adjusted.G)
    pfer_style = calibrate_gap(1, 5, 0.05, 0.05, 0.0, 1.0, c1_adjust=5.0)
    assert pfer_style.c == pytest.approx(5.991465, abs=1e-6)  # |log 0.01| + log 4


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(m=0), "m must be in"),
        (dict(m=4), "m must be in"),
        (dict(alpha=0.0), "alpha"),
        (dict(beta=1.0), "beta"),
        (dict(c1_adjust=0.0), "c1_adjust"),
        (dict(alpha=0.5, c1_adjust=0.4), "adjusted levels"),
    ],
)
def test_calibrate_gap_rejects(kwargs, fragment):
    base = dict(m=2, K=4, alpha=0.01, beta=0.01, rho=0.5, mu=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError, match=fragment):
        calibrate_gap(**base)


def test_gap_step_threshold_comparison():
    cfg_g3 = GapRuleConfig(m=1, c=3.0, G=3.0)
    assert gap_rule_step(stats(5.0, 1.9, 1.0), cfg_g3) == frozenset({1})
    assert gap_rule_step(stats(5.0, 2.1, 1.0), cfg_g3) is None
    with pytest.raises(ValueError, match="n >= 1"):
        gap_rule_step((0, (0.0, 0.0, 0.0)), cfg_g3)


def test_gap_step_ties():
    small = GapRuleConfig(m=2, c=1.0, G=1.0)
    # tie inside the rejected block: both tied streams go in
    assert gap_rule_step(stats(5.0, 5.0, 1.0, 0.0), small) == frozenset({1, 2})
    # tie across the m-th boundary zeroes the gap, so no stop is possible
    assert gap_rule_step(stats(5.0, 5.0, 5.0, 0.0), small) is None


def test_gap_step_shift_invariant():
    cfg = calibrate_gap(1, 3, 0.1, 0.1, 0.0, 1.0)
    base = (5.0, 1.9, 1.0)
    shifted = tuple(x + 7.0 for x in base)
    assert gap_rule_step(stats(*base), cfg) == gap_rule_step(stats(*shifted), cfg)


# ------------------------------------------------------------- max-gap rule


def test_calibrate_maxgap_frozen_values():
    """inner = max(log 2400, log 1200); thresholds at n=10 hand evaluated."""
    unscaled = calibrate_maxgap(1, 3, 5, 0.01, 0.01, 0.5, 1.0, variant=VARIANT_UNSCALED)
    assert unscaled.base == pytest.approx(3.891612, abs=1e-6)
    assert unscaled.slope == 0.5
    assert threshold_at(unscaled, 10) == pytest.approx(8.891612, abs=1e-6)
    scaled = calibrate_maxgap(1, 3, 5, 0.01, 0.01, 0.5, 1.0, variant=VARIANT_SQRT2)
    assert threshold_at(scaled, 10) == pytest.approx(12.574638293310684, rel=1e-12)


def test_sqrt2_variant_is_sqrt2_times_unscaled():
    for n in (1, 7, 100):
        unscaled = calibrate_maxgap(2, 4, 6, 0.02, 0.05, 0.3, 1.5, variant=VARIANT_UNSCALED)
        scaled = calibrate_maxgap(2, 4, 6, 0.02, 0.05, 0.3, 1.5, variant=VARIANT_SQRT2)
        assert threshold_at(scaled, n) == pytest.approx(
            math.sqrt(2.0) * threshold_at(unscaled, n), rel=1e-12
        )


def test_maxgap_threshold_increasing_in_n():
    cfg = calibrate_maxgap(1, 3, 5, 0.01, 0.01, 0.5, 1.0)
    assert threshold_at(cfg, 1) < threshold_at(cfg, 2) < threshold_at(cfg, 10)
    assert threshold_at(cfg, 2) - threshold_at(cfg, 1) == pytest.approx(cfg.slope, rel=1e-12)


def test_maxgap_degenerate_max_when_terms_coincide():
    # alpha = beta and (K-l)(K-l-1) = u(u-1): both log terms equal
    cfg = calibrate_maxgap(2, 4, 6, 0.01, 0.01, 0.0, 1.0, variant=VARIANT_UNSCALED)
    inner = abs(math.log(0.01 / (2 * 4 * 3)))
    assert cfg.base == pytest.approx(inner, rel=1e-12)


@pytest.mark.parametrize(
    "l, u, K, fragment",
    [
        (0, 2, 5, "need 1 <= l < u"),
        (2, 2, 5, "need 1 <= l < u"),
        (1, 5, 5, "need 1 <= l < u"),
        (1, 2, 5, "u >= l [+] 2"),
    ],
)
def test_calibrate_maxgap_rejects_bad_bounds(l, u, K, fragment):
    with pytest.raises(ValueError, match=fragment):
        calibrate_maxgap(l, u, K, 0.01, 0.01, 0.0, 1.0)


def test_calibrate_maxgap_rejects_an_unknown_variant():
    with pytest.raises(ValueError, match=r"^variant must be one of \('sqrt2', 'unscaled'\), got 'bogus'$"):
        calibrate_maxgap(1, 3, 5, 0.01, 0.01, 0.0, 1.0, variant="bogus")
    # a spec calibrates its rule when it is built
    with pytest.raises(ValueError, match="got 'bogus'"):
        ExperimentSpec(
            params=ModelParams(K=5, rho=0.5, mu=1.0, signal_set=frozenset({1, 2})),
            rule=MaxGapRuleSpec(l=1, u=3, variant="bogus"),
            alpha=0.01, beta=0.01, replications=10, master_seed=0,
        )


def _maxgap_cfg(l, u, base, slope=0.0):
    return MaxGapRuleConfig(l=l, u=u, base=base, slope=slope)


@pytest.mark.parametrize("base, slope, fragment", [(0.0, 0.5, "base must be > 0"), (1.0, -0.5, "slope must be >= 0")])
def test_maxgap_config_keeps_the_threshold_positive(base, slope, fragment):
    # every stop then has a positive gap, which the rejected set is read from
    with pytest.raises(ValueError, match=fragment):
        _maxgap_cfg(1, 3, base=base, slope=slope)


def test_maxgap_step_single_eligible_index():
    cfg = _maxgap_cfg(1, 3, base=4.0)
    rejected = maxgap_rule_step(stats(9.0, 7.0, 2.0, 1.0, 0.0), cfg)
    assert rejected == frozenset({1, 2})  # gap at i=2 is 5
    assert maxgap_rule_step(stats(9.0, 7.0, 2.0, 1.0, 0.0), _maxgap_cfg(1, 3, base=6.0)) is None


def test_maxgap_step_tie_takes_smallest_index():
    # gaps at i=2 and i=3 both equal 3; p=2 rejects two streams, not three
    cfg = _maxgap_cfg(1, 4, base=3.0)
    rejected = maxgap_rule_step(stats(10.0, 7.0, 4.0, 1.0, 0.0), cfg)
    assert rejected == frozenset({1, 2})


def test_maxgap_step_rejection_count_strictly_inside_bounds():
    cfg = _maxgap_cfg(1, 4, base=0.5)
    rejected = maxgap_rule_step(stats(5.0, 4.0, 3.0, 2.0, 1.0), cfg)
    assert rejected is not None
    assert cfg.l < len(rejected) < cfg.u


def test_maxgap_step_shift_invariant():
    cfg = _maxgap_cfg(1, 3, base=4.0)
    base = (9.0, 7.0, 2.0, 1.0, 0.0)
    shifted = tuple(x - 11.0 for x in base)
    assert maxgap_rule_step(stats(*base), cfg) == maxgap_rule_step(stats(*shifted), cfg)


# ------------------------------------------------------ gap-intersection rule


def test_calibrate_gi_frozen_values():
    """a = |log 0.01| + log 5 etc., hand evaluated."""
    cfg = calibrate_gi(1, 3, 5, 0.01, 0.01)
    assert cfg.a == pytest.approx(6.214608, abs=1e-6)
    assert cfg.b == pytest.approx(6.214608, abs=1e-6)
    assert cfg.c == pytest.approx(7.600902, abs=1e-6)
    assert cfg.d == pytest.approx(7.313220, abs=1e-6)


def test_gi_a_equals_b_when_levels_match():
    cfg = calibrate_gi(1, 3, 6, 0.02, 0.02)
    assert cfg.a == cfg.b
    asym = calibrate_gi(1, 3, 6, 0.02, 0.05)
    assert asym.a != asym.b


def test_calibrate_gi_rejects_degenerate_ranges():
    with pytest.raises(ValueError, match="need 1 <= l < u"):
        calibrate_gi(0, 1, 2, 0.01, 0.01)
    with pytest.raises(ValueError, match="alpha"):
        calibrate_gi(1, 2, 4, 1.5, 0.01)


def _gi_cfg(l=1, u=2):
    return GIRuleConfig(l=l, u=u, a=6.2, b=6.2, c=7.6, d=7.3)


def test_gi_step_intersection_criterion():
    # p = 1 within [1, 2] and every llr clear of (-6.2, 6.2)
    rejected = gi_rule_step([-7.0, -6.5, 8.0], _gi_cfg())
    assert rejected == frozenset({3})


def test_gi_step_continues_when_an_llr_is_undecided():
    assert gi_rule_step([-7.0, 3.0, 8.0], _gi_cfg()) is None


def test_gi_step_undershoot_criterion():
    # second-ranked llr deeply negative with a wide gap above it
    rejected = gi_rule_step([-20.0, -20.0, 20.0], _gi_cfg())
    assert rejected == frozenset({3})


def test_gi_step_overshoot_criterion_clamps_to_u():
    # three strongly positive llrs but u = 2: reject the top two only
    rejected = gi_rule_step([30.0, 20.0, 9.0, -30.0], _gi_cfg(1, 2))
    assert rejected == frozenset({1, 2})


def test_gi_step_needs_enough_streams():
    with pytest.raises(ValueError, match="streams"):
        gi_rule_step([1.0, -1.0], _gi_cfg(1, 2))


def test_gi_rejection_count_within_bounds():
    cfg = _gi_cfg(1, 2)
    for llrs in ([-7.0, -6.5, 8.0], [-20.0, -20.0, 20.0], [30.0, 20.0, 9.0, -30.0]):
        rejected = gi_rule_step(llrs, cfg)
        if rejected is not None:
            assert cfg.l <= len(rejected) <= cfg.u


# -------------------------------------------------------------- asymptotes


@pytest.mark.parametrize("mu, want", [(1.0, 2.0), (2.0, 0.5), (0.7, 2.0 / (0.7**2 / 2.0 + 0.7**2 / 2.0))],
                         ids=["mu=1", "mu=2", "mu=0.7"])
def test_gi_asymptote_adds_two_equal_information_numbers(mu, want):
    """|log level| / (eta0 + eta1), with eta0 = eta1 = mu^2/2 for every stream."""
    p = ModelParams(K=3, rho=0.0, mu=mu, signal_set=frozenset({1}))
    assert repr(GiRuleSpec(l=1, u=2).asymptote(p, 2.0)) == repr(want)
