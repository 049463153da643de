import math
import pickle
from dataclasses import fields, replace
from itertools import accumulate

import pytest
from hypothesis import example, given, strategies as st

from reference import walk_exact, walk_law
import seqgap.montecarlo as montecarlo
from seqgap.montecarlo import sprt_error_mc
from seqgap.rules import calibrate_gap
from seqgap.sprt import (
    ACCEPT_H0,
    REJECT_H0,
    SprtConfig,
    TrialResult,
    asn_asymptotic,
    asn_wald,
    run_sprt,
    sprt_step,
)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(theta0=1.0, theta1=1.0), "theta0 < theta1"),
        (dict(sigma2=0.0), "sigma2"),
        (dict(gamma=0.0), "gamma"),
        (dict(gamma=1.0), "gamma"),
        (dict(delta=-0.1), "delta"),
        (dict(delta=1.0), "delta"),
        (dict(gamma=0.6, delta=0.5), "gamma [+] delta"),
        (dict(theta0=-math.inf), "theta0 must be finite"),
        (dict(theta1=math.inf), "theta1 must be finite"),
        (dict(theta1=math.nan), "theta1 must be finite"),
        (dict(sigma2=math.inf), "sigma2 must be finite"),
        (dict(theta1=1e-200), "information number .* is not a finite positive number"),  # squares to 0
        (dict(sigma2=1e-320), "information number .* is not a finite positive number"),  # 1/sigma2 overflows
        (dict(theta0=-1e200, theta1=1e200), "information number"),  # the square overflows
        (dict(theta1=1e-160), "asymptotic mean sample size is not finite"),  # subnormal information
        (dict(gamma=1e-320, delta=0.0), "boundary a .* is not finite"),  # 1/gamma overflows
    ],
)
def test_config_validation(kwargs, fragment):
    base = dict(theta0=0.0, theta1=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError, match=fragment):
        SprtConfig(**base)


def test_kl_rate():
    assert SprtConfig(0.0, 1.0, sigma2=1.0).kl_rate == 0.5
    assert SprtConfig(-1.0, 1.0, sigma2=2.0).kl_rate == 1.0


def test_boundaries_frozen_values():
    # log(0.99/0.01) and log(0.01/0.99), hand evaluated
    cfg = SprtConfig(0.0, 1.0, 1.0, gamma=0.01, delta=0.01)
    assert cfg.a == pytest.approx(4.59511985013459, rel=1e-12)
    assert cfg.b == pytest.approx(-4.59511985013459, rel=1e-12)
    assert cfg.sum_scale == 1.0
    assert cfg.drift == 0.5


def test_one_sided_never_accepts():
    cfg = SprtConfig(0.0, 1.0, 1.0, gamma=0.001, delta=0.0)
    assert cfg.a == pytest.approx(6.907755278982137, rel=1e-12)  # log 1000
    assert cfg.b == -math.inf
    assert sprt_step(cfg, 100, -1e9) is None


def assert_result(result, stopping_time, rejected):
    """``result`` is a TrialResult with these fields; ``rejected`` is compared by identity."""
    assert type(result) is TrialResult
    assert result.stopping_time == stopping_time
    assert result.rejected is rejected


@pytest.mark.parametrize("delta", [0.01, 0.0])
def test_step_decides_at_exact_equality_with_each_threshold(delta):
    cfg = SprtConfig(-1.0, 1.0, 3.0, gamma=0.01, delta=delta)  # zero drift: the statistic is the sum
    upper = cfg.a * cfg.sum_scale
    assert sprt_step(cfg, 5, upper) is REJECT_H0
    assert sprt_step(cfg, 5, math.nextafter(upper, 0.0)) is None
    lower = cfg.b * cfg.sum_scale
    if delta == 0.0:
        assert lower == -math.inf
        assert sprt_step(cfg, 5, -1e300) is None
    else:
        assert sprt_step(cfg, 5, lower) is ACCEPT_H0
        assert sprt_step(cfg, 5, math.nextafter(lower, 0.0)) is None
    # run_sprt steps with the same thresholds
    assert_result(run_sprt(cfg, [upper], horizon_cap=5), 1, REJECT_H0)
    assert_result(run_sprt(cfg, [math.nextafter(upper, 0.0)], horizon_cap=5), 1, None)


def test_a_run_and_a_rule_trial_share_one_outcome_type():
    assert montecarlo.TrialResult is TrialResult
    assert TrialResult._fields == ("stopping_time", "rejected")


def _rebuilt_config(how, want):
    """``want`` rebuilt by ``dataclasses.replace`` from other fields, or by a pickle round trip."""
    if how == "replaced":
        c = replace(SprtConfig(0.0, 2.0, 4.0, gamma=0.2, delta=0.0), theta0=want.theta0,
                    theta1=want.theta1, sigma2=want.sigma2, gamma=want.gamma, delta=want.delta)
    else:
        c = pickle.loads(pickle.dumps(want))
    assert c == want and hash(c) == hash(want) and repr(c) == repr(want)
    return c


@pytest.mark.parametrize("how", ["replaced", "pickled"])
def test_sprt_boundaries_follow_the_fields(how):
    """The derived boundaries and thresholds follow the fields, and belong to one config each."""
    assert [f.name for f in fields(SprtConfig)] == ["theta0", "theta1", "sigma2", "gamma", "delta"]
    want = SprtConfig(-0.5, 1.5, 2.0, gamma=0.01, delta=0.03)
    c = _rebuilt_config(how, want)
    other = SprtConfig(0.0, 1.0, 1.0, gamma=0.05, delta=0.0)  # built later
    for q in (c, other):
        assert q.a == math.log((1.0 - q.delta) / q.gamma)
        assert q.sum_scale == q.sigma2 / (q.theta1 - q.theta0)
        assert q.drift == (q.theta1 + q.theta0) / 2.0
        assert repr(q._upper) == repr(q.a * q.sum_scale)
        assert repr(q._lower) == repr(q.b * q.sum_scale)
    assert c.b == math.log(0.03 / 0.99) and other.b == -math.inf


def test_step_decision_regions():
    # a rejection rejects the one stream, an acceptance rejects none
    assert REJECT_H0 == frozenset({1}) and ACCEPT_H0 == frozenset()
    cfg = SprtConfig(0.0, 1.0, 1.0, gamma=0.01, delta=0.01)
    n = 4
    centered_reject = cfg.a * cfg.sum_scale + n * cfg.drift
    centered_accept = cfg.b * cfg.sum_scale + n * cfg.drift
    assert sprt_step(cfg, n, centered_reject) is REJECT_H0
    assert sprt_step(cfg, n, centered_accept) is ACCEPT_H0
    assert sprt_step(cfg, n, n * cfg.drift) is None
    with pytest.raises(ValueError, match="n must be >= 1"):
        sprt_step(cfg, 0, 0.0)


def test_run_sprt_stops_at_first_crossing():
    cfg = SprtConfig(0.0, 1.0, 1.0, gamma=0.05, delta=0.05)
    assert_result(run_sprt(cfg, [10.0, 10.0], horizon_cap=10), 1, REJECT_H0)
    assert_result(run_sprt(cfg, [-10.0], horizon_cap=10), 1, ACCEPT_H0)
    assert_result(run_sprt(cfg, [0.5, 0.5, -10.0, 10.0], horizon_cap=10), 3, ACCEPT_H0)


def test_run_sprt_truncates():
    cfg = SprtConfig(0.0, 1.0, 1.0, gamma=0.05, delta=0.05)
    drift = [0.5] * 5  # statistic stays at 0 forever
    source = iter(drift)
    assert_result(run_sprt(cfg, source, horizon_cap=3), 3, None)
    assert list(source) == [0.5, 0.5]  # a truncated run consumes exactly its horizon
    assert_result(run_sprt(cfg, drift, horizon_cap=50), 5, None)  # source exhausted
    assert_result(run_sprt(cfg, [], horizon_cap=50), 0, None)
    with pytest.raises(ValueError, match="horizon_cap"):
        run_sprt(cfg, drift, horizon_cap=0)


PROPERTY_CONFIGS = [
    SprtConfig(0.0, 1.0, 1.0, gamma=0.01, delta=0.01),
    SprtConfig(0.5, 2.0, 1.7, gamma=0.05, delta=0.02),
    SprtConfig(-1.0, 1.0, 3.0, gamma=0.01, delta=0.0),  # zero drift
    SprtConfig(0.0, 1.0, 1.0, gamma=0.001, delta=0.0),
]


def reference_run(cfg, increments, horizon):
    """The first n with S_n - n*drift >= upper (reject) or <= lower (accept), else a truncation."""
    for n, s in enumerate(accumulate(increments), start=1):
        if n > horizon:
            break
        if s - n * cfg.drift >= cfg._upper:
            return n, REJECT_H0
        if s - n * cfg.drift <= cfg._lower:
            return n, ACCEPT_H0
    return min(horizon, len(increments)), None


@st.composite
def sprt_paths(draw):
    """A config, a horizon, and increments of which some land on a threshold.

    A landing increment takes the statistic from the sum so far to the
    threshold; when the steps before it are multiples of 1/32 it is exact
    for most draws.
    """
    cfg = draw(st.sampled_from(PROPERTY_CONFIGS))
    targets = [cfg._upper] if cfg.delta == 0.0 else [cfg._upper, cfg._lower]
    parts = draw(st.lists(st.one_of(
        st.integers(-96, 96).map(lambda i: i / 32),
        st.floats(-5.0, 5.0),
        st.tuples(st.sampled_from(targets)),  # a landing increment, resolved below
    ), max_size=30))
    increments, cum_sum = [], 0.0
    for part in parts:
        if isinstance(part, tuple):
            part = part[0] + (len(increments) + 1) * cfg.drift - cum_sum
        increments.append(part)
        cum_sum += part
    return cfg, increments, draw(st.integers(1, 40))


@given(sprt_paths())
@example((SprtConfig(-1.0, 1.0, 3.0, gamma=0.01, delta=0.01), [0.25, -0.25, 1.5 * math.log(0.99 / 0.01)], 5))
@example((SprtConfig(-1.0, 1.0, 3.0, gamma=0.01, delta=0.01), [1.5 * math.log(0.01 / 0.99)], 5))
def test_run_sprt_matches_the_closed_form_reference(path):
    cfg, increments, horizon = path
    n, rejected = reference_run(cfg, increments, horizon)
    assert_result(run_sprt(cfg, iter(increments), horizon), n, rejected)


def test_asn_wald_frozen_values():
    """Hand evaluations of the two-boundary mean-sample-number formulas."""
    sym = SprtConfig(0.0, 1.0, 1.0, gamma=0.01, delta=0.01)
    assert asn_wald(sym, "h0") == pytest.approx(9.006434906263797, abs=1e-6)
    assert asn_wald(sym, "h1") == pytest.approx(9.006434906263797, abs=1e-6)
    asym = SprtConfig(0.0, 1.0, 1.0, gamma=0.01, delta=0.05)
    assert asn_wald(asym, "h0") == pytest.approx(5.820572698814957, abs=1e-6)
    assert asn_wald(asym, "h1") == pytest.approx(8.353797900270978, abs=1e-6)


def test_asn_wald_one_sided():
    one = SprtConfig(0.0, 1.0, 1.0, gamma=0.001, delta=0.0)
    with pytest.raises(ValueError, match="asn_asymptotic"):
        asn_wald(one, "h0")
    # degenerates to |log gamma| / L
    assert asn_wald(one, "h1") == pytest.approx(13.815510557964274, rel=1e-12)
    with pytest.raises(ValueError, match="under"):
        asn_wald(one, "h2")


def test_asn_asymptotic_frozen_values():
    assert asn_asymptotic(SprtConfig(0.0, 1.0, 1.0, 0.01, 0.01)) == pytest.approx(
        9.210340371976182, rel=1e-12
    )
    assert asn_asymptotic(SprtConfig(-1.0, 1.0, 1.0, 0.001, 0.001)) == pytest.approx(
        3.4538776394910684, rel=1e-12
    )
    assert asn_asymptotic(SprtConfig(0.0, 1.0, 1.0, 0.001, 0.0)) == pytest.approx(
        13.815510557964274, rel=1e-12
    )
    # min(gamma, delta) drives the level
    assert asn_asymptotic(SprtConfig(0.0, 1.0, 1.0, 0.05, 0.001)) == asn_asymptotic(
        SprtConfig(0.0, 1.0, 1.0, 0.001, 0.05)
    )


def test_asn_scale_invariance():
    """Doubling the mean gap and quadrupling the variance keeps L fixed."""
    a = SprtConfig(0.0, 1.0, 1.0, 0.01, 0.01)
    b = SprtConfig(0.0, 2.0, 4.0, 0.01, 0.01)
    assert asn_wald(a, "h0") == asn_wald(b, "h0")
    assert asn_wald(a, "h1") == asn_wald(b, "h1")
    assert asn_asymptotic(a) == asn_asymptotic(b)


def test_wald_approaches_asymptote_at_small_levels():
    for level, band in [(1e-2, 0.25), (1e-4, 0.07), (1e-8, 0.05)]:
        cfg = SprtConfig(0.0, 1.0, 1.0, gamma=level, delta=level)
        ratio = asn_wald(cfg, "h1") / asn_asymptotic(cfg)
        assert abs(ratio - 1.0) < band


SYMMETRIC = SprtConfig(0.0, 1.0, 1.0, gamma=0.01, delta=0.01)
K2_GAP_G = calibrate_gap(1, 2, 0.01, 0.01, 0.5, 1.0).G  # m = 1 of K = 2 at rho 0.5, mu 1
# (lo, hi, drift, sd) of the SPRT's log-likelihood ratio under h1 (one N(1, 1) observation
# adds x - 1/2) and of the K = 2 gap rule's pair difference S_1 - S_2 (variance 2(1 - rho))
WALKS = {"sprt": (SYMMETRIC.b, SYMMETRIC.a, 0.5, 1.0), "gap-k2": (-K2_GAP_G, K2_GAP_G, 1.0, 1.0)}


@pytest.mark.parametrize("walk", sorted(WALKS))
def test_walk_exact_converges_in_the_nodes(walk):
    assert walk_exact(*WALKS[walk], nodes=50) == pytest.approx(walk_exact(*WALKS[walk], nodes=400), abs=1e-9)


@pytest.mark.parametrize("walk", sorted(WALKS))
def test_walk_law_sums_to_walk_exact(walk):
    law = walk_law(*WALKS[walk], nmax=300)
    mean_T, p_lower = walk_exact(*WALKS[walk])
    assert sum(lower + upper for lower, upper in law) == pytest.approx(1.0, abs=1e-12)
    assert sum(n * (lower + upper) for n, (lower, upper) in enumerate(law, 1)) == pytest.approx(mean_T, abs=1e-10)
    assert sum(lower for lower, _ in law) == pytest.approx(p_lower, abs=1e-10)


def test_walk_exact_sprt_values():
    mean_T, p_accept = walk_exact(*WALKS["sprt"])
    assert mean_T == pytest.approx(10.509286, abs=1e-6)
    assert p_accept == pytest.approx(0.0056285, abs=1e-7)
    assert mean_T > asn_wald(SYMMETRIC, "h1") + 1.0  # Wald's formula drops the overshoot
    lo, hi, drift, sd = WALKS["sprt"]
    mean_T_h0, p_accept_h0 = walk_exact(lo, hi, -drift, sd)  # the mirror walk under h0
    assert mean_T_h0 == pytest.approx(mean_T, abs=1e-9)
    assert 1.0 - p_accept_h0 == pytest.approx(p_accept, abs=1e-9)


def test_walk_exact_exceeds_wald_by_a_constant_overshoot():
    """As the boundaries grow, E[T] minus Wald's approximation, which drops the overshoot of
    the upper boundary, falls to a constant: the mean overshoot over the drift."""
    excess = []
    for level in (1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10):
        cfg = SprtConfig(0.0, 1.0, 1.0, gamma=level, delta=level)
        excess.append(walk_exact(cfg.b, cfg.a, 0.5, 1.0)[0] - asn_wald(cfg, "h1"))
    assert all(wider < narrower for narrower, wider in zip(excess, excess[1:]))
    assert excess[-1] == pytest.approx(excess[-2], abs=1e-6)
    assert excess[0] == pytest.approx(1.502852, abs=1e-6)
    assert excess[-1] == pytest.approx(1.435875, abs=1e-6)


def test_walk_exact_k2_gap_values():
    assert K2_GAP_G == pytest.approx(2.302585, abs=1e-6)
    mean_T, p_error = walk_exact(*WALKS["gap-k2"])
    assert mean_T == pytest.approx(3.154338, abs=1e-6)
    assert p_error == pytest.approx(3.2133e-3, abs=1e-7)


def test_mc_error_control_and_sample_size():
    """Simulated error rates stay near the design levels.

    Overshoot makes the realized rates conservative, so the error check is
    one-sided against level + 3 SE.  The same overshoot inflates the mean
    stopping time about 16% above the overshoot-free approximation at these
    levels (roughly 0.7 extra nats per crossing), so the sample-size band
    brackets that excess instead of centering on the formula.
    """
    cfg = SprtConfig(0.0, 1.0, 1.0, gamma=0.01, delta=0.01)
    reps = 20000
    h1 = sprt_error_mc(cfg, "h1", reps, master_seed=314159)
    assert h1.truncation_count == 0
    assert h1.error_rate <= 0.01 + 3 * math.sqrt(0.01 * 0.99 / reps)
    rel = (h1.mean_T - asn_wald(cfg, "h1")) / asn_wald(cfg, "h1")
    assert 0.10 < rel < 0.25
    h0 = sprt_error_mc(cfg, "h0", reps, master_seed=951413)
    assert h0.error_rate <= 0.01 + 3 * math.sqrt(0.01 * 0.99 / reps)


def test_mc_is_deterministic():
    cfg = SprtConfig(0.0, 1.0, 1.0, gamma=0.05, delta=0.05)
    r1 = sprt_error_mc(cfg, "h1", 500, master_seed=77)
    r2 = sprt_error_mc(cfg, "h1", 500, master_seed=77)
    assert r1 == r2
