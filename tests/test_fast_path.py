"""The one-sort stepping and the trusted sums update against scalar references.

The references are the earlier implementations: a tuple-keyed sort for the
ordering, one ``gap_statistic`` call (a full sort) per gap index for the
gap and max-gap rules, and the validating public constructor for
``update_stats``.  The sums are drawn with forced ties (repeated values,
0.0 next to -0.0, all-equal rows, equal gaps), where a tie rule would show.
"""

import pytest
from hypothesis import example, given, strategies as st

import seqgap.model as model
import seqgap.rules as rules
from seqgap.model import ObservationBatch, SufficientStats, gap_statistic, ordered_sums, update_stats
from seqgap.rules import (
    CONTINUE,
    GapRuleConfig,
    GIRuleConfig,
    MaxGapRuleConfig,
    StopDecision,
    VARIANT_SQRT2,
    gap_rule_step,
    gi_rule_step,
    maxgap_rule_step,
)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# a few distinct values, each stream taking one of them: ties are the rule
tied = st.lists(finite | st.sampled_from([0.0, -0.0]), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=10)
)
# small whole numbers: equal gaps, so the max-gap index tie rule shows
whole = st.lists(st.integers(-4, 4).map(float), min_size=2, max_size=10)
sums_lists = tied | whole | st.lists(finite, min_size=2, max_size=10)
positive = st.floats(1e-6, 2e3, allow_nan=False, allow_infinity=False)


def reference_order(values):
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return [(i + 1, values[i]) for i in order]


def reference_gap_step(stats, cfg):
    if gap_statistic(stats, cfg.m) >= cfg.G:
        return StopDecision(True, frozenset(i for i, _ in reference_order(stats.sums)[: cfg.m]))
    return CONTINUE


def reference_maxgap_step(stats, cfg):
    best_i, best_gap = -1, -float("inf")
    for i in range(cfg.l + 1, cfg.u):
        g = gap_statistic(stats, i)
        if g > best_gap:
            best_i, best_gap = i, g
    if best_gap >= cfg.threshold_at(stats.n):
        return StopDecision(True, frozenset(i for i, _ in reference_order(stats.sums)[:best_i]))
    return CONTINUE


def reference_gi_step(llrs, cfg):
    order = sorted(range(len(llrs)), key=lambda i: (-llrs[i], i))
    lam = [llrs[i] for i in order]
    p = sum(1 for x in llrs if x > 0.0)
    tau1 = lam[cfg.l] <= -cfg.a and lam[cfg.l - 1] - lam[cfg.l] >= cfg.c
    tau2 = cfg.l <= p <= cfg.u and all(not (-cfg.a < x < cfg.b) for x in llrs)
    tau3 = lam[cfg.u - 1] >= cfg.b and lam[cfg.u - 1] - lam[cfg.u] >= cfg.d
    if not (tau1 or tau2 or tau3):
        return CONTINUE
    p_prime = min(max(p, cfg.l), cfg.u)
    return StopDecision(True, frozenset(order[i] + 1 for i in range(p_prime)))


def threshold(values, data):
    """A threshold that is often exactly one of the gaps, so >= is exercised."""
    ranked = sorted(values, reverse=True)
    gaps = [a - b for a, b in zip(ranked, ranked[1:]) if a - b > 0.0]
    return data.draw(st.sampled_from(gaps) | positive if gaps else positive)


@given(sums_lists)
@example([0.0, -0.0, 0.0, -0.0])
@example([2.5] * 6)
def test_ordered_sums_matches_tuple_key_reference(values):
    assert ordered_sums(SufficientStats(3, tuple(values))) == reference_order(values)


@given(sums_lists, st.data())
def test_gap_step_matches_per_index_reference(values, data):
    stats = SufficientStats(data.draw(st.integers(1, 50)), tuple(values))
    m = data.draw(st.integers(1, len(values) - 1))
    cfg = GapRuleConfig(m=m, alpha=0.01, beta=0.01, c1_adjust=1.0, c=1.0, G=threshold(values, data))
    assert gap_rule_step(stats, cfg) == reference_gap_step(stats, cfg)


@given(sums_lists.filter(lambda v: len(v) >= 3), st.data())
def test_maxgap_step_matches_per_index_reference(values, data):
    K = len(values)
    l = data.draw(st.integers(1, K - 2))
    u = data.draw(st.integers(l + 1, K - 1))  # u = l + 1 leaves no eligible index
    n = data.draw(st.integers(1, 50))
    slope = data.draw(st.sampled_from([0.0, 0.5]))
    base = max(threshold(values, data) - slope * n, 1e-6)
    cfg = MaxGapRuleConfig(
        l=l, u=u, alpha=0.01, beta=0.01, c1_adjust=1.0, variant=VARIANT_SQRT2, base=base, slope=slope,
    )
    stats = SufficientStats(n, tuple(values))
    assert maxgap_rule_step(stats, cfg) == reference_maxgap_step(stats, cfg)


@given(sums_lists.filter(lambda v: len(v) >= 3), st.data())
def test_gi_step_matches_tuple_key_reference(values, data):
    K = len(values)
    l = data.draw(st.integers(1, K - 2))
    u = data.draw(st.integers(l + 1, K - 1))
    a, b, c, d = (data.draw(st.floats(1e-3, 50.0)) for _ in range(4))
    cfg = GIRuleConfig(l=l, u=u, a=a, b=b, c=c, d=d)
    llrs = [v / 20.0 for v in values]
    assert gi_rule_step(llrs, cfg) == reference_gi_step(llrs, cfg)


@given(sums_lists, st.integers(0, 1000), st.sampled_from(["floats", "ints", "batch"]), st.data())
def test_update_stats_matches_public_constructor(values, n, kind, data):
    stats = SufficientStats(n, tuple(values))
    if kind == "ints":
        obs = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=len(values), max_size=len(values)))
        row = obs
    else:
        row = data.draw(st.lists(finite | st.just(-0.0), min_size=len(values), max_size=len(values)))
        obs = ObservationBatch(tuple(row)) if kind == "batch" else row
    got = update_stats(stats, obs)
    want = SufficientStats(n + 1, tuple(s + x for s, x in zip(stats.sums, row)))
    assert got == want
    # repr tells -0.0 from 0.0 and is exact for every other float
    assert repr(got.sums) == repr(want.sums)
    assert all(type(s) is float for s in got.sums)


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("rule", ["gap", "maxgap"])
def test_one_ordering_per_step(monkeypatch, rule, stop):
    calls = []

    def counting(stats):
        calls.append(stats)
        return ordered_sums(stats)

    # gap_statistic reaches the ordering through the model module
    monkeypatch.setattr(model, "ordered_sums", counting)
    monkeypatch.setattr(rules, "ordered_sums", counting)
    stats = SufficientStats(1, (5.0, 4.0, 1.0, 0.0, -1.0))  # gaps 1, 3, 1, 1
    level = 2.0 if stop else 10.0
    if rule == "gap":
        cfg = GapRuleConfig(m=2, alpha=0.01, beta=0.01, c1_adjust=1.0, c=1.0, G=level)
        decision = gap_rule_step(stats, cfg)
    else:
        cfg = MaxGapRuleConfig(
            l=1, u=4, alpha=0.01, beta=0.01, c1_adjust=1.0, variant=VARIANT_SQRT2, base=level, slope=0.0,
        )
        decision = maxgap_rule_step(stats, cfg)
    assert decision.stopped is stop
    if stop:
        assert decision.rejected == frozenset({1, 2})
    assert len(calls) == 1


@pytest.mark.parametrize("obs", [[1.0, 2.0, 3.0, 4.0], ObservationBatch((1.0, 2.0)), iter([1, 2, 3, 4])])
def test_update_stats_still_checks_length(obs):
    with pytest.raises(ValueError, match="observation length"):
        update_stats(SufficientStats.initial(3), obs)


def test_steps_keep_the_gap_index_checks():
    stats = SufficientStats(1, (3.0, 2.0, 1.0))
    with pytest.raises(ValueError, match="gap index"):
        gap_rule_step(stats, GapRuleConfig(m=3, alpha=0.01, beta=0.01, c1_adjust=1.0, c=1.0, G=1.0))
    cfg = MaxGapRuleConfig(
        l=1, u=4, alpha=0.01, beta=0.01, c1_adjust=1.0, variant=VARIANT_SQRT2, base=1.0, slope=0.0,
    )
    with pytest.raises(ValueError, match="gap indices"):
        maxgap_rule_step(stats, cfg)
