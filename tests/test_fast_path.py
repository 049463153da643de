"""The one-sort stepping and the sums update against scalar references.

The references are the earlier implementations: one ``gap_statistic`` call
(a full sort) per gap index and the tie rule of ``reference_order`` (both
in ``tests/reference.py``) for the gap and max-gap rules, a tuple-keyed
sort for the gap-intersection rule, and an elementwise sum for
``update_stats``.  The sums are drawn with forced ties
(repeated values, 0.0 next to -0.0, all-equal rows, equal gaps), where a
tie rule would show.
"""

import csv
import inspect
import io
import sys
from array import array

import pytest
from hypothesis import example, given, strategies as st

import seqgap.metrics as metrics
import seqgap.model as model
import seqgap.montecarlo as montecarlo
import seqgap.rules as rules
import seqgap.sprt as sprt
from reference import gap_statistic, reference_metrics, reference_order, threshold_at
from seqgap.cli import TRIAL_DUMP_SCHEMA, write_trial_dump
from seqgap.metrics import confusion
from seqgap.model import ModelParams, update_stats
from seqgap.montecarlo import (
    ExperimentSpec,
    GapRuleSpec,
    GiRuleSpec,
    MaxGapRuleSpec,
    TrialColumns,
    TrialResult,
    run_experiment_with_trials,
    run_trial,
    sample_mean,
    sprt_error_mc,
    summarize,
)
from seqgap.rules import (
    GapRuleConfig,
    GIRuleConfig,
    MaxGapRuleConfig,
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


def reference_gap_step(stats, cfg):
    _, sums = stats
    if gap_statistic(stats, cfg.m) >= cfg.G:
        return frozenset(i for i, _ in reference_order(sums)[: cfg.m])
    return None


def reference_maxgap_step(stats, cfg):
    n, sums = stats
    best_i, best_gap = -1, -float("inf")
    for i in range(cfg.l + 1, cfg.u):
        g = gap_statistic(stats, i)
        if g > best_gap:
            best_i, best_gap = i, g
    if best_gap >= threshold_at(cfg, n):
        return frozenset(i for i, _ in reference_order(sums)[:best_i])
    return None


def reference_gi_step(llrs, cfg):
    order = sorted(range(len(llrs)), key=lambda i: (-llrs[i], i))
    lam = [llrs[i] for i in order]
    p = sum(1 for x in llrs if x > 0.0)
    tau1 = lam[cfg.l] <= -cfg.a and lam[cfg.l - 1] - lam[cfg.l] >= cfg.c
    tau2 = cfg.l <= p <= cfg.u and all(not (-cfg.a < x < cfg.b) for x in llrs)
    tau3 = lam[cfg.u - 1] >= cfg.b and lam[cfg.u - 1] - lam[cfg.u] >= cfg.d
    if not (tau1 or tau2 or tau3):
        return None
    p_prime = min(max(p, cfg.l), cfg.u)
    return frozenset(order[i] + 1 for i in range(p_prime))


def assert_step_result(rejected):
    """A step returns None, or a frozenset of 1-based Python int streams."""
    if rejected is not None:
        assert type(rejected) is frozenset
        assert all(type(i) is int for i in rejected)


def threshold(values, draw):
    """A threshold that is often exactly one of the gaps, so >= is exercised."""
    ranked = sorted(values, reverse=True)
    gaps = [a - b for a, b in zip(ranked, ranked[1:]) if a - b > 0.0]
    return draw(st.sampled_from(gaps) | positive if gaps else positive)


def _gap_cfg(m, G):
    return GapRuleConfig(m=m, c=1.0, G=G)


@st.composite
def gap_cases(draw):
    values = draw(sums_lists)
    stats = (draw(st.integers(1, 50)), tuple(values))
    return stats, _gap_cfg(draw(st.integers(1, len(values) - 1)), threshold(values, draw))


@given(gap_cases())
# equal sums just below the cut, the gap above them exactly G
@example(((1, (3.0, 5.0, 3.0, 1.0)), _gap_cfg(1, 2.0)))
@example(((1, (3.0, 5.0, 3.0, 1.0)), _gap_cfg(2, 2.0)))  # the tie straddles: no stop
# 0.0 beside -0.0 inside the top group, the cut at a zero
@example(((1, (-2.0, 0.0, -0.0, -3.0)), _gap_cfg(2, 2.0)))
@example(((1, (-0.0, -2.0, 0.0, -3.0)), _gap_cfg(2, 1.5)))
# the gap exactly G
@example(((1, (1.5, 4.0, 0.0)), _gap_cfg(1, 2.5)))
def test_gap_step_matches_per_index_reference(case):
    stats, cfg = case
    rejected = gap_rule_step(stats, cfg)
    assert_step_result(rejected)
    assert rejected == reference_gap_step(stats, cfg)


def _maxgap_cfg(l, u, base, slope):
    return MaxGapRuleConfig(l=l, u=u, base=base, slope=slope)


@st.composite
def maxgap_cases(draw):
    values = draw(sums_lists.filter(lambda v: len(v) >= 3))
    K = len(values)
    l = draw(st.integers(1, K - 2))
    u = draw(st.integers(l + 1, K - 1))  # u = l + 1 leaves no eligible index
    n = draw(st.integers(1, 50))
    slope = draw(st.sampled_from([0.0, 0.5]))
    base = max(threshold(values, draw) - slope * n, 1e-6)
    return (n, tuple(values)), _maxgap_cfg(l, u, base, slope)


@given(maxgap_cases())
# eligible gaps 2 and 3 equal and at the threshold: the smaller index must win
@example(((1, (9.0, 4.0, 3.0, 2.0, 0.0)), _maxgap_cfg(1, 4, base=1.0, slope=0.0)))
# equal sums just below the cut, gap(2) exactly e(2) = 1.0 + 0.5 * 2
@example(((2, (3.0, 9.0, 5.0, 3.0, 0.0)), _maxgap_cfg(1, 4, base=1.0, slope=0.5)))
# 0.0 beside -0.0 inside the top group, gap(3) exactly e(n)
@example(((1, (0.0, -3.0, -0.0, 0.0, -4.0)), _maxgap_cfg(1, 4, base=3.0, slope=0.0)))
@example(((1, (-0.0, -3.0, 0.0, -0.0, -4.0)), _maxgap_cfg(1, 4, base=3.0, slope=0.0)))
def test_maxgap_step_matches_per_index_reference(case):
    stats, cfg = case
    rejected = maxgap_rule_step(stats, cfg)
    assert_step_result(rejected)
    assert rejected == reference_maxgap_step(stats, cfg)


@st.composite
def gi_cases(draw):
    values = draw(sums_lists.filter(lambda v: len(v) >= 3))
    K = len(values)
    l = draw(st.integers(1, K - 2))
    u = draw(st.integers(l + 1, K - 1))
    a, b, c, d = (draw(st.floats(1e-3, 50.0)) for _ in range(4))
    return [v / 20.0 for v in values], GIRuleConfig(l=l, u=u, a=a, b=b, c=c, d=d)


def _gi_case(llrs, l, u, a, b):
    """Thresholds c and d out of reach, so only the intersection criterion can stop."""
    return llrs, GIRuleConfig(l=l, u=u, a=a, b=b, c=1e3, d=1e3)


@given(gi_cases())
@example(_gi_case([3.0, 2.0, -1.5, -4.0], 1, 3, a=1.5, b=2.0))  # lam(p) == b, lam(p+1) == -a
@example(_gi_case([3.0, 2.0, -1.0, -4.0], 1, 3, a=1.5, b=2.0))  # lam(p) == b, lam(p+1) inside
@example(_gi_case([3.0, 1.0, -1.5, -4.0], 1, 3, a=1.5, b=2.0))  # lam(p+1) == -a, lam(p) inside
@example(_gi_case([2.5, 0.0, -0.0, -2.5], 1, 3, a=1e-3, b=2.0))  # 0.0 beside -0.0
@example(_gi_case([2.5, -0.0, 0.0, -2.5], 1, 3, a=1e-3, b=2.0))
@example(_gi_case([3.0, -2.0, -2.5, -3.0], 1, 2, a=2.0, b=3.0))  # p == l
@example(_gi_case([4.0, 3.0, 2.5, -2.0, -3.0], 1, 3, a=2.0, b=2.5))  # p == u
@example(_gi_case([4.0, 3.0, 2.5, 2.0, -3.0], 1, 3, a=2.0, b=2.0))  # p == u + 1
# p == 0 beside a -0.0, and tau1 at equality: lam(2) == -a, lam(1) - lam(2) == c
@example(([-0.0, -3.0, -1.5, -5.0], GIRuleConfig(l=1, u=2, a=1.5, b=1e3, c=1.5, d=1e3)))
@example(([-0.0, -3.0, -1.5, -5.0], GIRuleConfig(l=1, u=2, a=1.5, b=1e3, c=1e3, d=1e3)))
# p == K: every llr positive
@example(([1.0, 3.0, 2.0, 0.5], GIRuleConfig(l=1, u=2, a=1e3, b=2.0, c=1e3, d=1e3)))
# tau1 alone, at equality: lam(l) - lam(l+1) == c and lam(l+1) == -a
@example(([0.5, -1.5, -2.0, -4.0], GIRuleConfig(l=1, u=2, a=1.5, b=1e3, c=2.0, d=1e3)))
# tau3 alone, at equality: lam(u) == b and lam(u) - lam(u+1) == d
@example(([4.0, 3.0, 2.0, -1.0, -2.0], GIRuleConfig(l=1, u=3, a=1e3, b=2.0, c=1e3, d=3.0)))
# tau3 at equality with p == K
@example(([1.0, 3.0, 2.0, 0.5], GIRuleConfig(l=1, u=2, a=1e3, b=2.0, c=1e3, d=1.0)))
def test_gi_step_matches_tuple_key_reference(case):
    llrs, cfg = case
    rejected = gi_rule_step(llrs, cfg)
    assert_step_result(rejected)
    assert rejected == reference_gi_step(llrs, cfg)


@given(sums_lists, st.integers(0, 1000), st.sampled_from(["floats", "tuple", "ints"]), st.data())
def test_update_stats_matches_elementwise_sums(values, n, kind, data):
    stats = n, tuple(values)
    if kind == "ints":
        obs = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=len(values), max_size=len(values)))
        row = obs
    else:
        row = data.draw(st.lists(finite | st.just(-0.0), min_size=len(values), max_size=len(values)))
        obs = tuple(row) if kind == "tuple" else row
    got = update_stats(stats, obs)
    want = n + 1, tuple(float(s + x) for s, x in zip(values, row))
    assert got == want
    # repr tells -0.0 from 0.0 and is exact for every other float
    assert repr(got[1]) == repr(want[1])
    assert all(type(s) is float for s in got[1])


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("rule", ["gap", "maxgap", "gi"])
def test_one_ordering_per_step(monkeypatch, rule, stop):
    """One bare sort per step, stop or not: a stop reads its rejected set from the cut."""
    sorts = []

    def counting_sorted(*args, **kwargs):
        sorts.append(args)
        return sorted(*args, **kwargs)

    # a module global shadows the builtin
    monkeypatch.setattr(rules, "sorted", counting_sorted, raising=False)
    stats = 1, (5.0, 4.0, 1.0, 0.0, -1.0)  # gaps 1, 3, 1, 1
    level = 2.0 if stop else 10.0
    top = frozenset({1, 2})
    if rule == "gap":
        cfg = GapRuleConfig(m=2, c=1.0, G=level)
        rejected = gap_rule_step(stats, cfg)
    elif rule == "maxgap":
        cfg = MaxGapRuleConfig(l=1, u=4, base=level, slope=0.0)
        rejected = maxgap_rule_step(stats, cfg)
    else:  # tau3 alone: lam(3) == b, and lam(3) - lam(4) == 3.0 reaches d only when stopping
        cfg = GIRuleConfig(l=1, u=3, a=1e3, b=2.0, c=1e3, d=3.0 if stop else 10.0)
        rejected = gi_rule_step([4.0, 3.0, 2.0, -1.0, -2.0], cfg)
        top = frozenset({1, 2, 3})
    assert rejected == (top if stop else None)
    assert len(sorts) == 1


@pytest.mark.parametrize("obs", [[1.0, 2.0, 3.0, 4.0], (1.0, 2.0), iter([1, 2, 3, 4])])
def test_update_stats_still_checks_length(obs):
    with pytest.raises(ValueError, match="observation length"):
        update_stats((0, (0.0, 0.0, 0.0)), obs)


def test_steps_keep_the_gap_index_checks():
    stats = 1, (3.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="gap index"):
        gap_rule_step(stats, GapRuleConfig(m=3, c=1.0, G=1.0))
    cfg = MaxGapRuleConfig(l=1, u=4, base=1.0, slope=0.0)
    with pytest.raises(ValueError, match="gap indices"):
        maxgap_rule_step(stats, cfg)


# ------------------------------------------------- permuting the streams


distinct_sums = st.lists(finite, min_size=3, max_size=8, unique=True)


def _permuted(values, perm):
    """Stream j + 1 of the result is stream perm[j] + 1 of ``values``."""
    return [values[i] for i in perm], lambda rejected: frozenset(
        j + 1 for j, i in enumerate(perm) if i + 1 in rejected
    )


def _same_up_to(rename, rejected, permuted_rejected):
    assert permuted_rejected == (None if rejected is None else rename(rejected))


@given(distinct_sums, st.data())
def test_permuting_streams_permutes_gap_and_maxgap_rejections(values, data):
    K = len(values)
    perm = data.draw(st.permutations(range(K)))
    moved, rename = _permuted(values, perm)
    n = data.draw(st.integers(1, 50))
    level = threshold(values, data.draw)
    gap_cfg = GapRuleConfig(m=data.draw(st.integers(1, K - 1)), c=1.0, G=level)
    l = data.draw(st.integers(0, K - 2))
    maxgap_cfg = MaxGapRuleConfig(l=l, u=data.draw(st.integers(l + 2, K)), base=level, slope=0.0)
    stats, moved_stats = (n, tuple(values)), (n, tuple(moved))
    _same_up_to(rename, gap_rule_step(stats, gap_cfg), gap_rule_step(moved_stats, gap_cfg))
    _same_up_to(rename, maxgap_rule_step(stats, maxgap_cfg), maxgap_rule_step(moved_stats, maxgap_cfg))


@st.composite
def permuted_gi_cases(draw):
    """A GI case, ties and signed zeros included, and a permutation of its streams."""
    llrs, cfg = draw(gi_cases())
    return llrs, cfg, draw(st.permutations(range(len(llrs))))


@given(permuted_gi_cases())
# tau3 stops on {1, 2}: a tie inside the top group, 0.0 beside -0.0 below the cut
@example(([3.0, 3.0, -0.0, 0.0, -2.0], GIRuleConfig(l=1, u=2, a=1e3, b=2.0, c=1e3, d=3.0), [4, 3, 1, 0, 2]))
def test_permuting_streams_permutes_gi_rejections(case):
    llrs, cfg, perm = case
    moved, rename = _permuted(llrs, perm)
    _same_up_to(rename, gi_rule_step(llrs, cfg), gi_rule_step(moved, cfg))


# --------------------------------------- outcomes scored once per distinct value


@st.composite
def trial_lists(draw):
    """A gap spec and trials whose equal rejected sets are distinct objects."""
    K = draw(st.integers(2, 6))
    m = draw(st.integers(1, K - 1))
    spec = ExperimentSpec(
        params=ModelParams(K=K, rho=0.5, mu=1.0, signal_set=frozenset(range(1, m + 1))),
        rule=GapRuleSpec(m=m), alpha=0.01, beta=0.01, replications=1, master_seed=0,
    )
    trials = draw(st.lists(st.builds(
        TrialResult,
        stopping_time=st.integers(1, 10**4),
        rejected=st.none() | st.lists(st.integers(1, K), max_size=K).map(frozenset),
    ), min_size=1, max_size=40))
    return spec, trials


def _scored(spec, trial):
    """A trial's (V, W, R); a truncated one is scored with the complement of the signal set."""
    K, signal_set = spec.params.K, spec.params.signal_set
    rejected = frozenset(range(1, K + 1)) - signal_set if trial.rejected is None else trial.rejected
    return confusion(rejected, signal_set, K)


def _columns(spec, trials):
    """Trial results as the harness's columns, scored one trial at a time."""
    rows = [(t.stopping_time, *_scored(spec, t), t.rejected is None) for t in trials]
    return TrialColumns(*(array("q", column) for column in zip(*rows)))


def _reference_metrics(spec, trials):
    """The estimates from whole lists of the trials' scores, summed in trial order."""
    V, W, R = zip(*(_scored(spec, t) for t in trials))
    return reference_metrics(V, W, R, spec.params.K)


@given(trial_lists())
def test_summarize_matches_per_trial_scoring(case):
    spec, trials = case
    summary = summarize(spec, _columns(spec, trials))
    reference = _reference_metrics(spec, trials)
    assert summary.metrics == reference
    # repr: the report's cell format, and exact for every float
    assert repr(summary.metrics) == repr(reference)
    time = sample_mean([t.stopping_time for t in trials])
    assert (summary.mean_T, summary.se_T) == (time.value, time.se)
    assert summary.truncation_count == sum(t.rejected is None for t in trials)
    assert type(summary.truncation_count) is int


@given(trial_lists())
def test_trial_dump_matches_csv_writer(case):
    spec, trials = case
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(TRIAL_DUMP_SCHEMA)
    for index, trial in enumerate(trials):
        writer.writerow([index, trial.stopping_time, *_scored(spec, trial),
                         "true" if trial.rejected is None else "false"])
    out = io.StringIO()
    write_trial_dump(out, _columns(spec, trials))
    assert out.getvalue() == reference.getvalue()


# ------------------------------------------------ the benchmark's trace contract

# ``benchmarks/run.py --trace 1`` wraps the public functions and rebinds every
# module-level reference to them, then requires these counts exactly.
COUNTED = {
    "gap_rule_step": rules, "maxgap_rule_step": rules, "gi_rule_step": rules,
    "update_stats": model, "llr_star": model,
    "trial_generator": montecarlo, "confusion": metrics,
    "run_sprt": sprt, "sprt_step": sprt,
}

TRACED_SPECS = {
    "gap": ExperimentSpec(
        params=ModelParams(K=4, rho=0.5, mu=1.0, signal_set=frozenset({1, 2})),
        rule=GapRuleSpec(m=2), alpha=0.01, beta=0.01, replications=150, master_seed=3,
        horizon_cap=8,  # some trials truncate
    ),
    "maxgap": ExperimentSpec(
        params=ModelParams(K=6, rho=0.5, mu=1.0, signal_set=frozenset({1, 2})),
        rule=MaxGapRuleSpec(l=1, u=4), alpha=0.05, beta=0.05, replications=40, master_seed=3,
        horizon_cap=40,
    ),
    "gi": ExperimentSpec(
        params=ModelParams(K=6, rho=0.0, mu=1.0, signal_set=frozenset({1, 2})),
        rule=GiRuleSpec(l=1, u=4), alpha=0.05, beta=0.05, replications=60, master_seed=3,
        horizon_cap=30,
    ),
}


def _count_calls(monkeypatch):
    calls = dict.fromkeys([*COUNTED, "run_sprt stopping times"], 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "run_sprt":  # the span count benchmarks/tracer.py reads from each result
                calls["run_sprt stopping times"] += result.stopping_time
            return result
        return wrapper

    originals = {getattr(module, name): name for name, module in COUNTED.items()}
    wrapped = {fn: counting(name, fn) for fn, name in originals.items()}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "seqgap" or mod_name.startswith("seqgap."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    monkeypatch.setattr(module, attr, wrapped[obj])
    return calls


def _sprt_trace_counts(calls):
    reps = 200
    result = sprt_error_mc(sprt.SprtConfig(0.0, 1.0, 1.0, 0.01, 0.01), "h1", reps,
                           master_seed=3, horizon_cap=12)  # some runs truncate
    assert 0 < result.truncation_count < reps
    assert calls["run_sprt"] == reps
    assert calls["sprt_step"] == round(result.mean_T * reps)  # the sum of stopping times
    assert calls["run_sprt stopping times"] == round(result.mean_T * reps)
    assert calls["trial_generator"] == reps
    # two outcomes: reject ({1}) and accept or truncated (both the empty set under h1)
    assert calls["confusion"] == 2


@pytest.mark.parametrize("kind", sorted(TRACED_SPECS) + ["sprt"])
def test_trace_contract_counts(monkeypatch, kind):
    if kind == "sprt":
        return _sprt_trace_counts(_count_calls(monkeypatch))
    spec = TRACED_SPECS[kind]
    reference = [run_trial(spec, i) for i in range(spec.replications)]
    calls = _count_calls(monkeypatch)
    _, trials = run_experiment_with_trials(spec)
    assert list(trials.T) == [t.stopping_time for t in reference]
    steps = sum(trials.T)
    assert any(trials.truncated) and not all(trials.truncated)
    assert calls[f"{kind}_rule_step"] == steps
    assert calls["update_stats"] == steps
    assert calls["llr_star"] == (spec.params.K * steps if kind == "gi" else 0)
    assert calls["trial_generator"] == spec.replications
    # one chunk here: the loop scores each distinct rejected set once per chunk,
    # a truncated trial's as the complement of the signal set
    wrong = frozenset(range(1, spec.params.K + 1)) - spec.params.signal_set
    assert calls["confusion"] == len({wrong if t.rejected is None else t.rejected for t in reference})
    assert calls["run_sprt"] == calls["sprt_step"] == 0


@given(st.lists(st.integers(-40, 40), min_size=2, max_size=8), st.integers(-10**6, 10**6),
       st.integers(1, 50), st.data())
def test_adding_c_n_to_every_sum_keeps_gap_and_maxgap_decisions(values, c, n, data):
    """A common drift c per step moves every sum by c * n and no gap.

    Whole-number sums and c keep every float addition exact.
    """
    K = len(values)
    stats = n, tuple(float(v) for v in values)
    shifted = n, tuple(float(v + c * n) for v in values)
    level = threshold(list(stats[1]), data.draw)
    gap_cfg = GapRuleConfig(m=data.draw(st.integers(1, K - 1)), c=1.0, G=level)
    assert gap_rule_step(shifted, gap_cfg) == gap_rule_step(stats, gap_cfg)
    if K >= 3:
        l = data.draw(st.integers(1, K - 2))
        maxgap_cfg = MaxGapRuleConfig(
            l=l, u=data.draw(st.integers(l + 1, K - 1)), base=level,
            slope=data.draw(st.sampled_from([0.0, 0.5])),
        )
        assert maxgap_rule_step(shifted, maxgap_cfg) == maxgap_rule_step(stats, maxgap_cfg)
