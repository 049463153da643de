import io
import random
from array import array

import pytest
from hypothesis import given, strategies as st
from hypothesis.strategies import composite

from seqgap.cli import TRIAL_DUMP_SCHEMA, write_trial_dump
from reference import compensated_sum, reference_metrics
from seqgap.metrics import (
    Estimate,
    aggregate,
    confusion,
    sample_mean,
)
from seqgap.montecarlo import TrialColumns


def one_trial(counts, K):
    """Metric estimates of a single trial's (V, W, R) on K streams."""
    v, w, r = counts
    return aggregate([v], [w], [r], K)


def columns(count_list):
    """V, W, R columns and K of (V, W, R, K) tuples sharing one K."""
    v, w, r, k = zip(*count_list)
    return list(v), list(w), list(r), k[0]


def test_confusion_example():
    assert confusion(rejected={1, 2}, signal_set={1, 3}, K=4) == (1, 1, 2)


def test_confusion_perfect_selection():
    counts = confusion({2, 4}, {2, 4}, K=5)
    assert counts == (0, 0, 2)
    est = one_trial(counts, K=5)
    assert est.fdr.value == 0.0
    assert est.pics.value == 0.0


def test_confusion_rejects_out_of_range_streams():
    with pytest.raises(ValueError, match="rejected set"):
        confusion({0}, {1}, K=3)
    with pytest.raises(ValueError, match="signal set"):
        confusion({1}, {4}, K=3)


@composite
def stream_subsets(draw):
    """K and two subsets of 1..K: a rejected set and a signal set."""
    k = draw(st.integers(1, 12))
    subset = st.frozensets(st.integers(1, k), max_size=k)
    return draw(subset), draw(subset), k


@given(stream_subsets())
def test_confusion_counts_invariants(case):
    rejected, signal_set, k = case
    counts = confusion(rejected, signal_set, k)
    assert type(counts) is tuple and [type(c) for c in counts] == [int, int, int]
    v, w, r = counts
    assert 0 <= v <= r <= k
    assert 0 <= w <= k - r  # misses lie among the K - R accepted streams
    assert (v, w, r) == (len(rejected - signal_set), len(signal_set - rejected), len(rejected))


def test_empty_rejection_contribs():
    est = one_trial(confusion(set(), {1, 2}, K=4), K=4)
    assert est.fdr.value == 0.0  # guarded denominator
    assert est.fnr.value == 0.5
    assert not est.pfdr.defined  # no rejection: pFDR has no qualifying trial


def test_full_rejection_contribs():
    est = one_trial(confusion({1, 2, 3}, {1}, K=3), K=3)
    assert est.fdr.value == pytest.approx(2 / 3)
    assert est.fnr.value == 0.0  # K - R = 0, guarded
    assert not est.pfnr.defined  # nothing accepted: pFNR has no qualifying trial


@composite
def valid_counts(draw, k=None):
    k = draw(st.integers(2, 8)) if k is None else k
    r = draw(st.integers(0, k))
    v = draw(st.integers(0, r))
    w = draw(st.integers(0, k - r))  # misses are confined to accepted streams
    return (v, w, r, k)


@given(valid_counts())
def test_sandwich_inequalities(vwrk):
    """Proportions are bracketed by the familywise indicators over K."""
    v, w, r, k = vwrk
    est = one_trial((v, w, r), k)
    assert est.fdr.value <= est.fwer1.value
    assert est.fnr.value <= est.fwer2.value
    assert est.fdr.value >= est.fwer1.value / k
    assert est.fnr.value >= est.fwer2.value / k


@composite
def count_lists(draw):
    k = draw(st.integers(2, 8))
    return draw(st.lists(valid_counts(k), min_size=1, max_size=50))


@given(count_lists())
def test_aggregated_proportions_below_familywise_rates(count_list):
    est = aggregate(*columns(count_list))
    assert est.fdr.value <= est.fwer1.value + 1e-12
    assert est.fnr.value <= est.fwer2.value + 1e-12


def test_binomial_se():
    # two trials with a false rejection (V = R = 1) and two without
    est = aggregate([1, 0, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1], 2)
    assert est.fwer1 == Estimate(value=0.5, se=0.25)


def test_sample_mean_se():
    est = aggregate([0, 1], [0, 0], [1, 1], 2)  # fdp 0 and 1
    assert est.fdr.value == 0.5
    assert est.fdr.se == 0.5  # sqrt(var/n) with ddof=1


def test_conditional_estimator_ratio_of_sums():
    # qualifying trials contribute 0.5 and 0; the no-rejection trial is excluded
    est = aggregate([1, 0, 0], [0, 0, 0], [2, 1, 0], 3)
    assert est.pfdr == Estimate(value=0.25, se=None)


def test_conditional_estimator_undefined_without_qualifying_trials():
    est = aggregate([0, 0], [0, 0], [0, 0], 2)
    assert est.pfdr == Estimate(value=None, se=None, defined=False)
    assert est.pfdr.value is None  # undefined, never reported as zero


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        aggregate([], [], [], 4)


def test_single_trial_aggregation():
    est = aggregate([0], [0], [1], 2)
    assert est.fdr.se == 0.0
    assert est.fwer1.se == 0.0


def test_aggregate_reads_any_sequence_of_integers():
    """Narrow arrays, lists, tuples, numpy arrays and lists of numpy integers give the same
    estimates, as Python floats, and the same as the reference."""
    np = pytest.importorskip("numpy")
    rng, K = random.Random(7), 5
    R = [rng.randint(0, K) for _ in range(200)] + [0, K]
    V = [rng.randint(0, r) for r in R]
    W = [rng.randint(0, K - r) for r in R]
    expected = reference_metrics(V, W, R, K)
    for convert in (lambda c: array("B", c), list, tuple, lambda c: np.array(c, dtype=np.int64),
                    lambda c: np.array(c, dtype=np.uint8), lambda c: [np.int64(x) for x in c]):
        estimates = aggregate(convert(V), convert(W), convert(R), K)
        assert estimates == expected
        for estimate in vars(estimates).values():
            assert all(type(x) is float for x in (estimate.value, estimate.se) if x is not None)


def test_aggregate_does_not_depend_on_how_sum_adds_floats(monkeypatch):
    """A built-in ``sum`` that compensates float totals, as CPython 3.12's does, leaves every
    estimate as it was: no total in ``metrics`` goes through it."""
    rng, K, n = random.Random(23), 10, 20000
    R = [rng.randint(0, K) for _ in range(n)]
    V = [rng.randint(0, r) for r in R]
    W = [rng.randint(0, K - r) for r in R]
    fdp = [v / max(r, 1) for v, r in zip(V, R)]
    expected = aggregate(V, W, R, K), sample_mean(fdp)
    monkeypatch.setattr("seqgap.metrics.sum", compensated_sum, raising=False)
    assert (aggregate(V, W, R, K), sample_mean(fdp)) == expected


# ------------------------------------------------ column widths and lengths


def whole_dump(trials):
    """The trial dump as one join of every line."""
    lines = [",".join(TRIAL_DUMP_SCHEMA) + "\n"]
    for i, (t, v, w, r, x) in enumerate(zip(*trials)):
        lines.append(f"{i},{t},{v},{w},{r},{'true' if x else 'false'}\n")
    return "".join(lines)


def widths(K):
    """Column typecodes: all int64, and the narrower ones that a run on K streams picks at a
    horizon of 10**6 steps, the most that ``trial_columns`` puts in T."""
    return ["qqqqq", "".join(column.typecode for column in TrialColumns.zeros(0, K, 10**6))]


def trial_columns(K, R, pick, typecodes):
    """Columns for the given R column, with V, W, T and truncation chosen by ``pick(lo, hi)``,
    the same values once in each entry of ``typecodes`` (one typecode per column)."""
    V = [pick(0, r) for r in R]
    W = [pick(0, K - r) for r in R]
    T = [pick(1, 10**6) for _ in R]
    X = [pick(0, 1) for _ in R]
    return [TrialColumns(*map(array, codes, (T, V, W, R, X))) for codes in typecodes]


@composite
def trials_on_k_streams(draw):
    """K <= 8 or at a width's edge, and columns of 1..20 trials, some with no rejection at all
    or every stream rejected, in each of the ``widths`` of K."""
    K = draw(st.integers(1, 8) | st.sampled_from([255, 256, 65536]))
    n = draw(st.just(1) | st.integers(1, 20))
    R = draw(st.sampled_from([[0] * n, [K] * n]) | st.lists(st.integers(0, K), min_size=n, max_size=n))
    return K, trial_columns(K, R, lambda lo, hi: draw(st.integers(lo, hi)), widths(K))


def assert_matches_references(K, typed_trials):
    for trials in typed_trials:
        estimates = aggregate(trials.V, trials.W, trials.R, K)
        assert estimates == reference_metrics(trials.V, trials.W, trials.R, K)
        out = io.StringIO()
        write_trial_dump(out, trials)
        assert out.getvalue() == whole_dump(trials)


# The sizes at which aggregation once cut its columns into slices. The slicing is gone; the
# tests keep these sizes, so each column length below stays one trial past such a boundary.
SLICE_SIZES = [1, 2, 3, 4096]


@pytest.mark.parametrize("size", SLICE_SIZES)
@given(trials_on_k_streams())
def test_results_do_not_depend_on_the_slice_size(size, case):
    """Each size is its own batch of examples: with no slice left to set, it patches nothing."""
    assert_matches_references(*case)


@pytest.mark.parametrize("size", SLICE_SIZES)
@pytest.mark.parametrize("R_kind", ["random", "none rejected", "all rejected"])
def test_one_trial_past_a_slice_boundary(size, R_kind):
    rng, K, n = random.Random(size), 6, size + 1
    R = {"random": [rng.randint(0, K) for _ in range(n)], "none rejected": [0] * n,
         "all rejected": [K] * n}[R_kind]
    assert_matches_references(K, trial_columns(K, R, rng.randint, widths(K)))
