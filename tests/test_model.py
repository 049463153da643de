import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from reference import gap_statistic, reference_order, sample_increment
from seqgap.model import ModelParams, llr_star, sample_block, update_stats


def params(K=4, rho=0.5, mu=1.0, signals=(1, 2)):
    return ModelParams(K=K, rho=rho, mu=mu, signal_set=frozenset(signals))


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(K=1), "K must be >= 2"),
        (dict(rho=-0.1), "rho out of range"),
        (dict(rho=1.0), "rho out of range"),
        (dict(mu=0.0), "mu must be > 0"),
        (dict(mu=-1.0), "mu must be > 0"),
        (dict(signals=(0, 1)), "outside 1..4"),
        (dict(signals=(4, 5)), "outside 1..4"),
    ],
)
def test_params_validation(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        params(**kwargs)


def test_mean_vector_places_mu_on_signals():
    p = params(K=4, signals=(2, 4), mu=1.5)
    assert p.mean_vector().tolist() == [0.0, 1.5, 0.0, 1.5]


def test_update_stats_accumulates():
    s = (0, (0.0, 0.0, 0.0))
    s = update_stats(s, (1.0, 2.0, 3.0))
    s = update_stats(s, [0.5, -2.0, 1.0])
    assert s == (2, (1.5, 0.0, 4.0))


def test_update_stats_rejects_length_mismatch():
    with pytest.raises(ValueError, match="observation length"):
        update_stats((0, (0.0, 0.0, 0.0)), (1.0, 2.0))


def test_ordered_sums_descending_with_index_ties():
    assert reference_order((1.0, 3.0, 1.0, 5.0)) == [(4, 5.0), (2, 3.0), (1, 1.0), (3, 1.0)]


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8))
def test_ordered_sums_is_a_sorted_permutation(sums):
    ranked = reference_order(sums)
    assert sorted(i for i, _ in ranked) == list(range(1, len(sums) + 1))
    for (i, a), (j, b) in zip(ranked, ranked[1:]):
        assert a > b or (a == b and i < j)
    assert all(v == sums[i - 1] for i, v in ranked)


def test_gap_statistic_values_and_bounds():
    s = (3, (4.0, 1.0, 9.0))
    assert gap_statistic(s, 1) == 5.0
    assert gap_statistic(s, 2) == 3.0
    for k in (0, 3):
        with pytest.raises(ValueError, match="gap index"):
            gap_statistic(s, k)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6), st.data())
def test_gap_statistic_nonnegative(sums, data):
    k = data.draw(st.integers(1, len(sums) - 1))
    assert gap_statistic((1, tuple(sums)), k) >= 0.0


def test_gaps_are_shift_invariant_bitwise():
    # dyadic values and shift: every addition is exact, so bit identity
    # is guaranteed, not a rounding coincidence
    base = (2.25, -1.5, 0.125, 7.0)
    shift = 7.0
    s0 = (5, base)
    s1 = (5, tuple(x + shift for x in base))
    for k in range(1, 4):
        assert gap_statistic(s0, k) == gap_statistic(s1, k)
    # a non-dyadic shift that stays within one binade also preserves gaps here
    s2 = (5, (3.0, 1.0, 5.0, 2.0))
    s3 = (5, tuple(x + 7.3 for x in (3.0, 1.0, 5.0, 2.0)))
    for k in range(1, 4):
        assert gap_statistic(s2, k) == gap_statistic(s3, k)


def test_llr_star_example():
    # n=10, S=6, mu=1, rho=0.5: 1/(1-0.5) * (6 - 10*1/2) = 2
    s = (10, (6.0, 1.0, 0.0, 0.0))
    assert llr_star(s, 1, params()) == 2.0
    with pytest.raises(ValueError, match="stream index"):
        llr_star(s, 5, params())


def test_increment_consumes_k_plus_one_normals():
    p = params()
    g1 = np.random.Generator(np.random.Philox(key=42))
    sample_increment(p, g1)
    g2 = np.random.Generator(np.random.Philox(key=42))
    g2.standard_normal(p.K + 1)
    assert g1.standard_normal() == g2.standard_normal()


def test_block_equals_repeated_increments_bitwise():
    p = params(K=5, rho=0.3, signals=(2, 5))
    g1 = np.random.Generator(np.random.Philox(key=7))
    g2 = np.random.Generator(np.random.Philox(key=7))
    block = sample_block(p, g1, 6)
    singles = [sample_increment(p, g2) for _ in range(6)]
    assert block.tolist() == [list(row) for row in singles]


@st.composite
def block_cases(draw):
    K = draw(st.integers(2, 12))
    rho = draw(st.sampled_from([0.0, 0.999999]) | st.floats(0.0, 0.999999))
    mu = draw(st.floats(1e-3, 10.0))
    signals = draw(st.sets(st.integers(1, K)))
    return params(K=K, rho=rho, mu=mu, signals=signals), draw(st.integers(1, 70)), draw(st.integers(0, 2**64 - 1))


@given(block_cases())
@example((params(K=3, rho=0.0, mu=0.7, signals=(2,)), 5, 11))  # the shared column scaled by 0.0
@example((params(K=6, rho=0.999999, mu=2.5, signals=(1, 6)), 9, 12))
def test_block_rows_equal_increments_by_repr(case):
    p, count, key = case
    block = sample_block(p, np.random.Generator(np.random.Philox(key=key)), count)
    g = np.random.Generator(np.random.Philox(key=key))
    assert block.shape == (count, p.K)
    for row in block.tolist():
        # repr tells -0.0 from 0.0 and is exact for every other float
        assert repr(row) == repr(list(sample_increment(p, g)))


def _rebuilt(how, want):
    """``want`` rebuilt by ``dataclasses.replace`` from other fields, or by a pickle round trip."""
    if how == "replaced":
        p = replace(params(K=5, rho=0.1, mu=0.5), rho=want.rho, mu=want.mu, signal_set=want.signal_set)
    else:
        p = pickle.loads(pickle.dumps(want))
    assert p == want and hash(p) == hash(want) and repr(p) == repr(want)
    return p


@pytest.mark.parametrize("how", ["replaced", "pickled"])
def test_block_means_follow_the_fields(how):
    """The mean and scale rows, built on first use, follow the fields and belong to one params each."""
    want = params(K=5, rho=0.3, signals=(2, 5))
    sample_block(want, np.random.Generator(np.random.Philox(key=1)), 1)  # want has built its rows
    p = _rebuilt(how, want)
    other = params(K=5, rho=0.1, mu=0.5)  # built later: a cache shared across params would show
    for q, reference in ((p, want), (other, other)):
        assert not hasattr(q, "_block_rows")  # rebuilt on first use, never carried over
        g1 = np.random.Generator(np.random.Philox(key=7))
        g2 = np.random.Generator(np.random.Philox(key=7))
        block = sample_block(q, g1, 6)
        assert block.tolist() == [list(sample_increment(reference, g2)) for _ in range(6)]
        scale_row, mean_row = q._block_rows
        assert scale_row.tolist() == [math.sqrt(1.0 - q.rho)] * 5 + [math.sqrt(q.rho)]
        assert mean_row.tolist() == reference.mean_vector().tolist()
        assert not scale_row.flags.writeable and not mean_row.flags.writeable


@pytest.mark.parametrize("how", ["replaced", "pickled"])
def test_llr_scale_follows_the_fields(how):
    p = _rebuilt(how, params(K=5, rho=0.3, mu=1.25, signals=(2, 5)))
    other = params(K=5, rho=0.1, mu=0.5)  # built later: a cache shared across params would show
    s = (7, (3.5, -1.25, 0.1, 9.0, -0.0))
    for q, mu, rho in ((p, 1.25, 0.3), (other, 0.5, 0.1)):
        for i in range(1, 6):
            want = mu / (1.0 - rho) * (s[1][i - 1] - 7 * mu / 2.0)
            assert repr(llr_star(s, i, q)) == repr(want)


def test_sample_block_rejects_bad_count():
    with pytest.raises(ValueError, match="count"):
        sample_block(params(), np.random.default_rng(0), 0)


def _draws(p, n, key=123):
    rng = np.random.Generator(np.random.Philox(key=key))
    return sample_block(p, rng, n)


def test_moments_match_model():
    """Means, variances, and cross-correlations over 10^6 draws."""
    n = 10**6
    p = params(K=4, rho=0.5, mu=1.0, signals=(1, 2))
    x = _draws(p, n)
    se_mean = 1.0 / math.sqrt(n)
    assert np.allclose(x.mean(axis=0), [1.0, 1.0, 0.0, 0.0], atol=3.5 * se_mean)
    # var(sample variance) ~ 2/n for unit-variance normals
    assert np.allclose(x.var(axis=0, ddof=1), 1.0, atol=3.5 * math.sqrt(2.0 / n))


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_cross_correlation_matches_rho(rho):
    """Empirical pairwise correlation within a Fisher-z 3 SE band of rho."""
    n = 10**6
    p = params(K=4, rho=rho, signals=(1, 2))
    x = _draws(p, n, key=9)
    corr = np.corrcoef(x, rowvar=False)
    # z = atanh(r) is approximately normal around atanh(rho) with sd 1/sqrt(n-3)
    band = 3.3 / math.sqrt(n - 3)
    target = math.atanh(rho)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(math.atanh(corr[i, j]) - target) < band


def test_sampling_is_deterministic_per_key():
    p = params()
    assert _draws(p, 10, key=55).tolist() == _draws(p, 10, key=55).tolist()
    assert _draws(p, 10, key=55).tolist() != _draws(p, 10, key=56).tolist()
