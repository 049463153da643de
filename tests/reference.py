"""Scalar references that the package's fast paths are tested against.

Each one states a rule fact in its plainest form, with no regard to speed:

* ``reference_order`` -- the tie rule: streams by sum descending, ties by
  ascending stream;
* ``gap_statistic`` -- the k-th ordered-sum gap, read off that order;
* ``threshold_at`` -- the max-gap threshold e(n) = base + slope*n;
* ``sample_increment`` -- one observation vector from K + 1 standard
  normals, the row that ``sample_block`` draws;
* ``reference_metrics`` -- the error-rate estimates from whole Python
  lists of per-trial proportions and indicators, summed in trial order.

Only tests import this module; nothing under ``src/`` does.
"""

import math

from seqgap.metrics import Estimate, MetricEstimates, binomial, sample_mean


def reference_order(values):
    """(stream, value) pairs sorted by value descending, ties by ascending stream."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return [(i + 1, values[i]) for i in order]


def gap_statistic(stats, k):
    """Gap between the k-th and (k+1)-th largest cumulative sums; always >= 0."""
    _, sums = stats
    if not 1 <= k < len(sums):
        raise ValueError(f"gap index must be in 1..{len(sums) - 1}, got {k}")
    ranked = reference_order(sums)
    return ranked[k - 1][1] - ranked[k][1]


def threshold_at(cfg, n):
    """The max-gap threshold e(n) of a ``MaxGapRuleConfig``."""
    return cfg.base + cfg.slope * n


def sample_increment(params, rng):
    """Draw one observation vector from the equicorrelated model.

    Consumes exactly K + 1 standard normals from ``rng``: K idiosyncratic
    terms first, then the shared factor, which is added to each.
    """
    eps = rng.standard_normal(params.K + 1)
    z = params.mean_vector() + math.sqrt(1.0 - params.rho) * eps[: params.K]
    v = float(math.sqrt(params.rho) * eps[params.K])
    return tuple(zi + v for zi in z.tolist())


def reference_metrics(V, W, R, K):
    """Metric estimates of V, W, R columns on K streams, each proportion list through ``sample_mean``."""
    n = len(V)
    fdp = [v / max(r, 1) for v, r in zip(V, R)]
    fnp = [w / max(K - r, 1) for w, r in zip(W, R)]

    def conditional(values, qualifies):
        kept = [x for x, q in zip(values, qualifies) if q]
        return Estimate(sum(kept) / len(kept), None) if kept else Estimate(None, None, False)

    return MetricEstimates(
        fwer1=binomial(sum(v >= 1 for v in V), n),
        fwer2=binomial(sum(w >= 1 for w in W), n),
        pics=binomial(sum(v + w > 0 for v, w in zip(V, W)), n),
        fdr=sample_mean(fdp),
        fnr=sample_mean(fnp),
        pfdr=conditional(fdp, [r >= 1 for r in R]),
        pfnr=conditional(fnp, [r < K for r in R]),
    )
