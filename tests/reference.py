"""Scalar references that the package's fast paths are tested against.

Each one states a rule fact in its plainest form, with no regard to speed:

* ``reference_order`` -- the tie rule: streams by sum descending, ties by
  ascending stream;
* ``gap_statistic`` -- the k-th ordered-sum gap, read off that order;
* ``threshold_at`` -- the max-gap threshold e(n) = base + slope*n;
* ``sample_increment`` -- one observation vector from K + 1 standard
  normals, the row that ``sample_block`` draws;
* ``reference_metrics`` -- the error-rate estimates from whole Python
  lists of per-trial proportions and indicators, summed in trial order;
* ``compensated_sum`` -- the built-in ``sum`` of CPython 3.12+, which
  compensates float totals, for checking that no total depends on it;
* ``walk_exact`` -- the mean stopping time and lower-exit probability of
  a Gaussian random walk between two absorbing barriers, the exact
  yardstick for the SPRT and for the K = 2 gap rule;
* ``walk_law`` -- that walk's whole law, P(T = n, exit side) for each n.

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
        return Estimate(sample_mean(kept).value, None) if kept else Estimate(None, None, False)

    return MetricEstimates(
        fwer1=binomial(sum(v >= 1 for v in V), n),
        fwer2=binomial(sum(w >= 1 for w in W), n),
        pics=binomial(sum(v + w > 0 for v, w in zip(V, W)), n),
        fdr=sample_mean(fdp),
        fnr=sample_mean(fnp),
        pfdr=conditional(fdp, [r >= 1 for r in R]),
        pfnr=conditional(fnp, [r < K for r in R]),
    )


def compensated_sum(values, start=0):
    """The built-in ``sum`` of CPython 3.12+: ints add exactly; once the total is a float,
    each float is added with a Neumaier compensation, which is added to the total at the end."""
    total, compensation = start, 0.0
    for x in values:
        if not isinstance(total, float) or not isinstance(x, float):
            total += x
            continue
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def _walk_nodes(lo, hi, drift, sd, nodes):
    """Gauss-Legendre nodes y on (lo, hi), the weighted kernel x -> k(x, y_j) * w_j of one
    N(drift, sd**2) step, one row per start in x, and x -> the probabilities that one step
    from x lands at or below lo and at or above hi."""
    import numpy as np

    t, w = np.polynomial.legendre.leggauss(nodes)
    half = (hi - lo) / 2.0
    y, w = lo + half * (t + 1.0), half * w

    def weighted_kernel(x):
        z = (y - np.asarray(x)[..., None] - drift) / sd
        return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi)) * w

    def exits(x):
        scale = sd * math.sqrt(2.0)
        return 0.5 * math.erfc((x + drift - lo) / scale), 0.5 * math.erfc((hi - x - drift) / scale)

    return y, weighted_kernel, exits


def walk_exact(lo, hi, drift, sd, nodes=200):
    """``(E[T], P(lower exit))`` of the walk from 0 with N(drift, sd**2) steps that stops at
    the first T with S_T <= lo or S_T >= hi (lo < 0 < hi).

    From a start x in (lo, hi), both solve Fredholm equations of the second kind,

        u(x) = 1 + integral of k(x, y) u(y) dy over (lo, hi),
        p(x) = Phi((lo - x - drift) / sd) + integral of k(x, y) p(y) dy,

    with k(x, y) = phi((y - x - drift) / sd) / sd.  Nystrom's method solves them at
    Gauss-Legendre nodes, and its interpolant reads them at x = 0.  No overshoot is
    dropped, so E[T] exceeds Wald's approximation.
    """
    import numpy as np

    y, weighted_kernel, exits = _walk_nodes(lo, hi, drift, sd, nodes)
    forced = np.column_stack([np.ones(nodes), [exits(x)[0] for x in y]])
    u, p = np.linalg.solve(np.eye(nodes) - weighted_kernel(y), forced).T
    row = weighted_kernel(0.0)
    return 1.0 + float(row @ u), exits(0.0)[0] + float(row @ p)


def walk_law(lo, hi, drift, sd, nmax, nodes=400):
    """The joint law of ``walk_exact``'s stopping time and exit side: entry n - 1 of the list
    is ``(P(T = n, S_T <= lo), P(T = n, S_T >= hi))``, for n = 1..nmax.

    The forward recursion on the same nodes carries f_n, the density of S_n on the paths that
    have not stopped by step n:

        f_1(y) = k(0, y),   f_{n+1}(y) = integral of f_n(x) k(x, y) dx over (lo, hi),
        P(T = n + 1, lower) = integral of f_n(x) Phi((lo - x - drift) / sd) dx,

    and the upper side likewise.  Summed over n, it gives ``walk_exact``'s values.
    """
    import numpy as np

    y, weighted_kernel, exits = _walk_nodes(lo, hi, drift, sd, nodes)
    step, (lower, upper) = weighted_kernel(y), np.array([exits(x) for x in y]).T
    law, alive = [exits(0.0)], weighted_kernel(0.0)  # f_n(y_j) * w_j
    for _ in range(nmax - 1):
        law.append((float(alive @ lower), float(alive @ upper)))
        alive = alive @ step
    return law
