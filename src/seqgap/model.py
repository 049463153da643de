"""Equicorrelated Gaussian stream model.

K data streams observed one vector per time step.  Each observation vector
is multivariate normal with unit variances, common pairwise correlation
``rho``, and mean ``mu`` on the signal streams and 0 elsewhere.  Sampling
uses the shared-factor decomposition

    X = Z + V * 1,   Z_i ~ N(mu_i, 1 - rho) independent,   V ~ N(0, rho),

which reproduces the equicorrelated covariance exactly and costs K + 1
univariate normals per step.

Stream indices are 1-based everywhere in the public API.

Building a ``ModelParams`` loads no numpy and costs O(|signal_set|), not
O(K), so parsing and calibrating a config stay cheap at any K.  The
read-only ``(scale_row, mean_row)`` pair that ``sample_block`` reads is
built on its first call for each params object and attached to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, itemgetter
from typing import TYPE_CHECKING, Iterable, TypeAlias

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ModelParams",
    "SufficientStats",
    "gap_statistic",
    "llr_star",
    "ordered_sums",
    "sample_block",
    "sample_increment",
    "update_stats",
]


@dataclass(frozen=True)
class ModelParams:
    """Generative model: stream count, common correlation, signal mean, signal set."""

    K: int
    rho: float
    mu: float
    signal_set: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "signal_set", frozenset(int(i) for i in self.signal_set))
        if self.K < 2:
            raise ValueError(f"K must be >= 2, got {self.K}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho out of range [0, 1): {self.rho}")
        if not self.mu > 0.0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        bad = sorted(i for i in self.signal_set if not 1 <= i <= self.K)
        if bad:
            raise ValueError(f"signal_set contains streams outside 1..{self.K}: {bad}")
        # not a field: equality, hashing and repr stay those of the four fields
        object.__setattr__(self, "_llr_scale", self.mu / (1.0 - self.rho))

    def __reduce__(self):
        # rebuild from the fields: the rows of _block_rows would come back writeable
        return ModelParams, (self.K, self.rho, self.mu, self.signal_set)

    def mean_vector(self) -> np.ndarray:
        """Per-stream means: mu on signal streams, 0 on noise streams."""
        import numpy as np

        out = np.zeros(self.K)
        for i in self.signal_set:
            out[i - 1] = self.mu
        return out


# What every rule reads: the time index n and the per-stream cumulative
# sums S_1..S_K, as a bare ``(n, sums)`` tuple that ``update_stats``
# builds once per step.
SufficientStats: TypeAlias = tuple[int, tuple[float, ...]]


def sample_increment(params: ModelParams, rng: np.random.Generator) -> tuple[float, ...]:
    """Draw one observation vector from the equicorrelated model.

    Consumes exactly K + 1 standard normals from ``rng``: K idiosyncratic
    terms first, then the shared factor, which is added to each.  This is
    the reference that ``sample_block`` reproduces bit for bit, so block
    and single-step sampling are interchangeable.
    """
    eps = rng.standard_normal(params.K + 1)
    z = params.mean_vector() + math.sqrt(1.0 - params.rho) * eps[: params.K]
    v = float(math.sqrt(params.rho) * eps[params.K])
    return tuple(zi + v for zi in z.tolist())


def sample_block(params: ModelParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` consecutive observation vectors as a (count, K) array.

    Identical to ``count`` calls of :func:`sample_increment` on the same
    generator state: the standard-normal stream is consumed row by row in
    the same (K idiosyncratic, 1 shared) order.  The draws are scaled in
    place by the cached ``(sqrt(1-rho),) * K + (sqrt(rho),)`` row; the
    products are those of ``sample_increment`` and float addition commutes,
    so every row is bit-identical.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    try:
        scale_row, mean_row = params._block_rows
    except AttributeError:
        scale_row, mean_row = _build_block_rows(params)
    K = params.K
    eps = rng.standard_normal((count, K + 1))
    eps *= scale_row
    z = eps[:, :K]
    z += mean_row
    return z + eps[:, K:]


def _build_block_rows(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Build the params' read-only (scale_row, mean_row) pair and attach it.

    The scale row is sqrt(1 - rho) for the K idiosyncratic terms, then
    sqrt(rho) for the shared one.  The pair is attached with
    ``object.__setattr__``, not by ``functools.cached_property``: on
    CPython 3.11 a write to the instance ``__dict__`` slows every later
    attribute read on the object, ``_llr_scale`` included.
    """
    import numpy as np

    scale_row = np.full(params.K + 1, math.sqrt(1.0 - params.rho))
    scale_row[params.K] = math.sqrt(params.rho)
    mean_row = params.mean_vector()
    scale_row.flags.writeable = mean_row.flags.writeable = False
    rows = scale_row, mean_row
    object.__setattr__(params, "_block_rows", rows)
    return rows


def update_stats(stats: SufficientStats, obs: Iterable[float]) -> SufficientStats:
    """Fold one observation vector of real numbers into ``(n, sums)``.

    Returns ``(n + 1, sums + obs)``.  A list or tuple row is read as it
    is; any other iterable is copied once.
    """
    if isinstance(obs, (list, tuple)):
        values = obs
    else:
        values = tuple(obs)
    n, sums = stats
    if len(values) != len(sums):
        raise ValueError(f"observation length {len(values)} != K={len(sums)}")
    return n + 1, tuple(map(add, sums, values))


_SUM = itemgetter(1)


def ordered_sums(stats: SufficientStats) -> list[tuple[int, float]]:
    """(stream, sum) pairs sorted by sum descending, ties by ascending stream.

    This is the reference for the tie rule; the rule steps are not built
    on it (they sort the bare sums).  The fixed tie rule makes decisions
    reproducible under floating-point ties, which have probability zero in
    the model but do occur in tests.  The pairs are built in stream order
    and sorted once by sum; Python's sort is stable under ``reverse=True``,
    so equal sums keep their ascending stream order.
    """
    _, sums = stats
    return sorted(enumerate(sums, 1), key=_SUM, reverse=True)


def gap_statistic(stats: SufficientStats, k: int) -> float:
    """Gap between the k-th and (k+1)-th largest cumulative sums; always >= 0."""
    _, sums = stats
    if not 1 <= k < len(sums):
        raise ValueError(f"gap index must be in 1..{len(sums) - 1}, got {k}")
    ranked = ordered_sums(stats)
    return ranked[k - 1][1] - ranked[k][1]


def llr_star(stats: SufficientStats, i: int, params: ModelParams) -> float:
    """Per-stream log-likelihood ratio proxy mu/(1-rho) * (S_i - n*mu/2).

    The exact statistic would use the idiosyncratic (shared-factor-free)
    sums, which are unobservable; the observable S_i substitutes for them.
    Pairwise differences of the two versions agree in distribution, and the
    stopping rules depend on differences only.  The factor mu/(1-rho) is
    computed once, when the params are built.
    """
    n, sums = stats
    if not 1 <= i <= len(sums):
        raise ValueError(f"stream index must be in 1..{len(sums)}, got {i}")
    return params._llr_scale * (sums[i - 1] - n * params.mu / 2.0)
