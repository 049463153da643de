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
from operator import add
from typing import TYPE_CHECKING, Iterable, TypeAlias

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ModelParams",
    "SufficientStats",
    "llr_star",
    "sample_block",
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


def sample_block(params: ModelParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` consecutive observation vectors as a (count, K) array.

    Each row consumes K + 1 standard normals from ``rng``: K idiosyncratic
    terms first, then the shared factor.  Row t is
    ``(mean + sqrt(1-rho) * eps[t, :K]) + sqrt(rho) * eps[t, K]``, with the
    draws scaled in place by the cached ``(sqrt(1-rho),) * K + (sqrt(rho),)``
    row.  The normals are consumed row by row, so a block of ``count`` rows
    equals the same rows drawn in smaller blocks.
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


def llr_star(stats: SufficientStats, i: int, params: ModelParams) -> float:
    """Per-stream log-likelihood ratio proxy mu/(1-rho) * (S_i - n*mu/2).

    The exact statistic would use the idiosyncratic (shared-factor-free)
    sums, which are unobservable; the observable S_i substitutes for them.
    Pairwise differences of the two versions agree in distribution, but the
    single values do not: ``gi_rule_step`` compares single llrs with -a and
    b, so at rho > 0 the shared factor moves GI's decisions, which is why GI
    is refused there unless ``experimental_correlated`` is set.  The factor
    mu/(1-rho) is computed once, when the params are built.
    """
    n, sums = stats
    if not 1 <= i <= len(sums):
        raise ValueError(f"stream index must be in 1..{len(sums)}, got {i}")
    return params._llr_scale * (sums[i - 1] - n * params.mu / 2.0)
