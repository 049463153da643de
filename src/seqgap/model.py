"""Equicorrelated Gaussian stream model.

K data streams observed one vector per time step.  Each observation vector
is multivariate normal with unit variances, common pairwise correlation
``rho``, and mean ``mu`` on the signal streams and 0 elsewhere.  Sampling
uses the shared-factor decomposition

    X = Z + V * 1,   Z_i ~ N(mu_i, 1 - rho) independent,   V ~ N(0, rho),

which reproduces the equicorrelated covariance exactly and costs K + 1
univariate normals per step.

Stream indices are 1-based everywhere in the public API.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "ObservationBatch",
    "SufficientStats",
    "combine_latents",
    "gap_statistic",
    "llr_star",
    "ordered_sums",
    "sample_block",
    "sample_increment",
    "update_stats",
    "validate_params",
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
        validate_params(self)
        # not a field: equality, hashing and repr stay those of the four fields
        mean_row = self.mean_vector()
        mean_row.flags.writeable = False
        object.__setattr__(self, "_mean_row", mean_row)

    def mean_vector(self) -> np.ndarray:
        """Per-stream means: mu on signal streams, 0 on noise streams."""
        out = np.zeros(self.K)
        for i in self.signal_set:
            out[i - 1] = self.mu
        return out


def validate_params(params: ModelParams) -> ModelParams:
    """Check all model invariants; return ``params`` unchanged if they hold."""
    if params.K < 2:
        raise ValueError(f"K must be >= 2, got {params.K}")
    if not 0.0 <= params.rho < 1.0:
        raise ValueError(f"rho out of range [0, 1): {params.rho}")
    if not params.mu > 0.0:
        raise ValueError(f"mu must be > 0, got {params.mu}")
    if not params.signal_set <= frozenset(range(1, params.K + 1)):
        bad = sorted(params.signal_set - frozenset(range(1, params.K + 1)))
        raise ValueError(f"signal_set contains streams outside 1..{params.K}: {bad}")
    return params


@dataclass(frozen=True)
class ObservationBatch:
    """One time step of observations, X_1..X_K."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


@dataclass(frozen=True)
class SufficientStats:
    """Time index n and per-stream cumulative sums S_1..S_K."""

    n: int
    sums: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"time index must be >= 0, got {self.n}")
        object.__setattr__(self, "sums", tuple(float(s) for s in self.sums))

    @classmethod
    def initial(cls, K: int) -> SufficientStats:
        return cls(0, (0.0,) * K)

    @classmethod
    def _trusted(cls, n: int, sums: tuple[float, ...]) -> SufficientStats:
        """Build without ``__post_init__``: the caller guarantees n >= 0 and float sums."""
        stats = object.__new__(cls)
        stats.__dict__.update(n=n, sums=sums)
        return stats

    @property
    def K(self) -> int:
        return len(self.sums)


def combine_latents(z: Sequence[float], v: float) -> ObservationBatch:
    """Add the shared factor: values[i] = z[i] + v."""
    return ObservationBatch(tuple(zi + v for zi in z))


def sample_increment(params: ModelParams, rng: np.random.Generator) -> ObservationBatch:
    """Draw one observation vector from the equicorrelated model.

    Consumes exactly K + 1 standard normals from ``rng``: K idiosyncratic
    terms first, then the shared factor.  ``sample_block`` draws the same
    stream, so block and single-step sampling are interchangeable.
    """
    eps = rng.standard_normal(params.K + 1)
    z = params.mean_vector() + math.sqrt(1.0 - params.rho) * eps[: params.K]
    v = math.sqrt(params.rho) * eps[params.K]
    return combine_latents(z.tolist(), float(v))


def sample_block(params: ModelParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` consecutive observation vectors as a (count, K) array.

    Identical to ``count`` calls of :func:`sample_increment` on the same
    generator state: the standard-normal stream is consumed row by row in
    the same (K idiosyncratic, 1 shared) order.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    eps = rng.standard_normal((count, params.K + 1))
    z = params._mean_row + math.sqrt(1.0 - params.rho) * eps[:, : params.K]
    return z + math.sqrt(params.rho) * eps[:, params.K :]


def update_stats(stats: SufficientStats, obs: ObservationBatch | Iterable[float]) -> SufficientStats:
    """Fold one observation vector of real numbers into the cumulative sums.

    The sums are floats and a float plus a real number is a float, so the
    result skips the public constructor's re-validation.  A list or tuple
    row is read as it is; any other iterable is copied once.
    """
    if isinstance(obs, ObservationBatch):
        values = obs.values
    elif isinstance(obs, (list, tuple)):
        values = obs
    else:
        values = tuple(obs)
    if len(values) != len(stats.sums):
        raise ValueError(f"observation length {len(values)} != K={stats.K}")
    return SufficientStats._trusted(stats.n + 1, tuple(map(operator.add, stats.sums, values)))


def ordered_sums(stats: SufficientStats) -> list[tuple[int, float]]:
    """(stream, sum) pairs sorted by sum descending, ties by ascending stream.

    The fixed tie rule makes decisions reproducible under floating-point
    ties, which have probability zero in the model but do occur in tests.
    Python's sort is stable under ``reverse=True``, so equal sums keep
    their ascending stream order.
    """
    sums = stats.sums
    order = sorted(range(len(sums)), key=sums.__getitem__, reverse=True)
    return [(i + 1, sums[i]) for i in order]


def gap_statistic(stats: SufficientStats, k: int) -> float:
    """Gap between the k-th and (k+1)-th largest cumulative sums; always >= 0."""
    if not 1 <= k <= stats.K - 1:
        raise ValueError(f"gap index must be in 1..{stats.K - 1}, got {k}")
    ranked = ordered_sums(stats)
    return ranked[k - 1][1] - ranked[k][1]


def llr_star(stats: SufficientStats, i: int, params: ModelParams) -> float:
    """Per-stream log-likelihood ratio proxy mu/(1-rho) * (S_i - n*mu/2).

    The exact statistic would use the idiosyncratic (shared-factor-free)
    sums, which are unobservable; the observable S_i substitutes for them.
    Pairwise differences of the two versions agree in distribution, and the
    stopping rules depend on differences only.
    """
    sums = stats.sums
    if not 1 <= i <= len(sums):
        raise ValueError(f"stream index must be in 1..{len(sums)}, got {i}")
    return params.mu / (1.0 - params.rho) * (sums[i - 1] - stats.n * params.mu / 2.0)
