"""Deterministic, parallelizable replication harness with one trial loop.

Every trial owns a counter-based generator (numpy Philox) keyed by a
SplitMix64 mix of (master_seed, trial_index), so results are independent
of scheduling and worker count.  One loop runs every trial, for the rules
and for the SPRT (a one-stream source: its signal set is empty under h0
and {1} under h1, and ``run_sprt`` returns ``(stopping_time, rejected)``
as a rule trial does, with {1} on a rejection of the null).  Per chunk of
trials the loop rekeys one generator, resolves the horizon once and scores
each distinct rejected set once.  Blocks of draws consume the random stream
exactly as single steps would, so their sizes are free: a trial's first
block is sized from the chunk's mean stopping time so far, later blocks
are ``_BLOCK`` rows.  A rule trial draws no row past its horizon, and
fewer rows a block when K is so large that a block would hold over 2**16
draws; the SPRT's source is unbounded, and ``run_sprt`` alone stops it
at the horizon.  A chunk returns columns (T, V, W, R, truncated) in
trial-index order, 6 B per trial for K < 256 and a horizon below 65536,
which are all the summary, the SPRT's error rate and the trial dump read.

``workers=N`` runs on at most N processes, this one included: it runs
chunks itself beside N - 1 forked workers, which it feeds chunk starts
over pipes.  Chunks are sized for N processes, and each chunk's columns
land by trial index, so the results are those of a serial run.  Only a
run that forks workers imports ``multiprocessing``; none starts a thread.

A trial returns ``(stopping_time, rejected)``, with ``rejected`` None when
the horizon cap cut it off; ``run_trial`` returns that pair as a
``TrialResult``.  The loop scores a truncated trial as maximally wrong:
its rejected set is the complement of the signal set, which drives every
error indicator and proportion to 1 and keeps the confusion identities
exact.  Over 5% truncations flag an experiment unreliable.

``ExperimentSpec`` and the names that check and calibrate it live in
``seqgap.config``, which loads no numpy; they are re-exported here.
"""

from __future__ import annotations

import contextlib
import math
import os
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable, Literal, NamedTuple, Sequence, TypeAlias

import numpy as np

from .config import (
    _MASK64,
    GENERATOR_ID,
    ExperimentSpec,
    _run_horizon,
    calibrated_rule,
    sweep_specs,
    theoretical_asymptote,
)
from .metrics import MetricEstimates, aggregate, binomial, confusion, sample_mean
from .model import sample_block, update_stats
from .rules import GapRuleSpec, GiRuleSpec, MaxGapRuleSpec, RuleSpec
from .sprt import REJECT_H0, SprtConfig, asn_asymptotic, run_sprt

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

__all__ = [
    "GENERATOR_ID",
    "ExperimentSpec",
    "ExperimentSummary",
    "GapRuleSpec",
    "GiRuleSpec",
    "MaxGapRuleSpec",
    "RuleSpec",
    "SprtBenchmark",
    "SprtMcResult",
    "SweepPoint",
    "TrialColumns",
    "TrialResult",
    "calibrated_rule",
    "derive_trial_seed",
    "matched_sprt_config",
    "run_experiment",
    "run_experiment_with_trials",
    "run_trial",
    "sprt_benchmark",
    "sprt_error_mc",
    "summarize",
    "sweep",
    "sweep_specs",
    "theoretical_asymptote",
    "trial_generator",
]

_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 64
_MIN_FIRST_BLOCK = 8  # below this, a draw's fixed cost outweighs the rows it saves
_CHUNKS_PER_WORKER = 16
_TRUNCATION_LIMIT = 0.05
_ZERO_WORDS = (0, 0, 0, 0)  # plain ints: the Philox state setter reads them faster than an array


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """SplitMix64 mix of master seed and trial counter.

    For a fixed master seed the map is injective over all 64-bit trial
    indices: the increment constant is odd (so index scaling is a bijection
    mod 2^64) and the SplitMix64 finalizer is a bijection.
    """
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    x = (master_seed + trial_index * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def trial_generator(
    master_seed: int, trial_index: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """Counter-based generator for one trial (see GENERATOR_ID).

    Given a Philox-backed ``rng``, rekey it in place and return it instead
    of building a new generator.  A Philox stream is fully set by its key
    and counter, so with a zero counter and an empty output buffer the
    draws are those of a new generator, whatever ``rng`` drew before.
    """
    key = derive_trial_seed(master_seed, trial_index)
    if rng is None:
        return np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (key, 0)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


class TrialResult(NamedTuple):
    """Stopping time and 1-based rejected set; ``rejected`` is None when the
    horizon cut the trial off."""

    stopping_time: int
    rejected: frozenset[int] | None


def _unsigned(most: int) -> str:
    """The narrowest unsigned ``array`` typecode that holds 0..``most``."""
    return next(code for code in "BHIQ" if most < 256 ** array(code).itemsize)


class TrialColumns(NamedTuple):
    """Per-trial results in trial-index order, one ``array`` column each: the
    stopping time, the confusion counts of the rejected set, and 1 for a
    trial the horizon cut off.

    A stopping time lies in 0..horizon and V, W and R in 0..K: each takes
    the narrowest unsigned typecode that holds its bound (``'B'`` below 256,
    ``'H'`` below 65536, ``'I'`` below 2**32, else ``'Q'``), and ``truncated``
    takes ``'B'``: 6 B per trial for K < 256 and a horizon below 65536.  An
    ``array`` refuses an out-of-range value with ``OverflowError`` rather
    than wrapping it.
    """

    T: array
    V: array
    W: array
    R: array
    truncated: array

    @classmethod
    def zeros(cls, n: int, K: int, horizon: int) -> TrialColumns:
        """``n`` zero trials on ``K`` streams up to ``horizon`` steps, in the widths above."""
        times, counts = _unsigned(horizon), _unsigned(K)
        return cls(*(array(code, [0]) * n for code in (times, counts, counts, counts, "B")))


# (generator, first block size) -> stopping time, rejected set (None if truncated);
# a string, so that importing this module does not load numpy.random
Trial: TypeAlias = "Callable[[np.random.Generator, int], tuple[int, frozenset[int] | None]]"


def _rule_trial(spec: ExperimentSpec, horizon: int) -> Trial:
    params = spec.params
    step, arg = spec.rule.stepper(calibrated_rule(spec), params)
    start = (0, (0.0,) * params.K)
    # a block of K + 1 normals a row becomes Python floats at about 32 bytes
    # each: cap a block at 2**16 of them, which binds only for K > 1023
    most = max(1, min(_BLOCK, 2**16 // (params.K + 1)))

    def trial(rng: np.random.Generator, first_block: int) -> tuple[int, frozenset[int] | None]:
        stats, count = start, min(first_block, most, horizon)
        while count:  # no row is drawn past the horizon
            for row in sample_block(params, rng, count).tolist():
                stats = update_stats(stats, row)
                rejected = step(stats, arg)
                if rejected is not None:
                    return stats[0], rejected
            count = min(most, horizon - stats[0])
        return horizon, None

    return trial


def run_trial(spec: ExperimentSpec, trial_index: int) -> TrialResult:
    """Simulate one trial; pure function of (spec, trial_index)."""
    rng = trial_generator(spec.master_seed, trial_index)
    return TrialResult(*_rule_trial(spec, spec.resolved_horizon_cap())(rng, _BLOCK))


def _run_trials(master_seed: int, start: int, stop: int, make_trial: Callable[[int], Trial], horizon: int,
                signal_set: frozenset[int], K: int) -> TrialColumns:
    """The trial loop: trials ``start`` to ``stop - 1`` as columns, of a trial built for the horizon
    that sizes ``T``, so that no stopping time can outgrow its column."""
    trial = make_trial(horizon)
    columns = TrialColumns.zeros(stop - start, K, horizon)
    T, V, W, R, truncated = columns
    wrong = frozenset(range(1, K + 1)) - signal_set  # a truncated trial's scored set
    scored: dict[frozenset[int], tuple[int, int, int]] = {}
    rng, first_block, steps = None, _BLOCK, 0
    for j in range(stop - start):
        rng = trial_generator(master_seed, start + j, rng)
        n, rejected = trial(rng, first_block)
        if rejected is None:
            rejected = wrong
            truncated[j] = 1
        counts = scored.get(rejected)
        if counts is None:  # V, W, R depend only on the rejected set
            counts = scored[rejected] = confusion(rejected, signal_set, K)
        T[j] = n
        V[j], W[j], R[j] = counts
        # twice the mean stopping time so far covers most trials in one draw
        steps += n
        first_block = min(_BLOCK, max(_MIN_FIRST_BLOCK, math.ceil(2 * steps / (j + 1))))
    return columns


def _run_chunk(spec: ExperimentSpec, start: int, stop: int) -> TrialColumns:
    return _run_trials(spec.master_seed, start, stop, partial(_rule_trial, spec), spec.resolved_horizon_cap(),
                       spec.params.signal_set, spec.params.K)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork workers, so that runs stay serial."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _serve(spec: ExperimentSpec, chunk: int, n: int, conn: Connection) -> None:
    """A worker: send back each chunk start received with the chunk's columns, or with the exception
    that it raised and then run no more; stop at ``None`` or once the invoking process has gone."""
    with contextlib.suppress(EOFError, ConnectionError):  # a broken pipe: the invoking process has gone
        while (start := conn.recv()) is not None:
            try:
                conn.send((start, _run_chunk(spec, start, min(start + chunk, n))))
            except Exception as exc:  # re-raised by the invoking process, which then kills this one
                conn.send((start, exc))
                while True:  # keep the pipe open, so that no send to it fails
                    conn.recv()


def _start_worker(spec: ExperimentSpec, chunk: int, n: int) -> tuple[Connection, BaseProcess]:
    """Fork a worker that serves ``spec``'s chunks; return this process's end of its pipe, and the worker."""
    import signal
    from multiprocessing import get_context, util
    from multiprocessing.connection import Connection, Pipe

    import numpy.random  # noqa: F401  # loaded before the fork, so that the worker shares its pages

    here, there = Pipe()
    util.register_after_fork(here, Connection.close)  # closed in every worker: it breaks when this process dies
    # fork whatever the default start method: the worker gets ``spec`` unpickled and runs the after-fork hooks
    process = get_context("fork").Process(target=_serve, args=(spec, chunk, n, there), daemon=True)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})  # inherited: this process kills the worker
    try:
        process.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    there.close()
    return here, process


def _run_all_trials(spec: ExperimentSpec, workers: int) -> TrialColumns:
    """All trials as columns, on at most ``workers`` processes, this one included.

    Each of the N - 1 workers has a pipe of its own, which breaks only when it dies, and two chunk
    starts in flight, one running and one queued, so that it starts its next chunk without waiting
    for this process to end one.  This process hands out the starts, lowest first, and after each
    of its own chunks takes back the results ready and refills each worker that sent one.  On
    ``gi-k10-parallel`` at 2 CPUs that read 11.47k trials/s against 11.34k for a pool refilled from
    its futures' callbacks (10 alternating pairs, 5 faster; the pool's quartiles 10.83k-11.89k).
    A failed chunk, a dead worker or an interrupt ends the run, and every exit kills the workers.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = spec.replications
    # start no more processes than there are CPUs to run them on or chunks to give them
    workers = min(workers, _usable_cpus())
    # many small chunks keep every process busy until the last ones finish
    chunk = max(_BLOCK, math.ceil(n / (_CHUNKS_PER_WORKER * workers)))
    starts = range(0, n, chunk)
    workers = min(workers, len(starts))
    if workers == 1 or n < 2 * _BLOCK:
        return _run_chunk(spec, 0, n)

    from multiprocessing.connection import wait

    columns = TrialColumns.zeros(n, spec.params.K, spec.resolved_horizon_cap())
    dispenser, placed = iter(starts), []
    pool: dict[Connection, BaseProcess] = {}  # each worker by this process's end of its pipe

    def place(s: int, part: TrialColumns | Exception) -> None:
        if isinstance(part, Exception):
            raise part
        # a slice assignment needs equal typecodes: both sides come from zeros(_, K, horizon)
        for column, values in zip(columns, part):
            column[s:s + len(values)] = values
        placed.append(s)

    try:  # every pipe operation below is on ``conn``
        for _ in range(workers - 1):
            conn, pool[conn] = _start_worker(spec, chunk, n)
        for conn, first in zip([*pool] * 2, dispenser):
            conn.send(first)
        while len(placed) < len(starts):  # a chunk here while any is left, then the results ready
            if (s := next(dispenser, None)) is not None:
                place(s, _run_chunk(spec, s, min(s + chunk, n)))
            for conn in wait(list(pool), None if s is None else 0):
                place(*conn.recv())
                if (more := next(dispenser, None)) is not None:
                    conn.send(more)
        for conn, process in pool.items():  # a worker that ends by itself runs its exit hooks
            conn.send(None)
            process.join()
    except (EOFError, ConnectionError):  # a broken pipe: its worker has gone
        pool[conn].join()
        raise ChildProcessError(f"pid {pool[conn].pid}, exit code {pool[conn].exitcode}") from None
    finally:
        for conn, process in pool.items():
            process.kill()  # a worker already joined is left as it is
            conn.close()
            process.join()
    return columns


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregated estimates plus everything needed to reproduce them."""

    metrics: MetricEstimates
    mean_T: float
    se_T: float
    asymptote: float
    ratio: float
    truncation_count: int
    replications: int
    master_seed: int
    generator_id: str = GENERATOR_ID

    @property
    def reliable(self) -> bool:
        return self.truncation_count <= _TRUNCATION_LIMIT * self.replications


def summarize(spec: ExperimentSpec, trials: TrialColumns) -> ExperimentSummary:
    """Aggregate completed trials (columns in trial-index order) into a summary."""
    time = sample_mean(trials.T)
    asymptote = theoretical_asymptote(spec)
    return ExperimentSummary(
        metrics=aggregate(trials.V, trials.W, trials.R, spec.params.K),
        mean_T=time.value,
        se_T=time.se,
        asymptote=asymptote,
        ratio=time.value / asymptote,
        truncation_count=sum(trials.truncated),
        replications=spec.replications,
        master_seed=spec.master_seed,
    )


def run_experiment_with_trials(
    spec: ExperimentSpec, workers: int = 1
) -> tuple[ExperimentSummary, TrialColumns]:
    """Run all replications and return the summary plus per-trial columns."""
    trials = _run_all_trials(spec, workers)
    return summarize(spec, trials), trials


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentSummary:
    """Run all replications of the spec and aggregate."""
    return run_experiment_with_trials(spec, workers)[0]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a sweep: the varied value, the resolved spec, the summary."""

    value: float
    spec: ExperimentSpec
    summary: ExperimentSummary


def sweep(
    spec_template: ExperimentSpec,
    kind: Literal["alpha", "rho"],
    grid: Sequence[float],
    workers: int = 1,
) -> list[SweepPoint]:
    """Run the template at each grid point of :func:`sweep_specs`, in grid order.

    Every point is checked before any runs.  All points share the
    template's master seed (common random numbers), so cross-point
    comparisons are variance-reduced.
    """
    specs = sweep_specs(spec_template, kind, grid)
    return [
        SweepPoint(value=value, spec=spec, summary=run_experiment(spec, workers))
        for value, spec in zip(grid, specs)
    ]


@dataclass(frozen=True)
class SprtBenchmark:
    """Gap-rule mean sample size against the matched single-pair SPRT yardstick."""

    gap_summary: ExperimentSummary
    sprt_level: float
    sprt_asn: float
    ratio: float


def matched_sprt_config(spec: ExperimentSpec) -> SprtConfig:
    """One-sided SPRT distinguishing a wrongly-ordered pair of streams.

    The pairwise sum difference has mean -mu vs +mu and variance 2*(1-rho)
    per step; the level is min(alpha, beta) split across the m*(K-m)
    signal/noise pairs.
    """
    rule = spec.rule
    if not isinstance(rule, GapRuleSpec):
        raise ValueError(f"SPRT benchmark applies to the gap rule, got kind={rule.kind!r}")
    p = spec.params
    level = min(spec.alpha, spec.beta) / (rule.m * (p.K - rule.m))
    return SprtConfig(theta0=-p.mu, theta1=p.mu, sigma2=2.0 * (1.0 - p.rho), gamma=level, delta=0.0)


def sprt_benchmark(spec: ExperimentSpec, workers: int = 1) -> SprtBenchmark:
    """Ratio of the gap rule's Monte Carlo mean sample size to the SPRT ASN."""
    config = matched_sprt_config(spec)
    asn = asn_asymptotic(config)
    summary = run_experiment(spec, workers)
    return SprtBenchmark(
        gap_summary=summary,
        sprt_level=config.gamma,
        sprt_asn=asn,
        ratio=summary.mean_T / asn,
    )


@dataclass(frozen=True)
class SprtMcResult:
    """Monte Carlo estimates for a single-stream SPRT."""

    mean_T: float
    se_T: float
    error_rate: float
    error_se: float
    truncation_count: int
    replications: int


def _sprt_trial(config: SprtConfig, truth: Literal["h0", "h1"], horizon: int) -> Trial:
    mean = config.theta0 if truth == "h0" else config.theta1
    sd = math.sqrt(config.sigma2)

    def trial(rng: np.random.Generator, first_block: int) -> tuple[int, frozenset[int] | None]:
        draw = lambda count: (mean + sd * rng.standard_normal(count)).tolist()
        sizes = chain((first_block,), repeat(_BLOCK))  # unbounded: ``run_sprt`` alone stops at the horizon
        return run_sprt(config, chain.from_iterable(map(draw, sizes)), horizon)

    return trial


def sprt_error_mc(
    config: SprtConfig,
    truth: Literal["h0", "h1"],
    replications: int,
    master_seed: int,
    horizon_cap: int | None = None,
) -> SprtMcResult:
    """Estimate the SPRT's error rate and mean stopping time by simulation.

    ``truth`` selects the data-generating mean.  The error event is
    rejecting under h0 / accepting under h1; truncated runs count as
    errors (conservative) and are also reported separately.  The runs go
    through the harness's trial loop as one stream whose signal set is
    empty under h0 and {1} under h1, so a run errs exactly when V + W > 0.
    The seed and run size are checked, and the horizon defaults, as for an
    :class:`ExperimentSpec`, with the SPRT's asymptotic mean sample size.
    """
    if truth not in ("h0", "h1"):
        raise ValueError(f"truth must be 'h0' or 'h1', got {truth!r}")
    horizon = _run_horizon(master_seed, replications, horizon_cap, asn_asymptotic(config), draws_per_step=1)
    signal_set = frozenset() if truth == "h0" else REJECT_H0
    trials = _run_trials(master_seed, 0, replications, partial(_sprt_trial, config, truth), horizon, signal_set, 1)
    time = sample_mean(trials.T)
    error = binomial(sum(1 for v, w in zip(trials.V, trials.W) if v or w), replications)  # V + W > 0
    return SprtMcResult(
        mean_T=time.value,
        se_T=time.se,
        error_rate=error.value,
        error_se=error.se,
        truncation_count=sum(trials.truncated),
        replications=replications,
    )
