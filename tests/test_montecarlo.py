import math
import os
import sys
import threading
import time
from array import array
from multiprocessing.connection import Pipe
from types import SimpleNamespace

import numpy as np
import pytest

import seqgap.montecarlo as montecarlo
from seqgap.model import ModelParams
from seqgap.montecarlo import (
    ExperimentSpec,
    GapRuleSpec,
    GiRuleSpec,
    MaxGapRuleSpec,
    TrialColumns,
    TrialResult,
    derive_trial_seed,
    matched_sprt_config,
    run_experiment,
    run_experiment_with_trials,
    run_trial,
    sprt_benchmark,
    sprt_error_mc,
    summarize,
    sweep,
    theoretical_asymptote,
    trial_generator,
)
from seqgap.metrics import confusion
from seqgap.rules import RULE_KINDS
from seqgap.sprt import SprtConfig, asn_asymptotic


def gap_spec(alpha=0.01, beta=None, rho=0.5, reps=200, seed=1234, K=4, m=2, **kwargs):
    return ExperimentSpec(
        params=ModelParams(K=K, rho=rho, mu=1.0, signal_set=frozenset(range(1, m + 1))),
        rule=GapRuleSpec(m=m),
        alpha=alpha,
        beta=alpha if beta is None else beta,
        replications=reps,
        master_seed=seed,
        **kwargs,
    )


# one model and rule per kind; GI on correlated streams, as the CLI allows
KIND_EXAMPLES = {
    "gap": (ModelParams(K=4, rho=0.5, mu=1.0, signal_set=frozenset({1, 2})), GapRuleSpec(m=2)),
    "maxgap": (
        ModelParams(K=5, rho=0.5, mu=1.0, signal_set=frozenset({2, 4})),
        MaxGapRuleSpec(l=1, u=3),
    ),
    "gi": (
        ModelParams(K=5, rho=0.3, mu=1.0, signal_set=frozenset({1, 5})),
        GiRuleSpec(l=1, u=3, experimental_correlated=True),
    ),
}


def kind_spec(kind, reps):
    params, rule = KIND_EXAMPLES[kind]
    return ExperimentSpec(
        params=params, rule=rule, alpha=0.01, beta=0.01, replications=reps, master_seed=1234
    )


# ------------------------------------------------------------- trial seeds


def test_seed_matches_published_mix_vector():
    # state 0 advanced once and finalized, from the SplitMix64 reference tests
    assert derive_trial_seed(0, 1) == 0xE220A8397B1DCDAF
    assert derive_trial_seed(0, 0) == 0


def test_seed_rejects_negative_index():
    with pytest.raises(ValueError, match="trial_index"):
        derive_trial_seed(0, -1)


def test_seed_injective_over_many_trials():
    seeds = {derive_trial_seed(987654321, i) for i in range(10**6)}
    assert len(seeds) == 10**6


def test_seed_streams_disjoint_across_masters():
    a = {derive_trial_seed(2**40, i) for i in range(10**4)}
    b = {derive_trial_seed(2**40 + 1, i) for i in range(10**4)}
    assert not a & b


def test_the_normal_stream_is_pinned():
    """``GENERATOR_ID`` names Philox and the key mix, not numpy's normal sampler, which numpy
    does not promise to keep across versions: a numpy whose sampler differs fails here, by
    name, rather than only through the report hashes."""
    got = [repr(x) for x in trial_generator(0, 0).standard_normal(4).tolist()]
    assert got == ["0.15929546600623282", "-1.7741885208017214", "1.3265118818830892", "1.2048090979493156"], (
        f"numpy {np.__version__}: the standard_normal stream of trial_generator(0, 0) is not the pinned one")


def _draws(rng):
    normals = [rng.standard_normal(shape) for shape in ((1,), (3, 5), (7,), (2, 11))]
    return normals, rng.integers(0, 2**32, dtype=np.uint32)


@pytest.mark.parametrize("master_seed", [0, 1, 2**64 - 1])
def test_rekeyed_generator_draws_like_a_new_one(master_seed):
    # leave one generator with a part-used output buffer, the other with a
    # held-back half word; rekeying must discard both
    part_used = np.random.Generator(np.random.Philox(key=7))
    part_used.standard_normal(3)
    assert part_used.bit_generator.state["buffer_pos"] < 4
    half_word = np.random.Generator(np.random.Philox(key=8))
    half_word.integers(0, 10, dtype=np.uint32)
    assert half_word.bit_generator.state["has_uint32"] == 1
    for i in range(2000):
        want_normals, want_u32 = _draws(trial_generator(master_seed, i))
        for rng in (part_used, half_word):
            assert trial_generator(master_seed, i, rng) is rng
            normals, u32 = _draws(rng)
            assert u32 == want_u32
            for got, want in zip(normals, want_normals):
                np.testing.assert_array_equal(got, want)


# -------------------------------------------------------- spec validation


def test_spec_rejects_signal_count_mismatch():
    with pytest.raises(ValueError, match="m=2 signals"):
        ExperimentSpec(
            params=ModelParams(K=4, rho=0.0, mu=1.0, signal_set=frozenset({1})),
            rule=GapRuleSpec(m=2), alpha=0.01, beta=0.01,
            replications=10, master_seed=0,
        )
    with pytest.raises(ValueError, match="l < .signals. < u"):
        ExperimentSpec(
            params=ModelParams(K=5, rho=0.0, mu=1.0, signal_set=frozenset({1})),
            rule=MaxGapRuleSpec(l=1, u=3), alpha=0.01, beta=0.01,
            replications=10, master_seed=0,
        )


def test_spec_gates_correlated_gi():
    kwargs = dict(
        params=ModelParams(K=5, rho=0.5, mu=1.0, signal_set=frozenset({1, 2})),
        alpha=0.01, beta=0.01, replications=10, master_seed=0,
    )
    with pytest.raises(ValueError, match="independent streams"):
        ExperimentSpec(rule=GiRuleSpec(l=1, u=3), **kwargs)
    spec = ExperimentSpec(rule=GiRuleSpec(l=1, u=3, experimental_correlated=True), **kwargs)
    assert spec.rule.experimental_correlated


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(reps=0), "replications"),
        (dict(seed=-1), "master_seed"),
        (dict(seed=2**64), "master_seed"),
        (dict(horizon_cap=0), "horizon_cap"),
    ],
)
def test_spec_bounds(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        gap_spec(**kwargs)


# ------------------------------------------------------------- asymptotes


def test_theoretical_asymptote_frozen_values():
    assert theoretical_asymptote(gap_spec(alpha=1e-2)) == pytest.approx(2.302585, abs=1e-6)
    assert theoretical_asymptote(gap_spec(alpha=1e-8)) == pytest.approx(9.210340, abs=1e-6)
    maxgap = ExperimentSpec(
        params=ModelParams(K=5, rho=0.5, mu=1.0, signal_set=frozenset({1, 2})),
        rule=MaxGapRuleSpec(l=1, u=3), alpha=1e-2, beta=1e-2,
        replications=10, master_seed=0,
    )
    assert theoretical_asymptote(maxgap) == pytest.approx(2 * 2.302585, abs=2e-6)


def test_asymptote_uses_smaller_level():
    assert theoretical_asymptote(gap_spec(alpha=1e-4, beta=1e-2)) == theoretical_asymptote(
        gap_spec(alpha=1e-4)
    )


def test_gap_asymptote_at_rho_zero_equals_gi_baseline():
    gap = gap_spec(alpha=1e-3, rho=0.0, K=5, m=2)
    gi = ExperimentSpec(
        params=ModelParams(K=5, rho=0.0, mu=1.0, signal_set=frozenset({1, 2})),
        rule=GiRuleSpec(l=1, u=3), alpha=1e-3, beta=1e-3,
        replications=10, master_seed=0,
    )
    assert theoretical_asymptote(gap) == theoretical_asymptote(gi)


def test_default_horizon_cap():
    assert gap_spec(alpha=0.01).resolved_horizon_cap() == 1000  # floor dominates
    big = gap_spec(alpha=1e-12, rho=0.0)
    assert 50 * theoretical_asymptote(big) > 1000  # floor does not mask the scaling
    assert big.resolved_horizon_cap() == math.ceil(50 * theoretical_asymptote(big))
    assert gap_spec(horizon_cap=77).resolved_horizon_cap() == 77


def _refuse_trials(*args, **kwargs):
    raise AssertionError("a trial ran although the run size is refused")


@pytest.mark.parametrize("seed, reps, horizon_cap, fragment", [
    (0, 10**4, None, "worst case 10000 replications x "),
    (0, 10, 0, "horizon_cap must be >= 1, got 0"),
    (0, 0, None, "replications must be >= 1, got 0"),
    (-1, 10, 5, "master_seed must be an unsigned 64-bit integer, got -1"),
    (2**64, 10, 5, f"master_seed must be an unsigned 64-bit integer, got {2**64}"),
], ids=["worst-case", "horizon", "replications", "seed-negative", "seed-too-large"])
def test_sprt_error_mc_checks_the_run_size_before_any_trial(monkeypatch, seed, reps, horizon_cap, fragment):
    """The SPRT's runs are seeded, sized and refused as an ExperimentSpec's are."""
    monkeypatch.setattr(montecarlo, "_run_trials", _refuse_trials)
    config = SprtConfig(0.0, 1e-3, 1.0, 0.01, 0.01)  # a default horizon of 50 x 9.2e6 steps
    with pytest.raises(ValueError) as info:
        sprt_error_mc(config, "h1", reps, seed, horizon_cap=horizon_cap)
    message = str(info.value)
    assert message.startswith(fragment) and "\n" not in message
    if horizon_cap is None and reps > 0:
        horizon = math.ceil(50 * asn_asymptotic(config))
        assert message == (f"worst case {reps} replications x {horizon} steps = {reps * horizon} steps "
                           "exceeds the limit of 10000000000 steps")


@pytest.mark.parametrize("K, first_block, horizon, counts", [
    (4, 8, 150, [8, 64, 64, 14]),
    (4, 8, 5, [5]),
    (4, 64, 128, [64, 64]),
    (2000, 8, 100, [8, 32, 32, 28]),  # 32 rows of K + 1 normals: at most 2**16 draws a block
    (2000, 64, 40, [32, 8]),
])
def test_a_rule_trial_draws_no_row_past_its_horizon(monkeypatch, K, first_block, horizon, counts):
    """A trial whose step never stops asks ``sample_block`` for its first block, then for at most
    64 rows at a time, ``horizon`` rows in all."""
    drawn, sample_block = [], montecarlo.sample_block

    def recording(params, rng, count):
        drawn.append(count)
        return sample_block(params, rng, count)

    monkeypatch.setattr(montecarlo, "sample_block", recording)
    monkeypatch.setattr(GapRuleSpec, "stepper", lambda self, cfg, params: (lambda stats, arg: None, None))
    trial = montecarlo._rule_trial(gap_spec(K=K), horizon)
    assert trial(trial_generator(1, 0), first_block) == (horizon, None)
    assert drawn == counts


class ZeroNormals:
    """A generator stand-in whose normals are all 0; it records the sizes asked of it."""

    def __init__(self):
        self.sizes = []

    def standard_normal(self, count):
        self.sizes.append(count)
        return np.zeros(count)


@pytest.mark.parametrize("first_block, horizon, sizes", [
    (8, 150, [8, 64, 64, 64]),
    (8, 5, [8]),
    (64, 64, [64]),
    (64, 65, [64, 64]),
])
def test_an_sprt_trial_draws_its_first_block_then_64_at_a_time(first_block, horizon, sizes):
    """The source is unbounded, so the sizes do not depend on the horizon; ``run_sprt`` stops
    the run there.  One-sided under h0 with no noise, the statistic falls by 1 a step and never
    reaches a boundary."""
    config = SprtConfig(-1.0, 1.0, 1.0, 0.01, 0.0)
    rng = ZeroNormals()
    assert montecarlo._sprt_trial(config, "h0", horizon)(rng, first_block) == (horizon, None)
    assert rng.sizes == sizes


# ----------------------------------------------------------------- trials


def test_trial_is_pure_function_of_spec_and_index():
    spec = gap_spec()
    assert run_trial(spec, 3) == run_trial(spec, 3)
    assert run_trial(spec, 3) != run_trial(spec, 4)


def test_gap_trial_rejects_exactly_m():
    spec = gap_spec(reps=50)
    for i in range(50):
        trial = run_trial(spec, i)
        assert trial.rejected is not None
        assert len(trial.rejected) == 2
        assert 1 <= trial.stopping_time <= spec.resolved_horizon_cap()


def test_maxgap_trial_rejection_counts_within_bounds():
    spec = ExperimentSpec(
        params=ModelParams(K=5, rho=0.5, mu=1.0, signal_set=frozenset({1, 2})),
        rule=MaxGapRuleSpec(l=1, u=3), alpha=0.05, beta=0.05,
        replications=30, master_seed=42,
    )
    for i in range(30):
        trial = run_trial(spec, i)
        assert trial.rejected is None or 1 < len(trial.rejected) < 3


def test_gi_trial_runs_at_rho_zero():
    spec = ExperimentSpec(
        params=ModelParams(K=5, rho=0.0, mu=1.0, signal_set=frozenset({1, 2})),
        rule=GiRuleSpec(l=1, u=3), alpha=0.05, beta=0.05,
        replications=30, master_seed=42,
    )
    for i in range(30):
        trial = run_trial(spec, i)
        assert trial.rejected is None or 1 <= len(trial.rejected) <= 3


def _columns(outcomes, signal_set, K):
    """Columns of (stopping time, rejected set or None if truncated) pairs, scored one by one."""
    wrong = frozenset(range(1, K + 1)) - signal_set
    rows = []
    for n, rejected in outcomes:
        v, w, r = confusion(wrong if rejected is None else rejected, signal_set, K)
        rows.append((n, v, w, r, rejected is None))
    return TrialColumns(*(array("q", column) for column in zip(*rows)))


@pytest.mark.parametrize("K, width", [(1, "B"), (255, "B"), (256, "H"), (65535, "H"), (65536, "I")])
def test_count_columns_take_the_narrowest_width_that_holds_K(K, width):
    columns = TrialColumns.zeros(2, K, 10**10)  # a horizon may exceed 2**32
    assert [column.typecode for column in columns] == ["Q", width, width, width, "B"]
    assert columns == TrialColumns(*(array("q", [0, 0]) for _ in TrialColumns._fields))
    columns.T[0] = 10**10
    for column in (columns.V, columns.W, columns.R):
        column[0] = K
        assert column[0] == K
        with pytest.raises(OverflowError):  # refused, never wrapped
            column[1] = 256 ** column.itemsize
    assert columns.T[0] == 10**10


@pytest.mark.parametrize("horizon, width", [
    (1, "B"), (255, "B"), (256, "H"), (65535, "H"), (65536, "I"), (2**32 - 1, "I"), (10**10, "Q"),
])
def test_stopping_times_take_the_narrowest_width_that_holds_the_horizon(horizon, width):
    columns = TrialColumns.zeros(2, 4, horizon)
    assert [column.typecode for column in columns] == [width, "B", "B", "B", "B"]
    assert columns == TrialColumns(*(array("q", [0, 0]) for _ in TrialColumns._fields))
    columns.T[0] = horizon  # a truncated trial stops at the horizon
    assert columns.T[0] == horizon
    for wrong in (256 ** columns.T.itemsize, -1):
        with pytest.raises(OverflowError):  # refused, never wrapped
            columns.T[1] = wrong
    assert columns.T[1] == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_a_runs_stopping_times_take_its_horizons_width(workers):
    for horizon, width in ((255, "B"), (256, "H")):
        spec = gap_spec(reps=300, horizon_cap=horizon)
        summary, trials = run_experiment_with_trials(spec, workers=workers)
        assert trials.T.typecode == width
        assert summary == run_experiment_with_trials(spec)[0]
    make_trial = lambda horizon: montecarlo._sprt_trial(SPRT_CONFIG, "h1", horizon)
    trials = montecarlo._run_trials(1234, 0, 10, make_trial, 300, frozenset({1}), 1)
    assert [column.typecode for column in trials] == ["H", "B", "B", "B", "B"]


SPRT_CONFIG = SprtConfig(0.0, 1.0, 1.0, 0.01, 0.01)


def _trial_source(kind, reps):
    """Master seed, trial function for a given horizon, default horizon, signal set and K."""
    if kind == "sprt":  # the one-stream source, under h1
        make = lambda horizon: montecarlo._sprt_trial(SPRT_CONFIG, "h1", horizon)
        return 1234, make, 1000, frozenset({1}), 1
    spec = kind_spec(kind, reps)
    make = lambda horizon: montecarlo._rule_trial(spec, horizon)
    return spec.master_seed, make, spec.resolved_horizon_cap(), spec.params.signal_set, spec.params.K


@pytest.mark.parametrize("kind", sorted(RULE_KINDS) + ["sprt"])
def test_trial_result_does_not_depend_on_block_schedule(kind):
    reps = 60
    seed, make_trial, default_horizon, signal_set, K = _trial_source(kind, reps)
    truncated = set()
    for horizon in (4, default_horizon):  # 4: shorter than most blocks
        trial = make_trial(horizon)
        for i in range(reps):
            results = {trial(trial_generator(seed, i), first) for first in (1, 3, 8, 64)}
            assert len(results) == 1
            truncated.add(results.pop()[1] is None)
    assert truncated == {False, True}
    # the loop rekeys one generator and sizes first blocks from its stopping
    # times; each trial still equals the one run on its own
    trial = make_trial(default_horizon)
    alone = [trial(trial_generator(seed, i), 64) for i in range(reps)]
    columns = montecarlo._run_trials(seed, 0, reps, make_trial, default_horizon, signal_set, K)
    assert columns == _columns(alone, signal_set, K)
    if kind != "sprt":
        spec = kind_spec(kind, reps)
        reference = [run_trial(spec, i) for i in range(reps)]
        assert reference == alone
        assert all(type(t) is TrialResult for t in reference)
        assert montecarlo._run_chunk(spec, 0, reps) == _columns(alone, signal_set, K)


def test_truncated_trial_scores_all_wrong():
    spec = gap_spec(horizon_cap=1, reps=20)
    trials = [run_trial(spec, i) for i in range(20)]
    truncated = [t for t in trials if t.rejected is None]
    assert truncated, "a 1-step horizon must truncate some trials"
    for t in truncated:
        assert t.stopping_time == 1
    # scored with the complement of the signal set {1, 2}: {3, 4}
    _, columns = run_experiment_with_trials(spec)
    assert list(columns.truncated) == [int(t.rejected is None) for t in trials]
    rows = [(v, w, r) for v, w, r, cut in zip(columns.V, columns.W, columns.R, columns.truncated) if cut]
    assert rows == [(2, 2, 2)] * len(truncated)


# ------------------------------------------------------------ experiments


def test_experiment_is_deterministic():
    spec = gap_spec()
    assert run_experiment(spec) == run_experiment(spec)


@pytest.mark.parametrize("kind", sorted(RULE_KINDS))
def test_parallel_equals_serial(monkeypatch, kind):
    spec = kind_spec(kind, reps=300)  # at least 2 * _BLOCK, or the run stays serial
    serial = run_experiment_with_trials(spec, workers=1)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)  # three processes whatever the CPUs
    for workers in (2, 3):
        assert run_experiment_with_trials(spec, workers=workers) == serial


def test_an_error_in_a_worker_chunk_is_raised_here(monkeypatch):
    """A forked worker's second chunk fails while this process runs its first, slowly: the worker
    has sent back its first result and the failure by the time this process refills it, and
    that send must not meet a closed pipe.  The failure is raised here with its type and message."""
    run_chunk, run_trials, here = montecarlo._run_chunk, montecarlo._run_trials, os.getpid()

    def fail_the_second(spec, start, stop):
        if start == 64:
            raise ValueError(f"chunk {start} failed in a worker")
        return run_chunk(spec, start, stop)

    def slowly_here(*args):
        if os.getpid() == here:
            time.sleep(0.5)
        return run_trials(*args)

    monkeypatch.setattr(montecarlo, "_run_chunk", fail_the_second)  # the forked worker's entry point
    monkeypatch.setattr(montecarlo, "_run_trials", slowly_here)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError, match=r"^chunk 64 failed in a worker$"):
        run_experiment_with_trials(kind_spec("gap", reps=700), workers=2)


class ThreadWorker:
    """A stand-in worker: ``_serve`` on a thread of this process, over a real pipe.

    It is both this process's end of the pipe, which logs the chunk starts sent on it, and the
    worker: a thread cannot be killed, so ``kill`` does nothing, and the thread stops once this
    process closes its end, after the chunk it is running."""

    def __init__(self, spec, chunk, n, sent):
        self.pipe, there = Pipe()
        self.sent = sent
        self.thread = threading.Thread(target=self._serve, args=(spec, chunk, n, there))
        self.thread.start()
        self.pid, self.exitcode = self.thread.native_id, None

    @staticmethod
    def _serve(spec, chunk, n, there):
        with there:
            montecarlo._serve(spec, chunk, n, there)

    def fileno(self):
        return self.pipe.fileno()

    def send(self, start):
        if start is not None:
            self.sent.append(start)
        self.pipe.send(start)

    def recv(self):
        return self.pipe.recv()

    def close(self):
        self.pipe.close()

    def kill(self):
        pass

    def join(self):
        self.thread.join(timeout=60)
        assert not self.thread.is_alive()


def _install_workers(monkeypatch, cpus=64, fail_here=False, fail_there=False, settle=None):
    """Run chunks beside thread workers at up to ``cpus`` CPUs.  The record lists the workers,
    the chunk starts sent to them, and the starts run in all, on the workers' threads and in
    this process; ``fail_here`` and ``fail_there`` make the chunks run there fail, and
    ``settle(record)`` runs in this process before each of its chunks."""
    record = SimpleNamespace(workers=[], sent=[], run=[], here=[], there=[])
    run_trials = montecarlo._run_trials

    def recording(master_seed, start, stop, *rest):
        here = threading.current_thread() is threading.main_thread()
        record.run.append(start)
        (record.here if here else record.there).append(start)
        if here and settle is not None:
            settle(record)
        if fail_here if here else fail_there:
            raise RuntimeError(f"chunk {start} failed")
        return run_trials(master_seed, start, stop, *rest)

    def start_worker(spec, chunk, n):
        record.workers.append(ThreadWorker(spec, chunk, n, record.sent))
        return record.workers[-1], record.workers[-1]

    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(montecarlo, "_run_trials", recording)
    monkeypatch.setattr(montecarlo, "_start_worker", start_worker)
    return record


def _until(condition):
    deadline = time.monotonic() + 60
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.001)


@pytest.mark.parametrize("workers, cpus, processes", [
    (5000, 3, 3),  # capped by the CPUs
    (5000, 64, 4),  # capped by the chunks: 200 trials make 4 chunks of at most 64
    (2, 64, 2),
    (3, 1, 1),
])
def test_pool_size_is_capped(monkeypatch, workers, cpus, processes):
    spec = kind_spec("gap", reps=200)
    serial = run_experiment_with_trials(spec)
    record = _install_workers(monkeypatch, cpus=cpus)
    assert run_experiment_with_trials(spec, workers=workers) == serial
    # this process runs chunks too: one worker fewer is started, and none for one process
    assert len(record.workers) == processes - 1
    assert sorted(record.run) == list(range(0, 200, 64 if processes > 1 else 200))


@pytest.mark.parametrize("kind", sorted(RULE_KINDS))
def test_this_process_runs_chunks_beside_the_pool(monkeypatch, kind):
    spec = kind_spec(kind, reps=700)  # 11 chunks of at most 64
    serial = run_experiment_with_trials(spec)
    record = _install_workers(monkeypatch)
    assert run_experiment_with_trials(spec, workers=3) == serial
    assert len(record.workers) == 2
    assert sorted(record.run) == list(range(0, 700, 64))  # every chunk exactly once
    assert record.here  # this process ran chunks itself
    assert sorted(record.sent) == sorted(record.there)  # the workers ran what they were sent
    assert sorted(record.sent + record.here) == sorted(record.run)
    assert not any(worker.thread.is_alive() for worker in record.workers)


def test_a_chunk_failing_here_propagates_and_submits_no_more(monkeypatch):
    # before it fails, this process waits until the workers have taken up every chunk sent to them
    record = _install_workers(monkeypatch, fail_here=True, settle=lambda record: _until(lambda: len(record.there) == 4))
    # the two workers get a running and a queued chunk each; this process
    # takes the fifth chunk and fails
    with pytest.raises(RuntimeError, match="chunk 256 failed"):
        run_experiment_with_trials(kind_spec("gap", reps=700), workers=3)
    # the workers were stopped, and nothing more was handed out
    assert record.sent == [0, 64, 128, 192]
    assert sorted(record.run) == [0, 64, 128, 192, 256]
    assert not any(worker.thread.is_alive() for worker in record.workers)


def test_a_failed_pool_chunk_stops_this_process(monkeypatch):
    # before its first chunk, this process waits until both workers have sent back a failure
    settle = lambda record: _until(lambda: all(worker.pipe.poll() for worker in record.workers))
    record = _install_workers(monkeypatch, fail_there=True, settle=settle)
    with pytest.raises(RuntimeError, match="^chunk 0 failed$"):  # the first worker's pipe is polled first
        run_experiment_with_trials(kind_spec("gap", reps=700), workers=3)
    # the first failure taken back ends the run: nothing more is handed out, this process runs
    # no chunk after the one it was in, and a worker runs no chunk after a failed one
    assert record.sent == [0, 64, 128, 192]
    assert record.here == [256]
    assert sorted(record.there) == [0, 64]
    assert not any(worker.thread.is_alive() for worker in record.workers)


def test_every_chunk_runs_once_under_threads(monkeypatch):
    """Threads in place of worker processes, more of them than cores, and a
    short switch interval: the dispenser hands out each chunk once."""
    spec = kind_spec("gap", reps=2000)  # 32 chunks of at most 64
    serial = run_experiment_with_trials(spec)
    record = _install_workers(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_experiment_with_trials(spec, workers=6)
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
    assert len(record.workers) == 5
    assert sorted(record.run) == list(range(0, 2000, 64))
    assert sorted(record.sent + record.here) == sorted(record.run)
    assert not any(worker.thread.is_alive() for worker in record.workers)


def test_experiment_summary_contents():
    spec = gap_spec(reps=400)
    summary, trials = run_experiment_with_trials(spec)
    assert all(len(column) == 400 for column in trials)
    assert summary.replications == 400
    assert summary.mean_T == pytest.approx(sum(trials.T) / 400, rel=1e-12)
    assert summary.ratio == pytest.approx(summary.mean_T / summary.asymptote, rel=1e-12)
    assert summary.truncation_count == 0
    assert summary.reliable


def test_summarize_time_moments():
    spec = gap_spec(reps=2)
    trials = _columns([(2, frozenset({1, 2})), (4, frozenset({1, 2}))], spec.params.signal_set, 4)
    summary = summarize(spec, trials)
    assert summary.mean_T == 3.0
    assert summary.se_T == 1.0


def test_unreliable_flag_on_heavy_truncation():
    summary = run_experiment(gap_spec(horizon_cap=1, reps=50))
    assert summary.truncation_count > 0.05 * 50
    assert not summary.reliable
    # truncated trials drive every error metric up, not down
    assert summary.metrics.fwer1.value == summary.metrics.pics.value


def test_workers_validation():
    with pytest.raises(ValueError, match="workers"):
        run_experiment(gap_spec(reps=10), workers=0)


# ----------------------------------------------------------------- sweeps


def test_ratio_sweep_shares_seed_and_orders_points():
    points = sweep(gap_spec(reps=100), "alpha", [1e-2, 1e-3])
    assert [p.value for p in points] == [1e-2, 1e-3]
    assert all(p.spec.master_seed == 1234 for p in points)
    assert all(p.spec.alpha == p.spec.beta == p.value for p in points)


def test_ratio_sweep_validates_grid():
    with pytest.raises(ValueError, match="nonempty"):
        sweep(gap_spec(), "alpha", [])
    with pytest.raises(ValueError, match="strictly decreasing"):
        sweep(gap_spec(), "alpha", [1e-3, 1e-2])
    with pytest.raises(ValueError, match="sweep kind must be 'alpha' or 'rho', got 'beta'"):
        sweep(gap_spec(), "beta", [1e-2])


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("a grid point ran before every point was checked")


def test_sweeps_check_every_point_before_running(monkeypatch):
    monkeypatch.setattr(montecarlo, "run_experiment", _refuse_to_run)
    with pytest.raises(ValueError, match=r"alpha_grid entry -0\.5: alpha must be in \(0, 1\)"):
        sweep(gap_spec(), "alpha", [0.1, 0.01, -0.5])
    with pytest.raises(ValueError, match=r"rho_grid entry 1\.5: rho out of range"):
        sweep(gap_spec(), "rho", [0.0, 0.5, 1.5])
    gi = ExperimentSpec(
        params=ModelParams(K=5, rho=0.0, mu=1.0, signal_set=frozenset({1, 2})),
        rule=GiRuleSpec(l=1, u=3), alpha=0.01, beta=0.01, replications=10, master_seed=0,
    )
    with pytest.raises(ValueError, match=r"rho_grid entry 0\.2: the gap-intersection baseline"):
        sweep(gi, "rho", [0.0, 0.2])


def test_rho_sweep_replaces_correlation():
    points = sweep(gap_spec(reps=100), "rho", [0.0, 0.5])
    assert [p.spec.params.rho for p in points] == [0.0, 0.5]
    assert points[0].summary.asymptote == pytest.approx(
        2 * points[1].summary.asymptote, rel=1e-12
    )
    with pytest.raises(ValueError, match="nonempty"):
        sweep(gap_spec(), "rho", [])


# -------------------------------------------------------------- benchmark


def test_matched_sprt_config_frozen_values():
    cfg = matched_sprt_config(gap_spec(alpha=1e-6))
    assert cfg.gamma == pytest.approx(2.5e-7, rel=1e-12)  # 1e-6 / (m*(K-m))
    assert cfg.delta == 0.0
    assert cfg.sigma2 == pytest.approx(1.0, rel=1e-12)  # 2*(1-rho)
    assert (cfg.theta0, cfg.theta1) == (-1.0, 1.0)
    assert asn_asymptotic(cfg) == pytest.approx(7.600902, abs=1e-6)


def test_benchmark_requires_gap_rule():
    spec = ExperimentSpec(
        params=ModelParams(K=5, rho=0.5, mu=1.0, signal_set=frozenset({1, 2})),
        rule=MaxGapRuleSpec(l=1, u=3), alpha=0.01, beta=0.01,
        replications=10, master_seed=0,
    )
    with pytest.raises(ValueError, match="gap rule"):
        matched_sprt_config(spec)


def test_benchmark_ratio_consistency():
    bench = sprt_benchmark(gap_spec(alpha=1e-4, reps=200))
    assert bench.ratio == pytest.approx(bench.gap_summary.mean_T / bench.sprt_asn, rel=1e-12)
    assert bench.sprt_level == pytest.approx(1e-4 / 4, rel=1e-12)
