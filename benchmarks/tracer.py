"""In-memory span recorder for the seqgap benchmark.

``Tracer.install`` wraps every public function defined in the seqgap
modules named in ``MODULES`` and rebinds each module-level reference to it,
including the copies that ``from .model import sample_block`` style imports
leave in other modules.  The package source is not touched.

Each call records one span: name, start and end (``perf_counter_ns``), the
index of the enclosing span in the same process (-1 at top level), the
trial index and a per-name count (rows drawn for ``sample_block``, the
stopping time for ``run_sprt``).  The trial index is the one passed to the
latest ``trial_generator`` call; it is -1 outside the trial loop.

Spans stay in ``array`` buffers until ``flush`` writes them to
``<dir>/<pid>.<field>``.  Forked pool workers start with empty buffers and
flush when they exit, so a parallel run leaves one file set per process.
``load_layers`` reads them all back and derives per-name totals and self
time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import os
import sys
import time
from multiprocessing import util as mp_util

MODULES = ("config", "rules", "model", "montecarlo", "metrics", "sprt", "cli")

# Field name -> array typecode; the reader maps 'i' to numpy's intc.
FIELDS = {"name": "i", "parent": "i", "trial": "q", "start": "q", "end": "q", "count": "q"}

# Spans of these functions own a trial loop: leaving one ends the current trial.
TRIAL_OWNERS = frozenset({
    "montecarlo.run_experiment",
    "montecarlo.run_experiment_with_trials",
    "montecarlo.run_trial",
    "montecarlo.sprt_error_mc",
})


class Tracer:
    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.names: list[str] = []
        self.trials: list = []  # the latest run_experiment_with_trials result, for its pickled size
        self._reset()

    def _reset(self) -> None:
        for field, code in FIELDS.items():
            setattr(self, field, array.array(code))
        self.stack: list[int] = []
        self.current_trial = -1

    def install(self) -> None:
        """Wrap the public functions of MODULES and rebind every reference."""
        wrapped = {}
        for short in MODULES:
            module = importlib.import_module(f"seqgap.{short}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "seqgap" or mod_name.startswith("seqgap."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(module, attr, wrapped[obj])
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # a pool worker: drop the parent's spans, write our own at exit
        self._reset()
        mp_util.Finalize(None, self.flush, exitpriority=10)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        sets_trial = name == "montecarlo.trial_generator"
        # summarize runs inside an owner span but after the last trial
        clears_trial = name == "montecarlo.summarize"
        ends_trial = name in TRIAL_OWNERS
        keeps_trials = name == "montecarlo.run_experiment_with_trials"
        if name == "model.sample_block":
            count_of = lambda args, kwargs, result: args[2] if len(args) > 2 else kwargs["count"]
        elif name == "sprt.run_sprt":
            count_of = lambda args, kwargs, result: result.stopping_time
        else:
            count_of = None
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t = tracer
            if sets_trial:
                t.current_trial = args[1] if len(args) > 1 else kwargs["trial_index"]
            elif clears_trial:
                t.current_trial = -1
            idx = len(t.start)
            t.name.append(nid)
            t.parent.append(t.stack[-1] if t.stack else -1)
            t.trial.append(t.current_trial)
            t.count.append(0)
            t.start.append(0)
            t.end.append(0)
            t.stack.append(idx)
            t.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t.end[idx] = clock()
                t.stack.pop()
                if ends_trial:
                    t.current_trial = -1
            if count_of is not None:
                t.count[idx] = count_of(args, kwargs, result)
            if keeps_trials:
                t.trials = result[1]
            return result

        return span

    def flush(self) -> None:
        pid = os.getpid()
        for field in FIELDS:
            with open(os.path.join(self.out_dir, f"{pid}.{field}"), "wb") as fh:
                getattr(self, field).tofile(fh)
        with open(os.path.join(self.out_dir, "names.json"), "w", encoding="utf-8") as fh:
            json.dump(self.names, fh)


def load_layers(out_dir: str) -> dict[str, dict]:
    """Per-name totals over every process that wrote spans.

    For each name: calls, total and self time (ns), the number of distinct
    trials it ran in, and the per-span counts (empty if it records none).
    """
    import numpy as np

    with open(os.path.join(out_dir, "names.json"), encoding="utf-8") as fh:
        names = json.load(fh)
    n_names = len(names)
    calls = np.zeros(n_names, dtype=np.int64)
    total = np.zeros(n_names)
    self_ns = np.zeros(n_names)
    values: dict[int, list] = {}
    trials: dict[int, set] = {}
    pids = sorted({f.split(".")[0] for f in os.listdir(out_dir) if f.endswith(".name")})
    for pid in pids:
        cols = {
            field: np.fromfile(os.path.join(out_dir, f"{pid}.{field}"), dtype=np.intc if code == "i" else np.int64)
            for field, code in FIELDS.items()
        }
        dur = (cols["end"] - cols["start"]).astype(float)
        parent = cols["parent"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        name = cols["name"]
        calls += np.bincount(name, minlength=n_names)
        total += np.bincount(name, weights=dur, minlength=n_names)
        self_ns += np.bincount(name, weights=dur - covered, minlength=n_names)
        for nid in np.unique(name[cols["count"] != 0]).tolist():
            values.setdefault(nid, []).append(cols["count"][name == nid])
        pairs = np.unique((name.astype(np.int64) << 40) | (cols["trial"] + 1))
        for key in pairs.tolist():
            trial = (key & ((1 << 40) - 1)) - 1
            if trial >= 0:
                trials.setdefault(key >> 40, set()).add(trial)
    return {
        names[i]: {
            "calls": int(calls[i]),
            "total_ns": float(total[i]),
            "self_ns": float(self_ns[i]),
            "counts": np.concatenate(values[i]) if i in values else np.zeros(0, dtype=np.int64),
            "trials": len(trials.get(i, ())),
        }
        for i in range(n_names)
    }

