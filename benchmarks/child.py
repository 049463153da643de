"""One benchmark invocation, run by run.py in a fresh interpreter.

Modes:
  calibrate   ``seqgap calibrate --config CFG`` (the set-up cost of a run)
  simulate    ``seqgap simulate --config CFG --out OUT [--trial-dump DUMP] --workers W``
  sprt-setup  import seqgap and build the SPRT config
  sprt        ``montecarlo.sprt_error_mc`` on that config; the result is written to OUT as JSON

``simulate`` and ``sprt`` print one JSON line: ``run_s``, the time from
set-up done (imports, config parsed, rule calibrated) to the report and
dump written; the peak RSS of this process and of each pool worker; and
the Python and numpy versions.  With ``--trace DIR`` the
public seqgap functions are wrapped by ``tracer.Tracer`` and the spans are
written to DIR.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import platform
import resource
import sys
import time
from multiprocessing import util as mp_util

# The yardstick behind the SPRT acceptance criterion.
SPRT_ARGS = dict(theta0=0.0, theta1=1.0, sigma2=1.0, gamma=0.01, delta=0.01)
SPRT_TRUTH = "h1"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class WorkerRss:
    """Each forked pool worker writes its peak RSS to DIR/rss-<pid> on exit."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        mp_util.register_after_fork(self, WorkerRss._after_fork)

    def _after_fork(self) -> None:
        mp_util.Finalize(None, self._write, exitpriority=10)

    def _write(self) -> None:
        with open(os.path.join(self.out_dir, f"rss-{os.getpid()}"), "w", encoding="utf-8") as fh:
            fh.write(str(_maxrss_kb()))

    def collect(self) -> list[int]:
        peaks = []
        for name in sorted(os.listdir(self.out_dir)):
            if name.startswith("rss-"):
                with open(os.path.join(self.out_dir, name), encoding="utf-8") as fh:
                    peaks.append(int(fh.read()))
        return peaks


def _import_checked(src: str) -> None:
    """Import seqgap and refuse a copy from anywhere but ``src``."""
    import seqgap

    where = os.path.realpath(seqgap.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"seqgap imported from {where}, expected under {src}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("calibrate", "simulate", "sprt-setup", "sprt"))
    parser.add_argument("--src", required=True, help="directory holding the seqgap package")
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--dump")
    parser.add_argument("--workers", default="1")
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--work-dir", help="directory for worker RSS files")
    parser.add_argument("--trace", help="record spans into this directory")
    args = parser.parse_args(argv)

    _import_checked(args.src)
    if args.mode == "calibrate":
        from seqgap import cli

        return cli.main(["calibrate", "--config", args.config])
    if args.mode == "sprt-setup":
        from seqgap import sprt

        sprt.SprtConfig(**SPRT_ARGS)
        return 0

    rss = WorkerRss(args.work_dir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.trace)
        tracer.install()
    # modules are read through their attributes so traced wrappers are used
    from seqgap import cli, config, montecarlo, sprt

    if args.mode == "simulate":
        # the work of `seqgap calibrate`: parse the config, calibrate the rule
        montecarlo.calibrated_rule(config.load_config(args.config).spec)
        t_setup = time.perf_counter()
        argv_sim = ["simulate", "--config", args.config, "--out", args.out, "--workers", args.workers]
        if args.dump:
            argv_sim += ["--trial-dump", args.dump]
        rc = cli.main(argv_sim)
        t_done = time.perf_counter()
    else:
        sprt_config = sprt.SprtConfig(**SPRT_ARGS)
        t_setup = time.perf_counter()
        result = montecarlo.sprt_error_mc(sprt_config, SPRT_TRUTH, args.reps, args.seed)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(result), fh, sort_keys=True)
            fh.write("\n")
        rc = 0
        t_done = time.perf_counter()

    import numpy

    record = {
        "run_s": t_done - t_setup,
        "maxrss_kb": _maxrss_kb(),
        "worker_maxrss_kb": rss.collect(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.flush()
        # the size a pool moves back to the parent, as computed by pickling
        record["result_bytes"] = len(pickle.dumps(tracer.trials)) if tracer.trials else 0
    print(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
