"""seqgap benchmark: end-to-end cost of Monte Carlo runs, and a layer trace.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is closed-loop: one parent
process starts one invocation at a time in a fresh interpreter (see
child.py), back to back, until S seconds have passed (at least
MIN_ITERATIONS times).  ``--seed`` becomes the experiments' master seed.
Every report is checked (see ``check_*``); a failed check or a nonzero exit
counts in ``failed``.

--trace 0 prints the end-to-end metrics, medians over the invocations:
  setup_s       wall time of a fresh `seqgap calibrate` (for the SPRT
                workload: import seqgap and build the SPRT config)
  wall_s        wall time of one whole invocation, process start to exit
  trials_per_s  replications / run_s (run_s: set-up done to report and dump written)
  steps_per_s   sum of stopping times / run_s
  peak_rss_mb   peak RSS of the invocation plus the peak of each pool worker

--trace 1 runs the workload at its trace_replications, once untraced and
once with every public seqgap function wrapped in a span (tracer.py), and
prints the per-layer metrics derived from the spans.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from tracer import load_layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2  # two traced invocations show whether exact counts repeat
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s
REPORT_COLUMNS = 30
DUMP_SCHEMA = ["trial_index", "stopping_time", "V", "W", "R", "truncated"]
SPRT_BLOCK = 64  # increments per draw in sprt_error_mc
EXACT_UNITS = ("count", "rows", "B", "B/trial")  # per-layer values that must repeat exactly
_TARGETS = {"alpha": 0.01, "beta": 0.01}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate" (the seqgap CLI) or "sprt" (montecarlo.sprt_error_mc)
    replications: int  # sized so one invocation takes a few seconds on 2 cores
    trace_replications: int  # sized so a traced invocation keeps under ~1M spans
    config: dict = field(default_factory=dict)  # seqgap config without its mc section
    workers: int = 1
    dump: bool = False

    @property
    def rule(self) -> str:
        return self.config["rule"]["kind"] if self.config else "sprt"


WORKLOADS = {w.name: w for w in (
    # about 5.5 steps per trial: per-trial keying, a mostly unused 64-row
    # draw, aggregation and the trial dump dominate
    Workload(
        "gap-k4-short", "simulate", replications=30000, trace_replications=10000, dump=True,
        config={"model": {"K": 4, "rho": 0.5, "mu": 1.0},
                "rule": {"kind": "gap", "m": 2}, "targets": _TARGETS},
    ),
    # about 66 steps per trial: rule stepping dominates; bypasses per-trial and I/O costs
    Workload(
        "maxgap-k10-long", "simulate", replications=1500, trace_replications=400,
        config={"model": {"K": 10, "rho": 0.5, "mu": 1.0, "signal_set": [1, 2, 3, 4]},
                "rule": {"kind": "maxgap", "l": 1, "u": 8, "variant": "sqrt2"}, "targets": _TARGETS},
    ),
    # the process pool at nproc workers, and the only GI path (llr_star x K per step)
    Workload(
        "gi-k10-parallel", "simulate", replications=12000, trace_replications=2500, workers=2,
        config={"model": {"K": 10, "rho": 0.0, "mu": 1.0, "signal_set": [1, 2, 3, 4]},
                "rule": {"kind": "gi", "l": 1, "u": 8}, "targets": _TARGETS},
    ),
    # the second Monte Carlo loop, behind the SPRT acceptance criterion
    Workload("sprt-yardstick", "sprt", replications=50000, trace_replications=20000),
)}

class CheckFailed(Exception):
    """An invocation exited nonzero or its output failed a check."""


@dataclass
class Invocation:
    wall_s: float
    run_s: float
    steps: int
    rss_mb: float
    report: bytes
    record: dict

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.report).hexdigest()


class Runner:
    """Starts child invocations, counts attempts and failures, enforces the deadline."""

    def __init__(self, run_dir: str, start: float) -> None:
        self.run_dir = run_dir
        self.deadline = start + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.versions: dict = {}
        with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
            self.pins = json.load(fh)

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline

    def child(self, mode: str, *args: str) -> tuple[str, float]:
        """Run child.py in a new process group; return its stdout and wall time."""
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, "--src", SRC, *args]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=self.env, cwd=self.run_dir, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            wall = time.perf_counter() - t0
        finally:
            # nothing the invocation started may outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
        if proc.returncode != 0:
            raise CheckFailed(f"{mode} exited {proc.returncode}: {err.strip()[-500:]}")
        return out, wall

    def attempt(self, fn, *args):
        """Call fn, counting it; a CheckFailed or timeout counts as failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except (CheckFailed, subprocess.TimeoutExpired) as exc:
            self.failed += 1
            print(f"FAILED: {exc}", file=sys.stderr)
            return None

    # ------------------------------------------------------------ invocations

    def write_config(self, wl: Workload, reps: int, seed: int) -> str:
        path = os.path.join(self.run_dir, f"config-{reps}.json")
        doc = dict(wl.config, mc={"replications": reps, "master_seed": seed})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def setup(self, wl: Workload, cfg: str | None) -> float:
        if wl.kind == "sprt":
            return self.child("sprt-setup")[1]
        out, wall = self.child("calibrate", "--config", cfg)
        if not out.startswith(f"rule = {wl.rule}\n"):
            raise CheckFailed(f"calibrate printed {out[:80]!r}")
        return wall

    def run(self, wl: Workload, reps: int, seed: int, cfg: str | None,
            workers: int | None = None, trace_dir: str | None = None) -> Invocation:
        inv_dir = tempfile.mkdtemp(prefix="inv-", dir=self.run_dir)
        out_path = os.path.join(inv_dir, "report")
        args = ["--out", out_path, "--work-dir", inv_dir]
        if trace_dir:
            args += ["--trace", trace_dir]
        dump_path = os.path.join(inv_dir, "dump.csv") if wl.dump else None
        if wl.kind == "sprt":
            out, wall = self.child("sprt", "--reps", str(reps), "--seed", str(seed), *args)
        else:
            args += ["--config", cfg, "--workers", str(workers or wl.workers)]
            if dump_path:
                args += ["--dump", dump_path]
            out, wall = self.child("simulate", *args)
        try:
            record = json.loads(out.strip().splitlines()[-1])
            self.versions = {"python": record["python"], "numpy": record["numpy"]}
            with open(out_path, "rb") as fh:
                report = fh.read()
            if wl.kind == "sprt":
                steps = check_sprt(report, reps)
            else:
                steps = check_report(report, wl, reps, seed)
                if dump_path:
                    check_dump(dump_path, wl, reps, steps)
                    record["dump_bytes"] = os.path.getsize(dump_path)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            raise CheckFailed(f"malformed {wl.kind} output: {exc!r}") from exc
        finally:
            shutil.rmtree(inv_dir)
        rss_kb = record["maxrss_kb"] + sum(record["worker_maxrss_kb"])
        return Invocation(
            wall_s=wall, run_s=record["run_s"], steps=steps, rss_mb=rss_kb / 1024.0,
            report=report, record=record,
        )


# ------------------------------------------------------------------ checks


def check_report(report: bytes, wl: Workload, reps: int, seed: int) -> int:
    """Structural checks on a CSV report; returns the sum of stopping times."""
    lines = report.decode("utf-8").splitlines()
    if not lines or not lines[0].startswith("# seqgap "):
        raise CheckFailed("report lacks its meta comment line")
    rows = list(csv.reader(lines[1:]))
    if len(rows) != 2 or len(rows[0]) != REPORT_COLUMNS or len(rows[1]) != REPORT_COLUMNS:
        raise CheckFailed(f"report is not one {REPORT_COLUMNS}-column row: {[len(r) for r in rows]}")
    rec = dict(zip(*rows))
    expect = {"rule": wl.rule, "replications": str(reps), "master_seed": str(seed), "reliable": "true"}
    for key, value in expect.items():
        if rec.get(key) != value:
            raise CheckFailed(f"report {key}={rec.get(key)!r}, expected {value!r}")
    return _exact_total(float(rec["mean_T"]), reps, "mean_T")


def check_dump(path: str, wl: Workload, reps: int, steps: int) -> None:
    K = wl.config["model"]["K"]
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != DUMP_SCHEMA or len(rows) != reps + 1:
        raise CheckFailed(f"trial dump header {rows[0]} with {len(rows) - 1} rows, expected {reps}")
    total = 0
    for i, row in enumerate(rows[1:]):
        index, t, v, w, r = (int(x) for x in row[:5])
        if index != i or t < 1 or not 0 <= v <= r <= K or w < 0 or row[5] not in ("true", "false"):
            raise CheckFailed(f"trial dump row {i} is invalid: {row}")
        total += t
    if total != steps:
        raise CheckFailed(f"trial dump stopping times sum to {total}, report says {steps}")


def check_sprt(report: bytes, reps: int) -> int:
    rec = json.loads(report)
    if rec["replications"] != reps or rec["truncation_count"] != 0 or not rec["mean_T"] >= 1.0:
        raise CheckFailed(f"SPRT result out of range: {rec}")
    _exact_total(rec["error_rate"], reps, "error_rate")
    return _exact_total(rec["mean_T"], reps, "mean_T")


def _exact_total(mean: float, n: int, what: str) -> int:
    """The integer total behind a mean over n trials; refuse a mean no total gives."""
    total = round(mean * n)
    if total / n != mean:
        raise CheckFailed(f"{what}={mean!r} is not an integer total over {n} trials")
    return total


def check_pin(pins: dict, wl: Workload, seed: int, reps: int, inv: Invocation) -> None:
    """At the default seed and full size, the result must match its pin in pins.json."""
    if seed != DEFAULT_SEED or reps != wl.replications:
        return
    pin = pins.get(wl.name)
    if wl.kind == "sprt":
        rec = json.loads(inv.report)
        got = {key: rec[key] for key in ("mean_T", "error_rate", "truncation_count")}
    else:
        got = {"report_sha256": inv.sha256}
    if got != pin:
        raise CheckFailed(f"{wl.name} result {got} differs from its pin {pin}")


# ------------------------------------------------------------------ modes


def iterate(runner: Runner, seconds: float, minimum: int, body) -> None:
    """Call body back to back while the next call is expected to end within
    ``seconds``, at least ``minimum`` times unless something failed."""
    start = time.monotonic()
    done, last = 0, 0.0
    while not runner.out_of_time():
        elapsed = time.monotonic() - start
        if elapsed + last > seconds and (done >= minimum or runner.failed):
            return
        t0 = time.monotonic()
        body()
        last = time.monotonic() - t0
        done += 1


def measure(runner: Runner, wl: Workload, seed: int, seconds: float) -> tuple[dict, str]:
    cfg = runner.write_config(wl, wl.replications, seed) if wl.kind == "simulate" else None
    runner.attempt(runner.setup, wl, cfg)  # warm-up: byte-compiles the package
    setups, runs = [], []

    def body():
        setups.append(runner.attempt(runner.setup, wl, cfg))
        runs.append(runner.attempt(_checked_run, runner, wl, wl.replications, seed, cfg))

    iterate(runner, seconds, MIN_ITERATIONS, body)
    setups = [s for s in setups if s is not None]
    runs = [r for r in runs if r is not None]
    if len({r.sha256 for r in runs}) > 1:
        runner.failed += 1
        print("FAILED: reports of one seed differ between invocations", file=sys.stderr)
    return {
        "setup_s": (setups, "s"),
        "wall_s": ([r.wall_s for r in runs], "s"),
        "trials_per_s": ([wl.replications / r.run_s for r in runs], "1/s"),
        "steps_per_s": ([r.steps / r.run_s for r in runs], "1/s"),
        "peak_rss_mb": ([r.rss_mb for r in runs], "MB"),
    }, (runs[0].sha256 if runs else "")


def _checked_run(runner, wl, reps, seed, cfg, workers=None):
    inv = runner.run(wl, reps, seed, cfg, workers)
    check_pin(runner.pins, wl, seed, reps, inv)
    return inv


def trace(runner: Runner, wl: Workload, seed: int, seconds: float) -> tuple[dict, str]:
    reps = wl.trace_replications
    cfg = runner.write_config(wl, reps, seed) if wl.kind == "simulate" else None
    cfg_full = runner.write_config(wl, wl.replications, seed) if wl.workers > 1 else None
    runner.attempt(runner.setup, wl, cfg)  # warm-up: byte-compiles the package
    samples: list[dict] = []
    overheads, efficiencies = [], []

    def body():
        plain = runner.attempt(_checked_run, runner, wl, reps, seed, cfg)
        trace_dir = tempfile.mkdtemp(prefix="spans-", dir=runner.run_dir)
        traced = runner.attempt(_traced_run, runner, wl, reps, seed, cfg, trace_dir, plain)
        shutil.rmtree(trace_dir)
        if plain and traced:
            overheads.append(traced[0].wall_s / plain.wall_s - 1.0)
            samples.append(traced[1])
        if wl.workers > 1:
            serial = runner.attempt(_checked_run, runner, wl, wl.replications, seed, cfg_full, 1)
            parallel = runner.attempt(_checked_run, runner, wl, wl.replications, seed, cfg_full)
            if serial and parallel:
                if serial.sha256 != parallel.sha256:
                    runner.failed += 1
                    print("FAILED: report differs between --workers 1 and "
                          f"--workers {wl.workers}", file=sys.stderr)
                efficiencies.append(serial.run_s / (wl.workers * parallel.run_s))

    iterate(runner, seconds, MIN_TRACED_ITERATIONS, body)
    first = samples[0] if samples else {}
    exact = {name: value for name, (value, unit) in first.items() if unit in EXACT_UNITS}
    if any({name: sample[name][0] for name in exact} != exact for sample in samples[1:]):
        runner.failed += 1
        print("FAILED: exact counts differ between traced invocations", file=sys.stderr)
    metrics = {name: ([sample[name][0] for sample in samples], unit) for name, (_, unit) in first.items()}
    # one worker is its own serial baseline
    metrics["pool.efficiency"] = (efficiencies if wl.workers > 1 else [1.0], "frac")
    metrics["trace_overhead_frac"] = (overheads, "frac")
    return metrics, ""


def _traced_run(runner, wl, reps, seed, cfg, trace_dir, plain):
    inv = runner.run(wl, reps, seed, cfg, trace_dir=trace_dir)
    if plain is not None and inv.sha256 != plain.sha256:
        raise CheckFailed("tracing changed the report")
    layers = load_layers(trace_dir)
    return inv, layer_metrics(layers, wl, reps, inv)


def layer_metrics(layers: dict, wl: Workload, reps: int, inv: Invocation) -> dict:
    """Per-layer metrics of one traced invocation, after checking its exact counts."""
    empty = {"calls": 0, "total_ns": 0.0, "trials": 0, "counts": ()}

    def get(name):
        return layers.get(name, empty)

    def calls(name):
        return get(name)["calls"]

    def us_per_call(*names):
        n = sum(calls(x) for x in names)
        return sum(get(x)["total_ns"] for x in names) / n / 1e3 if n else 0.0

    def total_ms(*names):
        return sum(get(x)["total_ns"] for x in names) / 1e6

    steps = inv.steps
    step_fn = {"gap": "rules.gap_rule_step", "maxgap": "rules.maxgap_rule_step",
               "gi": "rules.gi_rule_step", "sprt": "sprt.sprt_step"}[wl.rule]
    expect = {
        f"{step_fn} calls": (calls(step_fn), steps),
        f"{step_fn} trials": (get(step_fn)["trials"], reps),
        "trial_generator calls": (calls("montecarlo.trial_generator"), reps),
    }
    rows = int(sum(get("model.sample_block")["counts"]))
    sprt_t = get("sprt.run_sprt")["counts"]
    if wl.kind == "simulate":
        expect["update_stats calls"] = (calls("model.update_stats"), steps)
        if rows < steps:
            raise CheckFailed(f"sample_block drew {rows} rows for {steps} steps")
        if wl.rule == "gi":
            expect["llr_star calls"] = (calls("model.llr_star"), wl.config["model"]["K"] * steps)
    else:
        expect["run_sprt calls"] = (calls("sprt.run_sprt"), reps)
        expect["run_sprt stopping times"] = (int(sum(sprt_t)), steps)
    for what, (got, want) in expect.items():
        if got != want:
            raise CheckFailed(f"traced {what} = {got}, expected {want}")
    drawn = sum(SPRT_BLOCK * math.ceil(t / SPRT_BLOCK) for t in sprt_t.tolist()) if len(sprt_t) else 0
    record = inv.record
    return {
        "montecarlo.trial_generator.calls": (calls("montecarlo.trial_generator"), "count"),
        "montecarlo.trial_generator.us_per_call": (us_per_call("montecarlo.trial_generator"), "us"),
        "model.sample_block.calls": (calls("model.sample_block"), "count"),
        "model.sample_block.rows": (rows, "rows"),
        "model.sample_block.us_per_call": (us_per_call("model.sample_block"), "us"),
        "model.sample_block.rows_used_frac": (steps / rows if rows else 0.0, "frac"),
        "model.update_stats.calls": (calls("model.update_stats"), "count"),
        "model.update_stats.us_per_call": (us_per_call("model.update_stats"), "us"),
        **{
            f"rules.{kind}_rule_step.{stat}": value
            for kind in ("gap", "maxgap", "gi")
            for stat, value in (
                ("calls", (calls(f"rules.{kind}_rule_step"), "count")),
                ("us_per_call", (us_per_call(f"rules.{kind}_rule_step"), "us")),
            )
        },
        "model.llr_star.calls": (calls("model.llr_star"), "count"),
        "model.ordered_sums.calls_per_step": (
            calls("model.ordered_sums") / steps if wl.kind == "simulate" else 0.0, "calls/step"),
        "metrics.confusion.calls": (calls("metrics.confusion"), "count"),
        "metrics.per_trial_contribs.us_per_call": (us_per_call("metrics.per_trial_contribs"), "us"),
        "metrics.aggregate.ms": (total_ms("metrics.aggregate"), "ms"),
        "montecarlo.summarize.ms": (total_ms("montecarlo.summarize"), "ms"),
        "pool.result_bytes_per_trial": (record.get("result_bytes", 0) / reps, "B/trial"),
        "cli.write_trial_dump.ms": (total_ms("cli.write_trial_dump"), "ms"),
        "cli.trial_dump.bytes": (record.get("dump_bytes", 0), "B"),
        "cli.write_report.ms": (total_ms("cli.write_report_csv", "cli.write_report_json"), "ms"),
        "config.load_config.ms": (us_per_call("config.load_config") / 1e3, "ms"),
        "rules.calibrate.us": (
            us_per_call("rules.calibrate_gap", "rules.calibrate_maxgap", "rules.calibrate_gi"), "us"),
        "sprt.run_sprt.calls": (calls("sprt.run_sprt"), "count"),
        "sprt.run_sprt.us_per_call": (us_per_call("sprt.run_sprt"), "us"),
        "sprt.increments_used_frac": (steps / drawn if drawn else 0.0, "frac"),
    }


# ------------------------------------------------------------------ main


def machine_record(runner: Runner, load_start: float) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **runner.versions,
        "cpu": cpu,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "seqgap", "__init__.py")):
        print(f"error: no seqgap package under {SRC}; run from a seqgap checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = args.seed % (1 << 64)
    load_start = os.getloadavg()[0]
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    runner = Runner(run_dir, time.monotonic())
    try:
        mode = trace if args.trace else measure
        metrics, sha = mode(runner, wl, seed, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    if not all(samples for samples, _ in metrics.values()):
        print("error: no invocation succeeded", file=sys.stderr)
        return 1

    print(f"workload {wl.name}  seed {seed}  trace {args.trace}  "
          f"invocations {runner.attempted}  failed {runner.failed}")
    if sha:
        print(f"report_sha256 {sha}")
    print("machine " + json.dumps(machine_record(runner, load_start), sort_keys=True))
    print(f"  {'metric':<42} {'median':>14} {'unit':<10} {'n':>3} {'min':>12} {'max':>12}")
    for name, (samples, unit) in metrics.items():
        print(f"  {name:<42} {statistics.median(samples):>14.6g} {unit:<10} {len(samples):>3} "
              f"{min(samples):>12.6g} {max(samples):>12.6g}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": statistics.median(samples), "unit": unit}
            for name, (samples, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
