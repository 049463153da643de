"""seqgap command line.

calibrate  print a rule's thresholds without simulating
simulate   run one experiment, write a one-row report (+ optional trial dump)
sweep      run the config's alpha or rho grid, one report row per point
sprt-asn   print Wald and asymptotic mean sample sizes for a two-boundary test

Reports carry a fixed 30-column schema (CSV, or a JSON mirror with a meta
object).  Every report embeds the tool version, generator id, master seed
and the resolved config, and contains no timestamps, so reruns are
bit-identical.  Exit codes: 0 ok, 1 usage or config error, 2 experiment
completed but unreliable (too many truncated trials), 3 I/O or worker
failure, 130 interrupted (SIGINT).

``calibrate``, ``sprt-asn`` and a config error load no numpy and no OpenSSL
(``_hashlib``): the engine (``seqgap.montecarlo``) is imported by ``simulate``
and ``sweep`` alone, and ``hashlib`` by ``experiment_id`` alone.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence, TextIO

from ._version import __version__
from .config import (
    FORMATS,
    GENERATOR_ID,
    ConfigError,
    ExperimentSpec,
    ParsedConfig,
    load_config,
    resolved_config_dict,
    rule_dict,
    spec_dict,
)
from .sprt import SprtConfig, asn_asymptotic, asn_wald

if TYPE_CHECKING:
    from .montecarlo import ExperimentSummary, TrialColumns

__all__ = ["SCHEMA", "build_parser", "experiment_id", "main", "summary_row"]

SCHEMA = [
    "experiment_id", "rule", "variant", "K", "m", "l", "u", "rho", "mu",
    "alpha", "beta", "c1_adjust", "replications", "horizon_cap", "master_seed",
    "generator_id", "mean_T", "se_T", "asymptote", "ratio", "pics_hat",
    "fwer1_hat", "fwer2_hat", "fdr_hat", "fnr_hat", "pfdr_hat", "pfnr_hat",
    "pfdr_defined", "truncation_count", "reliable",
]

TRIAL_DUMP_SCHEMA = ["trial_index", "stopping_time", "V", "W", "R", "truncated"]


def experiment_id(spec: ExperimentSpec) -> str:
    """Short content hash of everything that determines the trial stream."""
    import hashlib  # here, so that the commands that write no report do not load OpenSSL

    doc = spec_dict(spec)
    doc["mc"]["horizon_cap"] = spec.resolved_horizon_cap()
    doc["generator_id"] = GENERATOR_ID
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()
    return digest[:12]


def summary_row(spec: ExperimentSpec, summary: ExperimentSummary) -> dict:
    """One report row, keyed by SCHEMA; inapplicable fields are None."""
    rule = rule_dict(spec.rule)
    met = summary.metrics
    return {
        "experiment_id": experiment_id(spec),
        "rule": rule["kind"],
        "variant": rule.get("variant"),
        "K": spec.params.K,
        "m": rule.get("m"),
        "l": rule.get("l"),
        "u": rule.get("u"),
        "rho": spec.params.rho,
        "mu": spec.params.mu,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "c1_adjust": rule.get("c1_adjust"),
        "replications": spec.replications,
        "horizon_cap": spec.resolved_horizon_cap(),
        "master_seed": spec.master_seed,
        "generator_id": summary.generator_id,
        "mean_T": summary.mean_T,
        "se_T": summary.se_T,
        "asymptote": summary.asymptote,
        "ratio": summary.ratio,
        "pics_hat": met.pics.value,
        "fwer1_hat": met.fwer1.value,
        "fwer2_hat": met.fwer2.value,
        "fdr_hat": met.fdr.value,
        "fnr_hat": met.fnr.value,
        "pfdr_hat": met.pfdr.value,
        "pfnr_hat": met.pfnr.value,
        "pfdr_defined": met.pfdr.defined,
        "truncation_count": summary.truncation_count,
        "reliable": summary.reliable,
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _meta_comment(config_doc: dict, master_seed: int) -> str:
    blob = json.dumps(config_doc, separators=(",", ":"), sort_keys=True)
    return (
        f"# seqgap {__version__} generator_id={GENERATOR_ID} "
        f"master_seed={master_seed} config={blob}"
    )


def write_report_csv(out: TextIO, rows: Sequence[dict], config_doc: dict, master_seed: int) -> None:
    out.write(_meta_comment(config_doc, master_seed) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SCHEMA)
    for row in rows:
        writer.writerow([_cell(row[col]) for col in SCHEMA])


def write_report_json(out: TextIO, rows: Sequence[dict], config_doc: dict, master_seed: int) -> None:
    doc = {
        "meta": {
            "tool": "seqgap",
            "version": __version__,
            "generator_id": GENERATOR_ID,
            "master_seed": master_seed,
            "config": config_doc,
        },
        "rows": [{col: row[col] for col in SCHEMA} for row in rows],
    }
    json.dump(doc, out, indent=2, sort_keys=False)
    out.write("\n")


def write_trial_dump(out: TextIO, trials: TrialColumns) -> None:
    """One CSV line per trial, in ``csv.writer``'s format (no cell needs quoting).

    The lines are built one at a time and handed straight to ``out``, so a
    dump holds no more than one line beyond ``out``'s buffer, whatever the
    number of trials.
    """
    out.write(",".join(TRIAL_DUMP_SCHEMA) + "\n")
    lines = zip(range(len(trials.T)), *trials)
    out.writelines(f"{i},{t},{v},{w},{r},{_cell(x == 1)}\n" for i, t, v, w, r, x in lines)


@contextlib.contextmanager
def _staged_outputs(*paths: str | None):
    """Yield one writable file per path, stdout where the path is None.

    Each file is a temporary one in its destination's directory, created
    before the caller does any work, so an unwritable destination fails
    before a run rather than after it.  The files are moved into place
    only after the block completes, and removed if it raises, so a failed
    command leaves none of its outputs behind.  A destination that exists
    but is not a regular file (a pipe, or a device such as /dev/stdout)
    cannot be replaced and is written directly.  Two paths that resolve
    to the same file are refused before any file is created.
    """
    dests = [os.path.realpath(path) for path in paths if path is not None]
    for dest in dests:
        if dests.count(dest) > 1:
            raise ValueError(f"two outputs resolve to the same file: {dest}")
    staged = []  # (temp path or None, destination, file)
    try:
        for i, path in enumerate(paths):
            if path is None:
                continue
            if os.path.exists(path) and not os.path.isfile(path):
                staged.append((None, path, open(path, "w", encoding="utf-8", newline="")))
                continue
            dest = os.path.realpath(path)  # replace a symlink's target, not the link
            head, tail = os.path.split(dest)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}-{i}.tmp")
            try:
                fh = open(tmp, "x", encoding="utf-8", newline="")
            except OSError as exc:  # name the destination, not the temp file
                raise OSError(exc.errno, exc.strerror, path) from exc
            staged.append((tmp, dest, fh))
        files = iter(fh for _, _, fh in staged)
        yield [sys.stdout if path is None else next(files) for path in paths]
        for _, _, fh in staged:
            fh.close()
        for tmp, dest, _ in staged:
            if tmp is not None:
                os.replace(tmp, dest)
    finally:
        for tmp, _, fh in staged:
            fh.close()
            if tmp is not None:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)


def _emit(parsed: ParsedConfig, rows: Sequence[dict], out: TextIO) -> None:
    config_doc = resolved_config_dict(parsed)
    # the destination is not part of the experiment; dropping it keeps
    # reports written to different paths byte-comparable
    config_doc.pop("output", None)
    seed = parsed.spec.master_seed
    if parsed.out_format == "json":
        write_report_json(out, rows, config_doc, seed)
    else:
        write_report_csv(out, rows, config_doc, seed)


def _apply_overrides(parsed: ParsedConfig, args: argparse.Namespace) -> ParsedConfig:
    spec = parsed.spec
    spec_updates = {}
    if args.seed is not None:
        spec_updates["master_seed"] = args.seed
    if args.reps is not None:
        spec_updates["replications"] = args.reps
    if args.horizon is not None:
        spec_updates["horizon_cap"] = args.horizon
    if spec_updates:
        try:
            spec = replace(spec, **spec_updates)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    updates = {"spec": spec}
    if args.out is not None:
        updates["out_path"] = args.out
    if args.format is not None:
        updates["out_format"] = args.format
    return replace(parsed, **updates)


def cmd_calibrate(args: argparse.Namespace) -> int:
    spec = load_config(args.config).spec
    print(f"rule = {spec.rule.kind}")
    for line in spec.rule.calibration_lines(spec.params, spec.alpha, spec.beta):
        print(line)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    parsed = _apply_overrides(load_config(args.config), args)
    from .montecarlo import run_experiment_with_trials  # the engine: numpy loads only now

    with _staged_outputs(parsed.out_path, args.trial_dump) as (out, dump):
        summary, trials = run_experiment_with_trials(parsed.spec, workers=args.workers)
        _emit(parsed, [summary_row(parsed.spec, summary)], out)
        if args.trial_dump is not None:
            write_trial_dump(dump, trials)
    return 0 if summary.reliable else 2


def cmd_sweep(args: argparse.Namespace) -> int:
    parsed = _apply_overrides(load_config(args.config), args)
    if parsed.sweep_kind is None:
        raise ConfigError("sweep command requires a sweep section (alpha_grid or rho_grid)")
    assert parsed.sweep_grid is not None
    from .montecarlo import sweep  # the engine: numpy loads only now

    with _staged_outputs(parsed.out_path) as (out,):
        points = sweep(parsed.spec, parsed.sweep_kind, parsed.sweep_grid, workers=args.workers)
        _emit(parsed, [summary_row(pt.spec, pt.summary) for pt in points], out)
    return 0 if all(pt.summary.reliable for pt in points) else 2


def cmd_sprt_asn(args: argparse.Namespace) -> int:
    config = SprtConfig(
        theta0=args.theta0,
        theta1=args.theta1,
        sigma2=args.sigma2,
        gamma=args.gamma,
        delta=args.delta,
    )
    if config.delta == 0.0:
        print("asn_wald_h0 = N/A (delta = 0: the test never stops under H0)")
    else:
        print(f"asn_wald_h0 = {_cell(asn_wald(config, 'h0'))}")
    print(f"asn_wald_h1 = {_cell(asn_wald(config, 'h1'))}")
    print(f"asn_asymptotic = {_cell(asn_asymptotic(config))}")
    return 0


class _Parser(argparse.ArgumentParser):
    # route usage errors through the config-error exit code instead of argparse's 2
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqgap", description="Sequential multiple-testing simulators.")
    parser.add_argument("--version", action="version", version=f"seqgap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", required=True, help="experiment config (JSON)")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=FORMATS, help="report format (default from config)")
        sp.add_argument("--seed", type=int, help="override mc.master_seed")
        sp.add_argument("--reps", type=int, help="override mc.replications")
        sp.add_argument("--horizon", type=int, help="override mc.horizon_cap")
        sp.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    sp = sub.add_parser("calibrate", help="print thresholds without simulating")
    sp.add_argument("--config", required=True, help="experiment config (JSON)")
    sp.set_defaults(fn=cmd_calibrate)

    sp = sub.add_parser("simulate", help="run one experiment and write a report row")
    add_common(sp)
    sp.add_argument("--trial-dump", help="also write per-trial results to this CSV")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("sweep", help="run the config's alpha or rho grid")
    add_common(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("sprt-asn", help="print SPRT mean sample size formulas")
    sp.add_argument("--theta0", type=float, required=True)
    sp.add_argument("--theta1", type=float, required=True)
    sp.add_argument("--sigma2", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=0.05)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.set_defaults(fn=cmd_sprt_asn)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise ConfigError("--workers must be >= 1")
        return args.fn(args)
    except KeyboardInterrupt:  # the run's workers are killed, and no output is left behind
        print("interrupted", file=sys.stderr)
        return 130
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ChildProcessError as exc:  # a worker's pipe broke: it names the worker's pid and exit code
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
