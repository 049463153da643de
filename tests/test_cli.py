import argparse
import ast
import contextlib
import csv
import importlib
import json
import os
import re
import signal
import stat
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

import seqgap
import seqgap.cli as cli
import seqgap.montecarlo as montecarlo
from seqgap.cli import SCHEMA, TRIAL_DUMP_SCHEMA, main, summary_row, write_report_csv
from seqgap.config import (
    ConfigError,
    c1_for_target_metric,
    load_config,
    parse_config_dict,
    resolved_config_dict,
)
from seqgap.montecarlo import GapRuleSpec, MaxGapRuleSpec, run_experiment
from seqgap.rules import RULE_KINDS


def base_config(**overrides):
    doc = {
        "model": {"K": 4, "rho": 0.5, "mu": 1.0},
        "rule": {"kind": "gap", "m": 2},
        "targets": {"alpha": 0.01, "beta": 0.01},
        "mc": {"replications": 120, "master_seed": 2024},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- parsing


def test_parse_minimal_gap_config():
    parsed = parse_config_dict(base_config())
    assert parsed.spec.rule == GapRuleSpec(m=2, c1_adjust=1.0)
    assert parsed.spec.params.signal_set == frozenset({1, 2})  # default: first m
    assert parsed.out_format == "csv"
    assert parsed.out_path is None


def test_roundtrip_through_resolved_dict():
    docs = [
        base_config(),
        base_config(
            model={"K": 5, "rho": 0.0, "mu": 1.0, "signal_set": [2, 4]},
            rule={"kind": "maxgap", "l": 1, "u": 3, "variant": "unscaled"},
        ),
        base_config(
            model={"K": 5, "rho": 0.0, "mu": 1.0, "signal_set": [1, 5]},
            rule={"kind": "gi", "l": 1, "u": 3},
            sweep={"alpha_grid": [1e-2, 1e-3]},
            output={"path": "x.csv", "format": "json"},
        ),
    ]
    for doc in docs:
        parsed = parse_config_dict(doc)
        again = parse_config_dict(resolved_config_dict(parsed))
        assert again == parsed


# one config per rule kind with every rule field set away from its default
RULE_EXAMPLES = {
    "gap": (
        {"K": 4, "rho": 0.5, "mu": 1.0},
        {"kind": "gap", "m": 2, "target_metric": "pfer"},
    ),
    "maxgap": (
        {"K": 5, "rho": 0.5, "mu": 1.0, "signal_set": [2, 4]},
        {"kind": "maxgap", "l": 1, "u": 3, "variant": "unscaled", "c1_adjust": 2.0},
    ),
    "gi": (
        {"K": 5, "rho": 0.3, "mu": 1.0, "signal_set": [1, 5]},
        {"kind": "gi", "l": 1, "u": 3, "experimental_correlated": True},
    ),
}


@pytest.mark.parametrize("kind", sorted(RULE_KINDS))
def test_every_rule_kind_round_trips(kind):
    model, rule = RULE_EXAMPLES[kind]
    parsed = parse_config_dict(base_config(model=model, rule=rule))
    spec_class = RULE_KINDS[kind]
    assert type(parsed.spec.rule) is spec_class
    resolved = resolved_config_dict(parsed)
    # the kind first, then the spec's fields in declaration order
    assert list(resolved["rule"]) == ["kind"] + [f.name for f in fields(spec_class)]
    assert parse_config_dict(resolved) == parsed


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "unknown key.s. in config: extra"),
        (lambda d: d["model"].update(sigma=1), "unknown key.s. in model"),
        (lambda d: d["rule"].update(threshold=2), "unknown key.s. in rule"),
        (lambda d: d["targets"].update(gamma=0.1), "unknown key.s. in targets"),
        (lambda d: d["mc"].update(replciations=9), "unknown key.s. in mc"),
        (lambda d: d.pop("targets"), "missing required key 'targets'"),
        (lambda d: d["mc"].pop("master_seed"), "missing required key 'master_seed'"),
        (lambda d: d["model"].update(K=True), "model.K must be an integer"),
        (lambda d: d["model"].update(rho=-0.1), "rho out of range"),
        (lambda d: d["rule"].update(kind="median"), "rule.kind"),
        (lambda d: d["targets"].update(alpha="small"), "targets.alpha must be a number"),
    ],
)
def test_strict_parsing_rejects(mutate, fragment):
    doc = base_config()
    mutate(doc)
    with pytest.raises(ConfigError, match=fragment):
        parse_config_dict(doc)


def test_signal_set_required_for_bounded_rules():
    doc = base_config(
        model={"K": 5, "rho": 0.0, "mu": 1.0},
        rule={"kind": "maxgap", "l": 1, "u": 3},
    )
    with pytest.raises(ConfigError, match="signal_set is required"):
        parse_config_dict(doc)


def test_target_metric_mapping():
    assert c1_for_target_metric("fwer", 5) == 1.0
    assert c1_for_target_metric("fdr", 5) == 1.0
    assert c1_for_target_metric("pfnr", 5) == 1.0
    assert c1_for_target_metric("pfer", 5) == 5.0
    with pytest.raises(ConfigError, match="unknown target_metric"):
        c1_for_target_metric("power", 5)


def test_target_metric_in_rule_section():
    doc = base_config(rule={"kind": "gap", "m": 2, "target_metric": "pfer"})
    parsed = parse_config_dict(doc)
    assert parsed.spec.rule.c1_adjust == 4.0  # K = 4
    both = base_config(rule={"kind": "gap", "m": 2, "target_metric": "fdr", "c1_adjust": 2.0})
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config_dict(both)


def test_maxgap_variant_parsing():
    doc = base_config(
        model={"K": 5, "rho": 0.5, "mu": 1.0, "signal_set": [1, 2]},
        rule={"kind": "maxgap", "l": 1, "u": 3},
    )
    assert parse_config_dict(doc).spec.rule == MaxGapRuleSpec(l=1, u=3, variant="sqrt2")
    doc["rule"]["variant"] = "cubed"
    with pytest.raises(ConfigError, match="rule.variant"):
        parse_config_dict(doc)


def test_sweep_section_parsing():
    parsed = parse_config_dict(base_config(sweep={"alpha_grid": [1e-2, 1e-4]}))
    assert parsed.sweep_kind == "alpha"
    assert parsed.sweep_grid == (1e-2, 1e-4)
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config_dict(base_config(sweep={"alpha_grid": [0.1], "rho_grid": [0.0]}))
    with pytest.raises(ConfigError, match="nonempty"):
        parse_config_dict(base_config(sweep={"rho_grid": []}))


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


@pytest.mark.parametrize(
    "old, new, fragment",
    [
        ('"mu": 1.0', '"mu": Infinity', "non-finite number Infinity"),
        ('"mu": 1.0', '"mu": -Infinity', "non-finite number -Infinity"),
        ('"rho": 0.5', '"rho": NaN, "rho": 0.5', "non-finite number NaN"),
        ('"rho": 0.5', '"rho": 0.1, "rho": 0.5', "duplicate key 'rho'"),
        ('"m": 2}', '"m": 2, "kind": "gap"}', "duplicate key 'kind'"),
        ('"mu": 1.0', '"mu": 1e400', "model.mu must be a finite number"),
        ('"mu": 1.0', '"mu": 1e-300', "mu=1e-300 is out of range"),
        ('"mu": 1.0', '"mu": 1e200', "mu=1e[+]200 is out of range"),
        # a default horizon of 115,129,255 steps per trial, 120 trials
        ('"mu": 1.0', '"mu": 1e-3', "worst case 120 replications x 115129255 steps = 13815510600 "
                                    "steps exceeds the limit of 10000000000 steps"),
        # a repeated stream would silently run a smaller signal set
        ('"K": 4', '"K": 4, "signal_set": [1, 2, 2]', "^model.signal_set repeats stream index 2$"),
        # 1000 steps per trial, but each one draws K + 1 normals
        ('"K": 4', '"K": 1000000', "^worst case 120 replications x 1000 steps x 1000001 normals = "
                                   "120000120000 normals exceeds the limit of 100000000000 normals$"),
    ],
)
def test_config_rejects_non_finite_duplicate_and_extreme_values(tmp_path, capsys, old, new, fragment):
    text = json.dumps(base_config())
    assert old in text
    path = tmp_path / "cfg.json"
    path.write_text(text.replace(old, new))
    with pytest.raises(ConfigError, match=fragment) as info:
        load_config(str(path))
    capsys.readouterr()
    for command in ("calibrate", "simulate", "sweep"):
        out = [] if command == "calibrate" else ["--out", tmp_path / "r.csv"]
        assert run_cli([command, "--config", path, *out]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"
    assert "\n" not in str(info.value)
    assert not (tmp_path / "r.csv").exists()


# ------------------------------------------------------------ report rows


def run_cli(args):
    return main([str(a) for a in args])


def read_report_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# seqgap ")
    rows = list(csv.DictReader(lines[1:]))
    return lines[0], rows


def test_simulate_csv_schema_and_values(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "report.csv"
    assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
    meta, rows = read_report_csv(out)
    assert "generator_id=philox4x64/splitmix64-keys/v1" in meta
    assert "master_seed=2024" in meta
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == SCHEMA
    assert row["rule"] == "gap"
    assert (row["variant"], row["l"], row["u"]) == ("", "", "")
    assert row["m"] == "2"
    assert row["reliable"] == "true"
    # cells are full-precision reprs
    spec = parse_config_dict(base_config()).spec
    summary = run_experiment(spec)
    assert row["mean_T"] == repr(summary.mean_T)
    assert row["pics_hat"] == repr(summary.metrics.pics.value)


def test_csv_and_json_agree_bitwise(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out_csv = tmp_path / "r.csv"
    out_json = tmp_path / "r.json"
    assert run_cli(["simulate", "--config", cfg, "--out", out_csv]) == 0
    assert run_cli(["simulate", "--config", cfg, "--out", out_json, "--format", "json"]) == 0
    _, csv_rows = read_report_csv(out_csv)
    doc = json.loads(out_json.read_text())
    assert doc["meta"]["master_seed"] == 2024
    json_row = doc["rows"][0]
    assert list(json_row) == SCHEMA
    for col in SCHEMA:
        value = json_row[col]
        cell = csv_rows[0][col]
        if isinstance(value, float):
            assert repr(value) == cell  # shortest-repr round trip
        elif isinstance(value, bool):
            assert cell == ("true" if value else "false")
        elif value is None:
            assert cell == ""
        else:
            assert str(value) == cell


def test_two_runs_are_bit_identical(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["simulate", "--config", cfg, "--out", out1]) == 0
    assert run_cli(["simulate", "--config", cfg, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# the gap rule on 256 streams, whose V, W and R columns are 16-bit: the pool's chunks must
# land in them; at horizon 6 most trials truncate (exit 2), scoring V = R = 255 and W = 1
WIDE_GAP = ({"K": 256, "rho": 0.5, "mu": 1.0}, {"kind": "gap", "m": 1}, ["--horizon", 6], 2)


@pytest.mark.parametrize("kind", sorted(RULE_KINDS) + ["gap-K256"])
def test_outputs_do_not_depend_on_workers(tmp_path, kind):
    model, rule, extra, status = (*RULE_EXAMPLES[kind], [], 0) if kind in RULE_KINDS else WIDE_GAP
    cfg = write_config(tmp_path, base_config(model=model, rule=rule))
    outputs = []
    for workers in (1, 2):
        report, dump = tmp_path / f"r{workers}.csv", tmp_path / f"t{workers}.csv"
        # 128 = 2 * _BLOCK trials, the fewest that run in a pool
        assert run_cli(["simulate", "--config", cfg, "--out", report, "--trial-dump", dump,
                        "--reps", 128, "--workers", workers, *extra]) == status
        outputs.append((report.read_bytes(), dump.read_bytes()))
    assert outputs[0] == outputs[1]
    if kind == "gap-K256":
        assert b",6,255,1,255,true\n" in outputs[0][1]


@pytest.mark.parametrize("grid", [{"alpha_grid": [1e-2, 1e-4]}, {"rho_grid": [0.0, 0.5]}], ids=["alpha", "rho"])
def test_sweep_outputs_do_not_depend_on_workers(tmp_path, monkeypatch, grid):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)  # two processes whatever the CPUs
    cfg = write_config(tmp_path, base_config(sweep=grid))
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"s{workers}.csv"
        assert run_cli(["sweep", "--config", cfg, "--out", out, "--reps", 200, "--workers", workers]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_trial_dump(tmp_path):
    cfg = write_config(tmp_path, base_config())
    dump = tmp_path / "trials.csv"
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "r.csv",
                    "--trial-dump", dump]) == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == ",".join(TRIAL_DUMP_SCHEMA)
    assert len(lines) == 1 + 120
    first = lines[1].split(",")
    assert first[0] == "0"
    assert int(first[1]) >= 1


def test_sweep_rows_and_asymptotes(tmp_path):
    doc = base_config(sweep={"alpha_grid": [1e-2, 1e-4]})
    doc["mc"]["replications"] = 60
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
    _, rows = read_report_csv(out)
    assert [r["alpha"] for r in rows] == ["0.01", "0.0001"]
    assert float(rows[0]["asymptote"]) == pytest.approx(2.302585, abs=1e-6)
    assert float(rows[1]["asymptote"]) == pytest.approx(4.605170, abs=1e-6)
    assert rows[0]["experiment_id"] != rows[1]["experiment_id"]


def test_sweep_requires_grid(tmp_path):
    cfg = write_config(tmp_path, base_config())
    assert run_cli(["sweep", "--config", cfg]) == 1


def test_overrides_change_the_run(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["simulate", "--config", cfg, "--out", out1, "--seed", 9, "--reps", 50]) == 0
    assert run_cli(["simulate", "--config", cfg, "--out", out2, "--seed", 10, "--reps", 50]) == 0
    _, rows1 = read_report_csv(out1)
    _, rows2 = read_report_csv(out2)
    assert rows1[0]["replications"] == "50"
    assert rows1[0]["master_seed"] == "9"
    assert rows1[0]["mean_T"] != rows2[0]["mean_T"]


@pytest.mark.parametrize("command, mc, extra, column, value", [
    ("simulate", {"replications": 10**8, "master_seed": 5}, ["--reps", 100], "replications", "100"),
    ("simulate", {"replications": 20, "master_seed": 5, "horizon_cap": 0}, ["--horizon", 50], "horizon_cap", "50"),
    ("sweep", {"replications": 2 * 10**7, "master_seed": 5}, ["--reps", 50], "replications", "50"),
], ids=["reps", "horizon", "sweep-reps"])
def test_an_override_replaces_a_value_the_file_alone_would_fail(tmp_path, capsys, command, mc, extra, column,
                                                                value):
    """An override is written into the config before it is parsed, so the file's own value is never checked."""
    cfg = write_config(tmp_path, base_config(mc=mc, sweep={"alpha_grid": [1e-2, 1e-3]}))
    out = tmp_path / "r.csv"
    assert run_cli([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert run_cli([command, "--config", cfg, "--out", out, *extra]) == 0
    _, rows = read_report_csv(out)
    assert {row[column] for row in rows} == {value}


@pytest.mark.parametrize("extra, message", [
    (["--reps", 0], "error: replications must be >= 1, got 0\n"),
    (["--seed", -1], "error: master_seed must be an unsigned 64-bit integer, got -1\n"),
    (["--horizon", 0], "error: horizon_cap must be >= 1, got 0\n"),
])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_bad_override_is_one_line_and_exit_1(tmp_path, capsys, command, extra, message):
    cfg = write_config(tmp_path, base_config(sweep={"alpha_grid": [1e-2]}))
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "r.csv", *extra]) == 1
    assert capsys.readouterr().err == message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_overrides_do_not_supply_a_missing_mc_object(tmp_path, capsys):
    doc = base_config()
    del doc["mc"]
    cfg = write_config(tmp_path, doc)
    for extra in ([], ["--seed", 1, "--reps", 10, "--horizon", 20]):
        assert run_cli(["simulate", "--config", cfg, *extra]) == 1
        assert capsys.readouterr().err == "error: missing required key 'mc' in config\n"


@pytest.mark.parametrize("nest", [lambda deep: deep, lambda deep: json.dumps(base_config()).replace(
    '{"K": 4, "rho": 0.5, "mu": 1.0}', deep)], ids=["bare", "model"])
@pytest.mark.parametrize("command", ["calibrate", "simulate"])
def test_a_deeply_nested_config_is_one_line_and_exit_1(tmp_path, capsys, command, nest):
    path = tmp_path / "cfg.json"
    path.write_text(nest("[" * 10**5 + "]" * 10**5))
    assert run_cli([command, "--config", path]) == 1
    assert capsys.readouterr().err == f"error: config {path} is nested too deeply to read\n"


# -------------------------------------------------------------- calibrate


def test_calibrate_gap_output(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    assert run_cli(["calibrate", "--config", cfg]) == 0
    out = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line
    )
    assert float(out["c"]) == pytest.approx(5.991465, abs=1e-6)
    assert float(out["G"]) == pytest.approx(2.995732, abs=1e-6)


def test_calibrate_maxgap_prints_both_variants(tmp_path, capsys):
    doc = base_config(
        model={"K": 5, "rho": 0.5, "mu": 1.0, "signal_set": [1, 2]},
        rule={"kind": "maxgap", "l": 1, "u": 3},
    )
    cfg = write_config(tmp_path, doc)
    assert run_cli(["calibrate", "--config", cfg]) == 0
    output = capsys.readouterr().out
    assert "variant sqrt2" in output and "variant unscaled" in output
    unscaled = next(l for l in output.splitlines() if "unscaled" in l)
    base, slope = unscaled.split("e(n) = ")[1].split(" + n * ")
    assert float(base) == pytest.approx(3.891612, abs=1e-6)
    assert float(slope) == 0.5


def test_calibrate_gi_output(tmp_path, capsys):
    doc = base_config(
        model={"K": 5, "rho": 0.0, "mu": 1.0, "signal_set": [1, 2]},
        rule={"kind": "gi", "l": 1, "u": 3},
    )
    cfg = write_config(tmp_path, doc)
    assert run_cli(["calibrate", "--config", cfg]) == 0
    out = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line
    )
    assert float(out["a"]) == pytest.approx(6.214608, abs=1e-6)
    assert float(out["b"]) == pytest.approx(6.214608, abs=1e-6)
    assert float(out["c"]) == pytest.approx(7.600902, abs=1e-6)
    assert float(out["d"]) == pytest.approx(7.313220, abs=1e-6)


def test_calibrate_takes_only_config(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "cal.txt"
    for extra in (["--out", out], ["--format", "json"], ["--workers", 2], ["--seed", 3],
                  ["--reps", 0], ["--horizon", 9]):
        capsys.readouterr()
        assert run_cli(["calibrate", "--config", cfg, *extra]) == 1
        err = capsys.readouterr().err
        assert err == f"error: unrecognized arguments: {' '.join(map(str, extra))}\n"
    assert not out.exists()


# --------------------------------------------------------------- sprt-asn


def test_sprt_asn_output(capsys):
    assert run_cli(["sprt-asn", "--theta0", 0, "--theta1", 1,
                    "--gamma", 0.01, "--delta", 0.01]) == 0
    out = capsys.readouterr().out
    assert "asn_wald_h0 = 9.006434906263797" in out
    assert "asn_wald_h1 = 9.006434906263797" in out
    assert "asn_asymptotic = 9.210340371976182" in out


def test_sprt_asn_one_sided_marks_na(capsys):
    assert run_cli(["sprt-asn", "--theta0", 0, "--theta1", 1,
                    "--gamma", 0.001, "--delta", 0]) == 0
    out = capsys.readouterr().out
    assert "asn_wald_h0 = N/A" in out
    assert "asn_wald_h1 = 13.815510557964274" in out


def test_sprt_asn_scale_invariance(capsys):
    assert run_cli(["sprt-asn", "--theta0", 0, "--theta1", 1, "--sigma2", 1]) == 0
    first = capsys.readouterr().out
    assert run_cli(["sprt-asn", "--theta0", 0, "--theta1", 2, "--sigma2", 4]) == 0
    assert capsys.readouterr().out == first


def test_sprt_asn_invalid_config(capsys):
    assert run_cli(["sprt-asn", "--theta0", 1, "--theta1", 0]) == 1


@pytest.mark.parametrize(
    "extra, fragment",
    [
        (["--sigma2", "inf"], "sigma2 must be finite"),
        (["--theta1", "1e-200"], "information number"),
        (["--theta1", "inf"], "theta1 must be finite"),
        (["--theta0", "nan"], "theta0 must be finite"),
        (["--gamma", "1e-320", "--delta", "0"], "boundary a"),
        (["--theta1", "1e-160"], "asymptotic mean sample size"),
    ],
)
def test_sprt_asn_refuses_extreme_input(capsys, extra, fragment):
    # later flags win: each case overrides the valid base
    assert run_cli(["sprt-asn", "--theta0", 0, "--theta1", 1] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert fragment in err


# -------------------------------------------------------------- exit codes


def test_exit_codes(tmp_path):
    bad = write_config(tmp_path, base_config(extra=1), name="bad.json")
    good = write_config(tmp_path, base_config())
    assert run_cli(["simulate", "--config", bad]) == 1
    assert run_cli(["simulate", "--config", str(tmp_path / "none.json")]) == 1
    assert run_cli(["simulate", "--config", good, "--out",
                    tmp_path / "no-dir" / "x.csv"]) == 3
    assert run_cli(["simulate", "--config", good, "--out", tmp_path / "t.csv",
                    "--horizon", 1]) == 2
    assert run_cli(["simulate"]) == 1  # missing --config
    assert run_cli(["simulate", "--config", good, "--workers", 0]) == 1


def test_dead_worker_is_one_line_and_exit_3(tmp_path, monkeypatch, capsys):
    run_chunk, here = montecarlo._run_chunk, os.getpid()

    def die_in_a_worker(spec, start, stop):  # this process runs its chunks through ``_run_chunk`` too
        if os.getpid() != here:
            os._exit(1)
        return run_chunk(spec, start, stop)

    monkeypatch.setattr(montecarlo, "_run_chunk", die_in_a_worker)
    cfg = write_config(tmp_path, base_config())
    capsys.readouterr()
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "r.csv",
                    "--trial-dump", tmp_path / "t.csv", "--reps", 300, "--workers", 2]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_a_worker_killed_mid_run_is_one_line_and_exit_3(tmp_path):
    """A pool worker that dies after its first chunk: one ``error:`` line
    on the real stderr, exit 3, no outputs.  A fresh interpreter, so that a
    traceback from the pool's threads, which ``capsys`` misses, shows."""
    cfg = write_config(tmp_path, base_config())
    code = (
        "import os, signal, sys\n"
        "import seqgap.montecarlo as montecarlo\n"
        "from seqgap.cli import main\n"
        "run_chunk, here = montecarlo._run_chunk, os.getpid()\n"
        "def die_after_the_first(spec, start, stop):\n"
        "    if start > 0 and os.getpid() != here:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return run_chunk(spec, start, stop)\n"
        "montecarlo._run_chunk = die_after_the_first\n"
        "montecarlo._usable_cpus = lambda: 2\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    rc, out, err = _python(tmp_path, code, "simulate", "--config", cfg, "--out", "r.csv",
                           "--trial-dump", "t.csv", "--reps", 4000, "--workers", 2)
    assert (rc, out) == (3, "")
    assert err.startswith("error: a worker process died: ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_a_worker_gone_before_a_send_is_one_line_and_exit_3(tmp_path):
    """A worker that dies when it takes up its second chunk start, after it has sent back its
    first result: this process takes that result back, and its next send meets a closed pipe."""
    cfg = write_config(tmp_path, base_config())
    code = (
        "import multiprocessing, os, signal, sys, time\n"
        "import seqgap.montecarlo as montecarlo\n"
        "from seqgap.cli import main\n"
        "run_chunk, run_trials, taken = montecarlo._run_chunk, montecarlo._run_trials, []\n"
        "here = os.getpid()\n"
        "def die_at_the_second_start(spec, start, stop):\n"
        "    if os.getpid() != here:\n"
        "        taken.append(start)\n"
        "        if len(taken) == 2:\n"
        "            os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return run_chunk(spec, start, stop)\n"
        "def once_the_worker_is_gone(*args):\n"
        "    while multiprocessing.active_children():\n"
        "        time.sleep(0.01)\n"
        "    return run_trials(*args)\n"
        "montecarlo._run_chunk = die_at_the_second_start\n"
        "montecarlo._run_trials = once_the_worker_is_gone\n"
        "montecarlo._usable_cpus = lambda: 2\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    rc, out, err = _python(tmp_path, code, "simulate", "--config", cfg, "--out", "r.csv",
                           "--trial-dump", "t.csv", "--reps", 4000, "--workers", 2)
    assert (rc, out) == (3, "")
    assert err.startswith("error: a worker process died: pid ") and err.endswith(", exit code -9\n"), err
    assert err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_ctrl_c_is_one_line_exit_130_and_leaves_no_process(tmp_path):
    """SIGINT to the process group of a ``--workers 2`` run, sent by this process at its second
    chunk: one ``interrupted`` line, exit 130, no worker left in the group and no output.  This
    process takes the signal half a second after the workers, so that a worker that does not
    ignore it has the time to print its own traceback."""
    cfg = write_config(tmp_path, base_config())
    code = (
        "import os, signal, sys, time\n"
        "os.setpgrp()\n"  # a group of its own, with the workers that it forks
        "print(os.getpid(), flush=True)\n"
        "import seqgap.montecarlo as montecarlo\n"
        "from seqgap.cli import main\n"
        "run_trials, calls, here = montecarlo._run_trials, [], os.getpid()\n"
        "def interrupt_at_the_second(*args):\n"  # the workers' chunks run through it too
        "    calls.append(args[1])\n"
        "    if len(calls) == 2 and os.getpid() == here:\n"
        "        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})\n"
        "        os.killpg(0, signal.SIGINT)\n"
        "        time.sleep(0.5)\n"
        "        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})\n"
        "    return run_trials(*args)\n"
        "montecarlo._run_trials = interrupt_at_the_second\n"
        "montecarlo._usable_cpus = lambda: 2\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    rc, out, err = _python(tmp_path, code, "simulate", "--config", cfg, "--out", "r.csv",
                           "--trial-dump", "t.csv", "--reps", 4000, "--workers", 2)
    assert (rc, err) == (130, "interrupted\n")
    with pytest.raises(ProcessLookupError):
        os.killpg(int(out), 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def _gone(pid):
    """True once ``pid`` has exited: no such process, or a zombie that its new parent never reaps."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_the_workers_exit_when_this_process_is_killed(tmp_path):
    """SIGKILL to a ``--workers 3`` run at its second chunk, which leaves it no way to stop its
    workers: they hold no end of its pipes, so their pipes break and they exit by themselves."""
    cfg = write_config(tmp_path, base_config())
    code = (
        "import multiprocessing, os, signal, sys\n"
        "os.setpgrp()\n"  # a group of its own, with the workers that it forks
        "open('pgid', 'w').write(str(os.getpid()))\n"
        "import seqgap.montecarlo as montecarlo\n"
        "from seqgap.cli import main\n"
        "run_trials, calls, here = montecarlo._run_trials, [], os.getpid()\n"
        "def die_at_the_second(*args):\n"  # the workers' chunks run through it too
        "    calls.append(args[1])\n"
        "    if len(calls) == 2 and os.getpid() == here:\n"
        "        print(*(child.pid for child in multiprocessing.active_children()), flush=True)\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return run_trials(*args)\n"
        "montecarlo._run_trials = die_at_the_second\n"
        "montecarlo._usable_cpus = lambda: 3\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    try:  # the workers hold the run's stdout: this returns once they close it, as they exit
        rc, out, err = _python(tmp_path, code, "simulate", "--config", cfg, "--out", "r.csv",
                               "--reps", 4000, "--workers", 3)
        assert (rc, err) == (-signal.SIGKILL, "")
        workers = [int(pid) for pid in out.split()]
        assert len(workers) == 2
        deadline = time.monotonic() + 10
        while not all(map(_gone, workers)):
            assert time.monotonic() < deadline, [pid for pid in workers if not _gone(pid)]
            time.sleep(0.01)
    finally:  # a worker that outlives the run would outlive the test
        with contextlib.suppress(FileNotFoundError, ProcessLookupError):
            os.killpg(int((tmp_path / "pgid").read_text()), signal.SIGKILL)


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the run started although an output cannot be written")


GI_CONFIG = {
    "model": {"K": 5, "rho": 0.0, "mu": 1.0, "signal_set": [1, 2]},
    "rule": {"kind": "gi", "l": 1, "u": 3},
}


@pytest.mark.parametrize("doc, message", [
    (base_config(sweep={"rho_grid": [0.0, 0.5, 1.5]}),
     "error: rho_grid entry 1.5: rho out of range [0, 1): 1.5"),
    (base_config(sweep={"alpha_grid": [0.1, 0.01, -0.5]}),
     "error: alpha_grid entry -0.5: alpha must be in (0, 1), got -0.5"),
    (base_config(**GI_CONFIG, sweep={"rho_grid": [0.0, 0.2]}),
     "error: rho_grid entry 0.2: the gap-intersection baseline is calibrated for independent streams"),
    (base_config(model={"K": 4, "rho": 0.5, "mu": 0.01}, sweep={"alpha_grid": [0.01, 1e-300]}),
     "error: alpha_grid entry 1e-300: worst case 120 replications x "),
], ids=["rho", "alpha", "gi-rho", "alpha-budget"])
def test_sweep_rejects_a_bad_grid_point_before_any_runs(tmp_path, monkeypatch, capsys, doc, message):
    monkeypatch.setattr(montecarlo, "run_experiment", _refuse_to_run)
    cfg = write_config(tmp_path, doc)
    with pytest.raises(ConfigError) as info:
        load_config(cfg)
    assert f"error: {info.value}".startswith(message)
    capsys.readouterr()
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "r.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_unwritable_output_fails_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(montecarlo, "run_experiment_with_trials", _refuse_to_run)
    monkeypatch.setattr(montecarlo, "sweep", _refuse_to_run)
    cfg = write_config(tmp_path, base_config(sweep={"alpha_grid": [1e-2]}))
    missing = tmp_path / "no-dir"
    report = tmp_path / "r.csv"
    assert run_cli(["simulate", "--config", cfg, "--out", missing / "r.csv"]) == 3
    assert run_cli(["sweep", "--config", cfg, "--out", missing / "r.csv"]) == 3
    # a good report path with a bad trial dump path writes neither
    assert run_cli(["simulate", "--config", cfg, "--out", report,
                    "--trial-dump", missing / "t.csv"]) == 3
    capsys.readouterr()
    assert run_cli(["simulate", "--config", cfg, "--out", report,
                    "--trial-dump", tmp_path]) == 3  # a directory
    assert capsys.readouterr().err == f"I/O error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_outputs_resolving_to_one_file_are_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(montecarlo, "run_experiment_with_trials", _refuse_to_run)
    cfg = write_config(tmp_path, base_config())
    report, link = tmp_path / "r.csv", tmp_path / "link.csv"
    report.write_text("earlier report\n")
    link.symlink_to(report)
    (tmp_path / "t").mkdir()
    for dump in (report, tmp_path / "t" / ".." / "r.csv", link):
        capsys.readouterr()
        assert run_cli(["simulate", "--config", cfg, "--out", report, "--trial-dump", dump]) == 1
        err = capsys.readouterr().err
        assert err == f"error: two outputs resolve to the same file: {os.path.realpath(report)}\n"
    assert report.read_text() == "earlier report\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json", "link.csv", "r.csv", "t"]


def test_failed_run_leaves_no_outputs(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("worker failed")

    monkeypatch.setattr(montecarlo, "run_experiment_with_trials", fail)
    cfg = write_config(tmp_path, base_config())
    report, dump = tmp_path / "r.csv", tmp_path / "t.csv"
    report.write_text("earlier report\n")
    assert run_cli(["simulate", "--config", cfg, "--out", report, "--trial-dump", dump]) == 1
    assert report.read_text() == "earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "r.csv"]


def test_output_through_symlink_and_pipe(tmp_path):
    cfg = write_config(tmp_path, base_config())
    # a symlinked destination is written through, the link itself stays
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to(real)
    assert run_cli(["simulate", "--config", cfg, "--out", link]) == 0
    assert link.is_symlink() and real.read_text().startswith("# seqgap ")
    # a pipe cannot be replaced by a file: it is written directly
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli(["simulate", "--config", cfg, "--out", fifo]) == 0
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert data == real.read_bytes()


def test_readme_library_import_line():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    line = next(
        text for text in readme.read_text().splitlines() if text.startswith("from seqgap import")
    )
    exec(line, {})


def test_the_readme_config_and_flags_are_the_programs():
    """The README's JSON config parses; every flag that its CLI section names is an option of a
    command, and every ``seqgap`` command line in it parses."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    parse_config_dict(json.loads(re.search(r"```json\n(.*?)```", cli_section, re.S).group(1)))
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == {"calibrate", "simulate", "sweep", "sprt-asn"}
    options = {flag for command in commands.values() for flag in command._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", cli_section))
    assert {"--config", "--reps", "--trial-dump", "--theta0"} <= named <= options, named - options
    lines = re.findall(r"^seqgap (.+?)(?:\s+#.*)?$", readme, re.M)
    lines += re.findall(r"`seqgap ((?:calibrate|simulate|sweep|sprt-asn) [^`]+)`", readme)
    assert len(lines) >= 5
    for line in lines:
        parser.parse_args(line.split())


def test_tests_import_this_checkout():
    """``python -m pytest`` puts ``src/`` first on the path (pyproject's ``pythonpath``)."""
    src = Path(__file__).resolve().parents[1] / "src"
    assert Path(seqgap.__file__).resolve().is_relative_to(src)


@pytest.mark.parametrize("valid", [True, False])
def test_python_m_seqgap_runs_the_cli(tmp_path, valid):
    """``python -m seqgap`` is ``python -m seqgap.cli``: same stdout, stderr and exit code."""
    path = write_config(tmp_path, base_config() if valid else base_config(extra=1))
    env = dict(os.environ, PYTHONPATH=str(Path(seqgap.__file__).resolve().parents[1]))
    package, module = (
        subprocess.run([sys.executable, "-m", name, "calibrate", "--config", path],
                       capture_output=True, text=True, env=env, timeout=60)
        for name in ("seqgap", "seqgap.cli")
    )
    assert (package.returncode, package.stdout, package.stderr) == (module.returncode, module.stdout, module.stderr)
    if valid:
        assert package.returncode == 0 and package.stdout.startswith("rule = gap")
    else:
        assert package.returncode == 1 and package.stderr.startswith("error: ")


# Modules that the spec layer and the commands that run no trials must not load:
# the engine's, and OpenSSL's (``_hashlib``), which only a report's experiment id needs.
_TRIAL_ONLY = ("numpy", "numpy.random", "multiprocessing", "_hashlib")


def _python(tmp_path, code, *argv):
    """Run ``code`` in a fresh interpreter on this checkout; return (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(seqgap.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True,
                            text=True, env=env, cwd=tmp_path, timeout=60)
    return result.returncode, result.stdout, result.stderr


def _loaded_after(tmp_path, statement, *argv, modules=_TRIAL_ONLY):
    code = f"import sys\n{statement}\nprint([m for m in {modules!r} if m in sys.modules])"
    return _python(tmp_path, code, *argv)


def test_the_spec_layer_and_the_trial_free_commands_load_no_numpy(tmp_path):
    """Parsing, calibrating and checking a config need only ``math``.

    numpy, ``numpy.random``, ``multiprocessing`` and ``_hashlib`` stay
    unloaded after importing every module but the engine and after ``calibrate``,
    ``sprt-asn`` and a bad config.  The package still resolves
    ``run_experiment``, and importing the engine loads numpy.
    """
    spec_layer = ("import seqgap, seqgap.cli, seqgap.config, seqgap.rules, seqgap.sprt, seqgap.model, "
                  "seqgap.metrics")
    assert _loaded_after(tmp_path, spec_layer) == (0, "[]\n", "")
    good = write_config(tmp_path, base_config())
    bad = write_config(tmp_path, base_config(model={"K": 4, "rho": 0.5, "mu": 1.0, "signal_set": [1, 9]}),
                       name="bad.json")
    run = "from seqgap.cli import main\nprint('exit', main(sys.argv[1:]))"
    code, out, err = _loaded_after(tmp_path, run, "calibrate", "--config", good)
    assert (code, out.startswith("rule = gap\n"), out.endswith("\nexit 0\n[]\n"), err) == (0, True, True, "")
    code, out, err = _loaded_after(tmp_path, run, "sprt-asn", "--theta0", 0, "--theta1", 1)
    assert (code, out.startswith("asn_wald_h0 = "), out.endswith("\nexit 0\n[]\n"), err) == (0, True, True, "")
    for command in ("calibrate", "simulate", "sweep"):
        assert _loaded_after(tmp_path, run, command, "--config", bad) == (
            0, "exit 1\n[]\n", "error: signal_set contains streams outside 1..4: [9]\n")
    code, out, err = _loaded_after(tmp_path, "import seqgap\nprint(seqgap.run_experiment.__module__)")
    assert (code, out.startswith("seqgap.montecarlo\n"), "'numpy'" in out, err) == (0, True, True, "")
    code, out, err = _loaded_after(tmp_path, "import seqgap.montecarlo")
    assert (code, "'numpy'" in out, err) == (0, True, "")


# Modules that only a run that starts worker processes may load: the pipes' stack.  Nothing loads
# the executor's (``concurrent.futures``, with ``logging`` and ``queue``) at any worker count.
_POOL_ONLY = ("multiprocessing", "multiprocessing.connection")
_EXECUTOR = ("concurrent.futures", "concurrent.futures.process", "logging", "queue")


def test_only_a_run_that_starts_a_pool_loads_the_pool_stack(tmp_path):
    """A single-process ``simulate`` with a trial dump and an ``sprt_error_mc`` call load no
    ``multiprocessing``; a ``--workers 2`` run loads its pipes, and writes the same bytes.  No run
    loads ``concurrent.futures``, ``logging`` or ``queue``."""
    cfg = write_config(tmp_path, base_config(mc={"replications": 300, "master_seed": 2024}))
    run = "from seqgap.cli import main\nprint('exit', main(sys.argv[1:]))"
    outputs = {}
    for workers in (1, 2):
        argv = ("simulate", "--config", cfg, "--out", f"r{workers}.csv", "--trial-dump", f"t{workers}.csv",
                "--workers", workers)
        # two processes whatever the CPUs this test runs on
        setup = "import seqgap.montecarlo\nseqgap.montecarlo._usable_cpus = lambda: 2\n" if workers == 2 else ""
        outputs[workers] = _loaded_after(tmp_path, setup + run, *argv, modules=_POOL_ONLY + _EXECUTOR)
    assert outputs[1] == (0, "exit 0\n[]\n", "")
    assert outputs[2] == (0, f"exit 0\n{list(_POOL_ONLY)}\n", "")
    for name in ("r", "t"):
        assert (tmp_path / f"{name}1.csv").read_bytes() == (tmp_path / f"{name}2.csv").read_bytes()
    sprt = ("from seqgap.montecarlo import sprt_error_mc\nfrom seqgap.sprt import SprtConfig\n"
            "print(sprt_error_mc(SprtConfig(0.0, 1.0, 1.0, 0.01, 0.01), 'h1', 300, 11).replications)")
    assert _loaded_after(tmp_path, sprt, modules=_POOL_ONLY + _EXECUTOR) == (0, "300\n[]\n", "")


def test_calibrate_at_ten_million_streams_stays_small(tmp_path):
    """Checking a config costs O(|signal_set|), not O(K), in memory and time.

    One trial's worst case is 1000 steps of 10^7 + 1 normals, 1.0 x 10^10
    normals; 120 trials exceed the limit of 10^11 normals and are refused.
    """
    code = (
        "import resource, subprocess, sys\n"
        "done = subprocess.run([sys.executable, '-m', 'seqgap', 'calibrate', '--config', sys.argv[1]],"
        " capture_output=True, text=True)\n"
        "print(done.returncode, repr(done.stdout.splitlines()[:1]), repr(done.stderr))\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    refused = ("error: worst case 120 replications x 1000 steps x 10000001 normals = "
               "1200000120000 normals exceeds the limit of 100000000000 normals\n")
    for replications, want in ((1, "0 ['rule = gap'] ''"), (120, f"1 [] {refused!r}")):
        cfg = write_config(tmp_path, base_config(model={"K": 10**7, "rho": 0.5, "mu": 1.0},
                                                 mc={"replications": replications, "master_seed": 2024}))
        rc, out, err = _python(tmp_path, code, cfg)
        status, peak_kb = out.splitlines()
        assert (rc, status, err) == (0, want, "")
        assert int(peak_kb) < 150 * 1024, f"calibrate at K=10^7 peaked at {int(peak_kb) / 1024:.0f} MB"


def test_simulate_at_two_hundred_thousand_streams_stays_small(tmp_path):
    """A trial's blocks of draws are capped in size, not only in rows, so memory stays O(K)."""
    cfg = write_config(tmp_path, base_config(model={"K": 2 * 10**5, "rho": 0.5, "mu": 1.0},
                                             rule={"kind": "gap", "m": 1},
                                             mc={"replications": 1, "master_seed": 2024}))
    code = (
        "import resource, subprocess, sys\n"
        "done = subprocess.run([sys.executable, '-m', 'seqgap', 'simulate', '--config', sys.argv[1]],"
        " capture_output=True, text=True)\n"
        "print(done.returncode, len(done.stdout.splitlines()), done.stderr == '')\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    rc, out, err = _python(tmp_path, code, cfg)
    status, peak_kb = out.splitlines()
    assert (rc, status, err) == (0, "0 3 True", "")
    assert int(peak_kb) < 150 * 1024, f"simulate at K=2*10^5 peaked at {int(peak_kb) / 1024:.0f} MB"


def test_summary_and_trial_dump_memory_stays_flat_at_a_million_trials(tmp_path):
    """Beyond the result columns, summarizing and dumping a run hold one slice of trials.

    The columns of 10^6 trials are built directly, without a simulation, once all int64 and
    once in the widths that a run of this config picks, each in a fresh interpreter.
    A whole-run list of per-trial floats (about 32 MB), a whole dump held as one string (about
    20 MB, more as a list of lines) or an int64 copy of the narrow V, W and R columns (24 MB)
    exceeds the bound.
    """
    code = (
        "import io, random, resource, sys\n"
        "from array import array\n"
        "from seqgap.cli import write_trial_dump\n"
        "from seqgap.config import load_config\n"
        "from seqgap.montecarlo import TrialColumns, summarize\n"
        "spec = load_config(sys.argv[1]).spec\n"
        "rng = random.Random(1)\n"
        "pattern = []\n"
        "for _ in range(1000):\n"
        "    r = rng.randint(0, 4)\n"
        "    v, w, x = rng.randint(0, r), rng.randint(0, 4 - r), int(rng.random() < 0.01)\n"
        "    pattern.append((rng.randint(1, 40), v, w, r, x))\n"
        "small = TrialColumns(*map(array, sys.argv[2], zip(*pattern)))\n"
        "summarize(spec, small); write_trial_dump(io.StringIO(), small)  # imports and caches first\n"
        "trials = TrialColumns(*(column * 1000 for column in small))\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "base = peak()\n"
        "summarize(spec, trials)\n"
        "summarized = peak()\n"
        "with open('dump.csv', 'w', encoding='utf-8', newline='') as fh:\n"
        "    write_trial_dump(fh, trials)\n"
        "print(len(trials.T), summarized - base, peak() - base)"
    )
    doc = base_config(mc={"replications": 10**6, "master_seed": 1})
    cfg = write_config(tmp_path, doc)
    # a process starts with the peak RSS of the one it was forked from, so the code runs in a
    # grandchild of a small interpreter, not in a child of the test runner
    launch = "import subprocess, sys\nsys.exit(subprocess.run([sys.executable, *sys.argv[1:]]).returncode)"
    horizon = parse_config_dict(doc).spec.resolved_horizon_cap()  # 1000: 'H' stopping times
    narrow = "".join(column.typecode for column in montecarlo.TrialColumns.zeros(0, 4, horizon))
    for typecodes in ("qqqqq", narrow):
        rc, out, err = _python(tmp_path, launch, "-c", code, cfg, typecodes)
        assert (rc, err) == (0, ""), err
        n, summary_kb, dump_kb = map(int, out.split())
        assert n == 10**6
        assert summary_kb < 10 * 1024, (
            f"{typecodes}: summarizing 10^6 trials added {summary_kb / 1024:.0f} MB")
        assert dump_kb < 10 * 1024, (
            f"{typecodes}: summarizing and dumping 10^6 trials added {dump_kb / 1024:.0f} MB")
        assert (tmp_path / "dump.csv").read_text().count("\n") == 10**6 + 1


@pytest.mark.parametrize("module", ["seqgap"] + [
    f"seqgap.{name}" for name in ("model", "rules", "montecarlo", "metrics", "sprt", "config", "cli")
])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ names {name!r}, which is not defined"


def test_every_module_parses_at_the_python_floor():
    """Only one interpreter may be installed: parse each module as source of the oldest Python
    that ``requires-python`` admits, so that newer syntax fails here."""
    root = Path(seqgap.__file__).parent
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (root.parents[1] / "pyproject.toml").read_text())
    assert floor
    modules = sorted(root.glob("*.py"))
    assert root / "montecarlo.py" in modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, int(floor[1])))


def test_undefined_conditional_serialization(tmp_path):
    """The writer emits empty CSV cells and JSON nulls for undefined values."""
    spec = parse_config_dict(base_config()).spec
    summary = run_experiment(spec)
    row = summary_row(spec, summary)
    row["pfdr_hat"] = None
    row["pfdr_defined"] = False
    out = tmp_path / "u.csv"
    with open(out, "w") as fh:
        write_report_csv(fh, [row], {"stub": True}, 0)
    _, rows = read_report_csv(out)
    assert rows[0]["pfdr_hat"] == ""
    assert rows[0]["pfdr_defined"] == "false"
