"""Byte-level pins of the calibrate printout, both report formats and the
trial dump, one config per rule kind, and exact pins of the SPRT's Monte
Carlo estimates.

Any change to these bytes is a change to the published outputs and must
come with a bump of GENERATOR_ID or the report schema; a refactor must
leave every pin as it is.
"""

import dataclasses
import hashlib
import json

import pytest

from seqgap.cli import main
from seqgap.montecarlo import sprt_error_mc
from seqgap.sprt import SprtConfig

CONFIGS = {
    "gap": {
        "model": {"K": 4, "rho": 0.5, "mu": 1.0},
        "rule": {"kind": "gap", "m": 2, "target_metric": "pfer"},
    },
    "maxgap": {
        "model": {"K": 5, "rho": 0.5, "mu": 1.0, "signal_set": [1, 2]},
        "rule": {"kind": "maxgap", "l": 1, "u": 3, "variant": "unscaled"},
    },
    "gi": {
        "model": {"K": 5, "rho": 0.3, "mu": 1.0, "signal_set": [2, 4]},
        "rule": {"kind": "gi", "l": 1, "u": 3, "experimental_correlated": True},
    },
}

# sha256 of (calibrate stdout, CSV report, JSON report)
PINS = {
    "gap": (
        "ac44535f5aff85217e899f1129d28f30a78acc7237d7ece521e2a26321a40edc",
        "5863be07e3bec638b3a0fa09dea33115ad9ba4d8b84e827637a0628c611ac81e",
        "a0d51fb9f6cec935d37c62501189c373ad8ff8a472878214ea3b81d6cd050958",
    ),
    "maxgap": (
        "1617cfdd4a3c35fdaa891b748c7c66a8e2503713b46f3774af895595fd2b3100",
        "162d2dd4af0f7c375ca2304e51fb37993bd59543689647056f9c895d3113693e",
        "9252bed77053169faa10e551913ac157b53b21d8e67190d329e59923bdf93b14",
    ),
    "gi": (
        "9128be4db186b7781804234a96a1181ee3930be4fc11a923c1f0344c72203201",
        "71b8288c5fde43855009f8811490ce9b46512f176d074b948bb9221df0677873",
        "8eaf15511fc3a0682a3b7ac6acecaf99e3cd634cb5b85c8d81addb6ef3643ae6",
    ),
}

# sha256 of the trial dump written beside the CSV report
DUMP_PINS = {
    "gap": "d3cec2eaaa232d54f47376199c40fad762c467a68c5d439e4aba7b626b52d9ea",
    "maxgap": "ed4facd1988f9c74828d8c9bcb0df7bf24c83124748b991cd268eb51e615c797",
    "gi": "489d1a168f3b80aa10b903bad5027d1f1d73f22c9cd9b3da685f79cee90b7601",
}

# the gap config's dump at --horizon 3, where most trials truncate
TRUNCATED_DUMP_PIN = "5a773634819ce459b8cb77318ec30f663a13f74fd7fa3cb65674fa9b33f71630"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_config(tmp_path, kind):
    doc = dict(
        CONFIGS[kind],
        targets={"alpha": 0.01, "beta": 0.01},
        mc={"replications": 300, "master_seed": 20260826},
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_output_bytes_are_pinned(tmp_path, capsys, kind):
    cfg = _write_config(tmp_path, kind)
    capsys.readouterr()
    assert main(["calibrate", "--config", str(cfg)]) == 0
    calibrate_out = capsys.readouterr().out.encode("utf-8")
    out_csv, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_csv)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_json), "--format", "json"]) == 0
    got = (_sha256(calibrate_out), _sha256(out_csv.read_bytes()), _sha256(out_json.read_bytes()))
    assert got == PINS[kind]


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_trial_dump_bytes_are_pinned(tmp_path, kind):
    cfg = _write_config(tmp_path, kind)
    dump = tmp_path / "trials.csv"
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.csv"),
                 "--trial-dump", str(dump)]) == 0
    assert _sha256(dump.read_bytes()) == DUMP_PINS[kind]


def test_truncated_trial_dump_bytes_are_pinned(tmp_path):
    cfg = _write_config(tmp_path, "gap")
    dump = tmp_path / "trials.csv"
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.csv"),
                 "--trial-dump", str(dump), "--horizon", "3"]) == 2  # unreliable
    assert ",2,2,2,true\n" in dump.read_text()  # a truncated row scores all wrong
    assert _sha256(dump.read_bytes()) == TRUNCATED_DUMP_PIN


SYMMETRIC = SprtConfig(0.0, 1.0, 1.0, 0.01, 0.01)
SPRT_PINS = [
    ((SYMMETRIC, "h0", 2000, 11), {
        "mean_T": 10.5935, "se_T": 0.1400408318751931, "error_rate": 0.006,
        "error_se": 0.0017268468374467957, "truncation_count": 0, "replications": 2000,
    }),
    ((SYMMETRIC, "h1", 2000, 12), {
        "mean_T": 10.4895, "se_T": 0.1396072704768095, "error_rate": 0.0055,
        "error_se": 0.0016537457482938543, "truncation_count": 0, "replications": 2000,
    }),
    ((SprtConfig(0.0, 1.0, 1.0, 0.01, 0.0), "h1", 2000, 13), {  # one-sided
        "mean_T": 10.243, "se_T": 0.1338989916690378, "error_rate": 0.0,
        "error_se": 0.0, "truncation_count": 0, "replications": 2000,
    }),
    ((SYMMETRIC, "h1", 2000, 14, 5), {  # a 5-step horizon truncates most runs
        "mean_T": 4.838, "se_T": 0.011110342922697445, "error_rate": 0.804,
        "error_se": 0.00887648579112252, "truncation_count": 1605, "replications": 2000,
    }),
]


@pytest.mark.parametrize("args, pinned", SPRT_PINS, ids=["h0", "h1", "one-sided", "truncated"])
def test_sprt_estimates_are_pinned(args, pinned):
    got = dataclasses.asdict(sprt_error_mc(*args))
    assert got == pinned
    assert all(type(got[k]) is type(v) for k, v in pinned.items())
