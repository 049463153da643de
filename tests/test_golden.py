"""Byte-level pins of the calibrate printout and both report formats, one
config per rule kind.

Any change to these bytes is a change to the published outputs and must
come with a bump of GENERATOR_ID or the report schema; a refactor must
leave every pin as it is.
"""

import hashlib
import json

import pytest

from seqgap.cli import main

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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_output_bytes_are_pinned(tmp_path, capsys, kind):
    doc = dict(
        CONFIGS[kind],
        targets={"alpha": 0.01, "beta": 0.01},
        mc={"replications": 300, "master_seed": 20260826},
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["calibrate", "--config", str(cfg)]) == 0
    calibrate_out = capsys.readouterr().out.encode("utf-8")
    out_csv, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_csv)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_json), "--format", "json"]) == 0
    got = (_sha256(calibrate_out), _sha256(out_csv.read_bytes()), _sha256(out_json.read_bytes()))
    assert got == PINS[kind]
