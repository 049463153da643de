"""Guards on how the package is built and how it fails.

A config that holds one huge value must fail in one line before anything
of that size is built: each case runs the command in a fresh interpreter
whose address space is capped, where building first would end in a
``MemoryError`` traceback instead.  The version a report's meta line
carries is written in ``pyproject.toml`` and in ``seqgap._version``, and
the two must agree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqgap

resource = pytest.importorskip("resource")

ROOT = Path(__file__).resolve().parents[1]

# a good ``calibrate`` runs under a 64 MB cap
ADDRESS_SPACE_CAP = 256 * 2**20


def _config(model=None, rule=None, mc=None):
    return {
        "model": {"K": 4, "rho": 0.5, "mu": 1.0, **(model or {})},
        "rule": rule or {"kind": "gap", "m": 2},
        "targets": {"alpha": 0.01, "beta": 0.01},
        "mc": {"replications": 120, "master_seed": 2024, **(mc or {})},
    }


HUGE = {
    "rule.m": _config(rule={"kind": "gap", "m": 10**8}),
    "model.K": _config(model={"K": 10**12}),
    "signal_set": _config(model={"signal_set": [1, 10**12]}),
    "mc.replications": _config(mc={"replications": 10**18}),
    "mc.horizon_cap": _config(mc={"horizon_cap": 10**18}),
    "maxgap.u": _config(model={"signal_set": [1, 2]}, rule={"kind": "maxgap", "l": 1, "u": 10**9}),
    "gi.l": _config(model={"rho": 0.0, "signal_set": [1, 2]}, rule={"kind": "gi", "l": 10**9, "u": 3}),
    "mu": _config(model={"mu": 1e-300}),
}


def _capped(limit):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit here")
@pytest.mark.parametrize("name", list(HUGE))
def test_one_huge_value_fails_in_one_line_under_a_memory_cap(tmp_path, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(HUGE[name]))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command in ["calibrate", "simulate", "sweep"] if name == "rule.m" else ["calibrate"]:
        done = subprocess.run(
            [sys.executable, "-m", "seqgap", command, "--config", str(path)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
            preexec_fn=lambda: _capped(ADDRESS_SPACE_CAP),
        )
        assert done.returncode == 1, (command, done.stderr[-2000:])
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, (command, done.stderr[-2000:])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_pyproject_version_is_the_package_version():
    """Every report's meta line carries ``seqgap.__version__``; it must be the one that is built."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == seqgap.__version__
