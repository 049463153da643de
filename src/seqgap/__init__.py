"""Sequential multiple testing for equicorrelated Gaussian streams.

Identify which of K parallel data streams carry an elevated mean, observing
all streams sequentially and stopping as soon as the ordered cumulative
sums separate enough to decide.  The package provides the stopping rules
(gap rule for a known signal count, max-gap rule for bounded counts, a
gap-intersection baseline for independent streams, and the classical
two-boundary sequential test they reduce to), their threshold calibrations,
and a deterministic Monte Carlo harness that estimates the realized error
rates and mean sample sizes against the theoretical asymptotes.

The package namespace holds what an experiment needs; everything else is
imported from its submodule (``seqgap.model``, ``seqgap.rules``,
``seqgap.montecarlo``, ``seqgap.metrics``, ``seqgap.sprt``,
``seqgap.config``), each of which lists its public names in ``__all__``.

Importing the package loads no numpy: ``run_experiment`` is resolved from
``seqgap.montecarlo``, the engine, on first access.
"""

from ._version import __version__
from .config import ConfigError, ExperimentSpec, load_config
from .model import ModelParams
from .rules import GapRuleSpec, GiRuleSpec, MaxGapRuleSpec

__all__ = [
    "__version__",
    "ConfigError",
    "ExperimentSpec",
    "GapRuleSpec",
    "GiRuleSpec",
    "MaxGapRuleSpec",
    "ModelParams",
    "load_config",
    "run_experiment",
]


def __getattr__(name: str):
    if name == "run_experiment":
        from .montecarlo import run_experiment

        return run_experiment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
