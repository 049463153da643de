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

Importing the package loads no submodule but ``_version``: each name of
``_NAMES`` is imported from its submodule on first access, so reading
``run_experiment`` is what loads the engine, and numpy with it.
"""

from importlib import import_module

from ._version import __version__

# Namespace name -> the submodule that defines it.
_NAMES = {
    "ConfigError": "config",
    "ExperimentSpec": "config",
    "load_config": "config",
    "ModelParams": "model",
    "GapRuleSpec": "rules",
    "GiRuleSpec": "rules",
    "MaxGapRuleSpec": "rules",
    "run_experiment": "montecarlo",
}

__all__ = ["__version__", *_NAMES]


def __getattr__(name: str):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_NAMES[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value
