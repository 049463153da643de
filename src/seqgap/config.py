"""JSON experiment configs and the experiment spec they parse into.

Parsing is strict: unknown keys anywhere in the document are errors, as are
missing required sections.  This is deliberate; a typo like "replciations"
silently falling back to a default would poison a study.

``resolved_config_dict`` echoes the parsed config with static defaults
filled in (signal set, rule variant, multiplicity budget, output format).
Parsing that echo reconstructs the identical experiment, and the echo is
embedded in every report so a result file alone suffices to rerun it.

This module also owns the spec layer that the harness runs:
``ExperimentSpec``, its checks (``_run_horizon``), ``calibrated_rule``,
``theoretical_asymptote``, ``sweep_specs`` and ``GENERATOR_ID``.  They are
closed forms over ``math``, so parsing, calibrating and checking a config
load no numpy; ``seqgap.montecarlo`` re-exports them next to the engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Literal, Sequence

from .model import ModelParams
from .rules import (
    MAXGAP_VARIANTS,
    RULE_KINDS,
    GapRuleConfig,
    GIRuleConfig,
    MaxGapRuleConfig,
    RuleSpec,
)

__all__ = [
    "GENERATOR_ID",
    "ConfigError",
    "ExperimentSpec",
    "ParsedConfig",
    "c1_for_target_metric",
    "calibrated_rule",
    "load_config",
    "parse_config_dict",
    "read_config",
    "resolved_config_dict",
    "rule_dict",
    "spec_dict",
    "sweep_specs",
    "theoretical_asymptote",
]

# Identifies the pinned pseudorandom scheme in every output artifact.
GENERATOR_ID = "philox4x64/splitmix64-keys/v1"

_MASK64 = (1 << 64) - 1
# Refuse specs whose worst case (every trial reaching the horizon) exceeds
# this many steps: at about 10^5 steps/s per core, 10^10 steps is over a
# day of work, e.g. "mu": 1e-3, whose default horizon is ~1.2e8 steps.
_MAX_WORST_CASE_STEPS = 10**10
# A step draws K + 1 normals, so at large K the draws bound the run first:
# at 1.2-2.5 x 10^6 normals/s per core, 10^11 normals is 11-23 hours.
_MAX_WORST_CASE_DRAWS = 10**11

# Error-metric name -> multiplicity budget C1.  Proportion- and family-wise
# metrics are bounded by the selection-error budget itself (C1 = 1); the
# expected number of false rejections needs the per-stream budget scaled
# back up by K.
_PER_UNIT_METRICS = ("fwer", "fdr", "fnr", "pfdr", "pfnr")

FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid or unparseable experiment config."""


def c1_for_target_metric(metric: str, K: int) -> float:
    if metric in _PER_UNIT_METRICS:
        return 1.0
    if metric == "pfer":
        return float(K)
    raise ConfigError(
        f"unknown target_metric {metric!r}; expected one of "
        f"{', '.join(_PER_UNIT_METRICS + ('pfer',))}"
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to bit-reproduce one experiment."""

    params: ModelParams
    rule: RuleSpec
    alpha: float
    beta: float
    replications: int
    master_seed: int
    horizon_cap: int | None = None

    def __post_init__(self) -> None:
        self.rule.check(self.params)
        calibrated_rule(self)  # surface calibration errors at construction
        # the asymptote sets the default horizon and the report's ratio;
        # an extreme mu over- or underflows mu**2 inside it
        try:
            asymptote = theoretical_asymptote(self)
        except ArithmeticError:
            asymptote = math.nan
        if not 0.0 < asymptote < math.inf:
            raise ValueError(
                f"mu={self.params.mu} is out of range: the theoretical mean sample size "
                "is not a finite positive number"
            )
        # not a field: equality, hashing and repr stay those of the seven fields
        horizon = _run_horizon(
            self.master_seed, self.replications, self.horizon_cap, asymptote, self.params.K + 1
        )
        object.__setattr__(self, "_horizon", horizon)

    def resolved_horizon_cap(self) -> int:
        """``horizon_cap``, or the default horizon of ``_run_horizon``."""
        return self._horizon


def _run_horizon(
    master_seed: int,
    replications: int,
    horizon_cap: int | None,
    asymptote: float,
    draws_per_step: int,
) -> int:
    """Check a run's seed and size and return its horizon.

    The seed must be an unsigned 64-bit integer: the trial keys reduce it
    mod 2^64, so a seed outside that range would repeat one inside it.
    The horizon is ``horizon_cap``, or by default 50x the ``asymptote``
    (the mean sample size as the error levels vanish), rounded up, at
    least 1000.  A run whose worst case, every trial reaching the horizon,
    exceeds ``_MAX_WORST_CASE_STEPS`` steps or ``_MAX_WORST_CASE_DRAWS``
    normals (``draws_per_step`` per step) is refused before it starts.
    """
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master_seed must be an unsigned 64-bit integer, got {master_seed}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if horizon_cap is not None and horizon_cap < 1:
        raise ValueError(f"horizon_cap must be >= 1, got {horizon_cap}")
    horizon = horizon_cap if horizon_cap is not None else max(1000, math.ceil(50.0 * asymptote))
    if replications * horizon > _MAX_WORST_CASE_STEPS:
        raise ValueError(
            f"worst case {replications} replications x {horizon} steps = "
            f"{replications * horizon} steps exceeds the limit of {_MAX_WORST_CASE_STEPS} steps"
        )
    draws = replications * horizon * draws_per_step
    if draws > _MAX_WORST_CASE_DRAWS:
        raise ValueError(
            f"worst case {replications} replications x {horizon} steps x {draws_per_step} normals "
            f"= {draws} normals exceeds the limit of {_MAX_WORST_CASE_DRAWS} normals"
        )
    return horizon


def calibrated_rule(spec: ExperimentSpec) -> GapRuleConfig | MaxGapRuleConfig | GIRuleConfig:
    """Calibrate the spec's rule against its model and target levels."""
    return spec.rule.calibrate(spec.params, spec.alpha, spec.beta)


def theoretical_asymptote(spec: ExperimentSpec) -> float:
    """Small-error mean sample size for the spec's rule.

    gap:     (1-rho)/mu^2 * |log(min(alpha, beta))|
    maxgap:  2*(1-rho)/mu^2 * |log(min(alpha, beta))|
    gi:      |log(min(alpha, beta))| / (eta0 + eta1)   (independent baseline)
    """
    return spec.rule.asymptote(spec.params, abs(math.log(min(spec.alpha, spec.beta))))


def sweep_specs(
    spec_template: ExperimentSpec, kind: Literal["alpha", "rho"], grid: Sequence[float]
) -> list[ExperimentSpec]:
    """The template at each grid point: alpha (= beta), or the common correlation.

    Building a spec validates it, so a bad point fails here, naming its
    grid entry, before any point runs.
    """
    if len(grid) == 0:
        raise ValueError(f"{kind}_grid must be nonempty")
    if kind == "alpha":
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"alpha_grid must be strictly decreasing, got {list(grid)}")
        point = lambda a: replace(spec_template, alpha=a, beta=a)
    elif kind == "rho":
        point = lambda rho: replace(spec_template, params=replace(spec_template.params, rho=rho))
    else:
        raise ValueError(f"sweep kind must be 'alpha' or 'rho', got {kind!r}")
    specs = []
    for value in grid:
        try:
            specs.append(point(value))
        except ValueError as exc:
            raise ValueError(f"{kind}_grid entry {value!r}: {exc}") from exc
    return specs


@dataclass(frozen=True)
class ParsedConfig:
    spec: ExperimentSpec
    out_path: str | None
    out_format: str
    sweep_kind: str | None  # "alpha" | "rho" | None
    sweep_grid: tuple[float, ...] | None


def _check_keys(section: dict, allowed: set[str], context: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")


def _require(section: dict, key: str, context: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return section[key]


def _as_section(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be an object, got {type(value).__name__}")
    return value


def _as_int(value, context: str) -> int:
    # bool is an int subclass; a config saying "K": true is a mistake
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    return value


def _as_float(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{context} must be a finite number, got {number}")
    return number


def _as_bool(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{context} must be true or false, got {value!r}")
    return value


def _as_str(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context} must be a string, got {value!r}")
    return value


def _parse_c1(rule: dict, K: int, context: str) -> float:
    has_adjust = "c1_adjust" in rule
    has_metric = "target_metric" in rule
    if has_adjust and has_metric:
        raise ConfigError(f"{context}: c1_adjust and target_metric are mutually exclusive")
    if has_metric:
        return c1_for_target_metric(_as_str(rule["target_metric"], f"{context}.target_metric"), K)
    if has_adjust:
        return _as_float(rule["c1_adjust"], f"{context}.c1_adjust")
    return 1.0


# Rule-spec field annotation -> value parser.
_FIELD_PARSERS = {"int": _as_int, "float": _as_float, "str": _as_str, "bool": _as_bool}


def _parse_rule(rule: dict, K: int) -> RuleSpec:
    kind = _as_str(_require(rule, "kind", "rule"), "rule.kind")
    if kind not in RULE_KINDS:
        raise ConfigError(
            f"rule.kind must be one of {', '.join(map(repr, RULE_KINDS))}, got {kind!r}"
        )
    spec_fields = fields(RULE_KINDS[kind])
    allowed = {"kind"} | {f.name for f in spec_fields}
    if "c1_adjust" in allowed:
        allowed.add("target_metric")
    _check_keys(rule, allowed, "rule")
    values = {}
    for f in spec_fields:
        if f.name == "c1_adjust":
            values[f.name] = _parse_c1(rule, K, "rule")
        elif f.name in rule or f.default is MISSING:
            values[f.name] = _FIELD_PARSERS[f.type](_require(rule, f.name, "rule"), f"rule.{f.name}")
    if "variant" in values and values["variant"] not in MAXGAP_VARIANTS:
        raise ConfigError(
            f"rule.variant must be one of {', '.join(MAXGAP_VARIANTS)}, got {values['variant']!r}"
        )
    return RULE_KINDS[kind](**values)


def _parse_signal_set(model: dict, rule: RuleSpec) -> frozenset[int]:
    if "signal_set" in model:
        raw = model["signal_set"]
        if not isinstance(raw, list):
            raise ConfigError(f"model.signal_set must be a list of stream indices, got {raw!r}")
        seen: set[int] = set()
        for index in (_as_int(v, "model.signal_set entry") for v in raw):
            if index in seen:  # a typo, not a smaller signal set
                raise ConfigError(f"model.signal_set repeats stream index {index}")
            seen.add(index)
        return frozenset(seen)
    default = rule.default_signal_set()
    if default is None:
        raise ConfigError(f"model.signal_set is required for rule kind {rule.kind!r}")
    return default


def parse_config_dict(doc: dict) -> ParsedConfig:
    doc = _as_section(doc, "config")
    _check_keys(doc, {"model", "rule", "targets", "mc", "output", "sweep"}, "config")

    model = _as_section(_require(doc, "model", "config"), "model")
    _check_keys(model, {"K", "rho", "mu", "signal_set"}, "model")
    K = _as_int(_require(model, "K", "model"), "model.K")

    rule = _parse_rule(_as_section(_require(doc, "rule", "config"), "rule"), K)

    targets = _as_section(_require(doc, "targets", "config"), "targets")
    _check_keys(targets, {"alpha", "beta"}, "targets")
    alpha = _as_float(_require(targets, "alpha", "targets"), "targets.alpha")
    beta = _as_float(_require(targets, "beta", "targets"), "targets.beta")

    mc = _as_section(_require(doc, "mc", "config"), "mc")
    _check_keys(mc, {"replications", "master_seed", "horizon_cap"}, "mc")
    horizon_cap = None
    if "horizon_cap" in mc:
        horizon_cap = _as_int(mc["horizon_cap"], "mc.horizon_cap")

    out_path = None
    out_format = "csv"
    if "output" in doc:
        output = _as_section(doc["output"], "output")
        _check_keys(output, {"path", "format"}, "output")
        if "path" in output:
            out_path = _as_str(output["path"], "output.path")
        if "format" in output:
            out_format = _as_str(output["format"], "output.format")
            if out_format not in FORMATS:
                raise ConfigError(f"output.format must be 'csv' or 'json', got {out_format!r}")

    sweep_kind = None
    sweep_grid = None
    if "sweep" in doc:
        sweep = _as_section(doc["sweep"], "sweep")
        _check_keys(sweep, {"alpha_grid", "rho_grid"}, "sweep")
        if ("alpha_grid" in sweep) == ("rho_grid" in sweep):
            raise ConfigError("sweep requires exactly one of alpha_grid, rho_grid")
        key = "alpha_grid" if "alpha_grid" in sweep else "rho_grid"
        raw = sweep[key]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"sweep.{key} must be a nonempty list of numbers")
        sweep_kind = "alpha" if key == "alpha_grid" else "rho"
        sweep_grid = tuple(_as_float(v, f"sweep.{key} entry") for v in raw)

    try:
        params = ModelParams(
            K=K,
            rho=_as_float(_require(model, "rho", "model"), "model.rho"),
            mu=_as_float(_require(model, "mu", "model"), "model.mu"),
            signal_set=_parse_signal_set(model, rule),
        )
        spec = ExperimentSpec(
            params=params,
            rule=rule,
            alpha=alpha,
            beta=beta,
            replications=_as_int(_require(mc, "replications", "mc"), "mc.replications"),
            master_seed=_as_int(_require(mc, "master_seed", "mc"), "mc.master_seed"),
            horizon_cap=horizon_cap,
        )
        if sweep_kind is not None:  # every grid point, before any of them runs
            sweep_specs(spec, sweep_kind, sweep_grid)
    except ValueError as exc:  # reject with the model/rule diagnostic attached
        raise ConfigError(str(exc)) from exc
    return ParsedConfig(
        spec=spec,
        out_path=out_path,
        out_format=out_format,
        sweep_kind=sweep_kind,
        sweep_grid=sweep_grid,
    )


def _reject_constant(name: str):
    # json accepts NaN, Infinity and -Infinity, which are not JSON
    raise ValueError(f"non-finite number {name} is not allowed")


def _unique_object(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def read_config(path: str):
    """The JSON document at ``path``, unparsed: duplicate keys, the non-JSON constants and
    nesting deeper than the interpreter's recursion limit are refused as ``ConfigError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant, object_pairs_hook=_unique_object)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError, or a hook's rejection
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply to read") from exc


def load_config(path: str) -> ParsedConfig:
    return parse_config_dict(read_config(path))


def rule_dict(rule: RuleSpec) -> dict:
    """Canonical JSON-compatible form of a rule spec: the kind, then its fields in order."""
    return {"kind": rule.kind, **asdict(rule)}


def spec_dict(spec: ExperimentSpec) -> dict:
    """Canonical dict of a spec: model, rule, targets, then mc, whose
    horizon_cap appears only when the spec sets one."""
    mc = {"replications": spec.replications, "master_seed": spec.master_seed}
    if spec.horizon_cap is not None:
        mc["horizon_cap"] = spec.horizon_cap
    return {
        "model": {
            "K": spec.params.K,
            "rho": spec.params.rho,
            "mu": spec.params.mu,
            "signal_set": sorted(spec.params.signal_set),
        },
        "rule": rule_dict(spec.rule),
        "targets": {"alpha": spec.alpha, "beta": spec.beta},
        "mc": mc,
    }


def resolved_config_dict(parsed: ParsedConfig) -> dict:
    """Canonical dict equivalent to the parsed config; parses back losslessly."""
    doc = spec_dict(parsed.spec)
    output = {"format": parsed.out_format}
    if parsed.out_path is not None:
        output = {"path": parsed.out_path, "format": parsed.out_format}
    doc["output"] = output
    if parsed.sweep_kind is not None:
        assert parsed.sweep_grid is not None
        doc["sweep"] = {f"{parsed.sweep_kind}_grid": list(parsed.sweep_grid)}
    return doc
