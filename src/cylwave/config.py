"""Strict flat-text experiment configuration.

Grammar: ``[section]`` headers, ``key = value`` entries, ``#`` comments.
Unknown sections/keys, duplicate keys (both lines reported), and malformed
lines are position-annotated errors.  Validation needs the instantiated
model/grid (the time-step cap depends on both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields, replace

from .evolve import dt_max, step_count
from .grids import CylinderGrid, GridConfig, GridError, build_grid
from .reactions import _BUILTINS, ReactionError, ReactionModel, make_model

SCENARIOS = ("wave", "converge", "gap", "secondary_speed", "comparison", "hypotheses")
# the scenarios that take time steps, hence read dt and horizon
TIME_STEPPING = ("converge", "comparison")

# the built-in models' parameters, in first-seen order; make_model fills
# a(y)'s span from the grid
_MODEL_PARAM_KEYS = tuple(dict.fromkeys(
    f.name for cls in _BUILTINS.values() for f in fields(cls)
    if f.name not in ("y_min", "y_max")))

# section -> key -> (type, default); None default means required.  The [grid]
# keys are GridConfig's fields; the axial window and its resolution are required.
# The [model] parameters are optional: each model takes its own.  [run] dt is
# required by the time-stepping scenarios only.
_SCHEMA = {
    "grid": {f.name: (type(f.default), None if f.name in ("n_z", "z_min", "z_max")
                      else f.default) for f in fields(GridConfig)},
    "model": {"name": (str, None), **{key: (float, None) for key in _MODEL_PARAM_KEYS}},
    "run": {
        "scenario": (str, None),
        "dt": (float, None),
        "horizon": (float, 60.0),
        "seed": (int, 0),
        "c_seed": (float, 0.2),
        "c_trial": (float, 0.2),
        "plateau_seed": (float, 0.9),
    },
    "initial": {
        "amplitude": (float, 1.0),
        "steepness": (float, 1.0),
        "offset": (float, 0.0),
        "noise": (float, 0.0),
        "separation": (float, 5.0),
    },
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    grid_config: GridConfig
    model_name: str
    model_params: dict
    scenario: str
    dt: float | None
    horizon: float
    seed: int
    c_seed: float
    c_trial: float
    plateau_seed: float
    initial_params: dict
    raw: dict = dc_field(default_factory=dict)

    def make_model(self) -> ReactionModel:
        try:
            model = make_model(self.model_name, self.model_params)
        except ReactionError as exc:
            raise ConfigError(str(exc))
        if {"y_min", "y_max"} <= {f.name for f in fields(model)}:  # a(y) spans the section
            model = replace(model, y_min=self.grid_config.y_min, y_max=self.grid_config.y_max)
        return model

    def make_grid(self) -> CylinderGrid:
        try:
            return build_grid(self.grid_config)
        except GridError as exc:
            raise ConfigError(str(exc))


def _parse_sections(text: str) -> dict:
    """Raw parse into {section: {key: (value, line)}} with strict errors."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError("line %d: unknown section [%s] (known: %s)"
                                  % (lineno, name, ", ".join(_SCHEMA)))
            current = sections.setdefault(name, {})
            current_name = name
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r" % (lineno, raw.strip()))
        if current is None:
            raise ConfigError("line %d: entry before any [section] header" % lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[current_name]:
            raise ConfigError("line %d: unknown key %r in section [%s]"
                              % (lineno, key, current_name))
        if key in current:
            raise ConfigError("duplicate key %r in section [%s]: lines %d and %d"
                              % (key, current_name, current[key][1], lineno))
        current[key] = (value, lineno)
    return sections


def _typed(section: str, key: str, entry, want):
    value, lineno = entry
    try:
        typed = want(value)
    except ValueError:
        raise ConfigError("line %d: key %r expects %s, got %r"
                          % (lineno, key, want.__name__, value))
    if want is float and not math.isfinite(typed):
        raise ConfigError("line %d: key %r in section [%s] must be finite, got %r"
                          % (lineno, key, section, value))
    return typed


def parse_config(text: str) -> ExperimentConfig:
    """Parse and cross-validate an experiment configuration."""
    sections = _parse_sections(text)
    values: dict[str, dict] = {}
    for sec, schema in _SCHEMA.items():
        got = sections.get(sec, {})
        out = {}
        for key, (want, default) in schema.items():
            if key in got:
                out[key] = _typed(sec, key, got[key], want)
            elif default is not None:
                out[key] = default
            elif not (sec == "model" and key in _MODEL_PARAM_KEYS or key == "dt"):
                raise ConfigError("missing required key %r in section [%s]" % (key, sec))
        values[sec] = out

    r = values["run"]
    if r["scenario"] not in SCENARIOS:
        raise ConfigError("unknown scenario %r (known: %s)"
                          % (r["scenario"], ", ".join(SCENARIOS)))
    if r["scenario"] in TIME_STEPPING and "dt" not in r:
        raise ConfigError("missing required key 'dt' in section [run]: the %s scenario "
                          "steps in time" % r["scenario"])

    model_params = dict(values["model"])
    cfg = ExperimentConfig(
        grid_config=GridConfig(**values["grid"]),
        model_name=model_params.pop("name"),
        model_params=model_params,
        initial_params=dict(values["initial"]),
        raw=values,
        **{"dt": None, **r},
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    grid = cfg.make_grid()
    model = cfg.make_model()
    if cfg.scenario in TIME_STEPPING:
        if cfg.horizon <= 0:
            raise ConfigError("horizon must be positive, got %g" % cfg.horizon)
        cap = dt_max(model, grid)
        if not 0 < cfg.dt <= cap * (1 + 1e-12):
            raise ConfigError("dt = %g violates the stability bound dt_max = %g "
                              "(0.5 / sup|f_u|)" % (cfg.dt, cap))
        try:
            step_count(cfg.horizon, cfg.dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0, got %d" % cfg.seed)
    if not cfg.c_trial > 0:
        raise ConfigError("c_trial must be positive, got %g" % cfg.c_trial)
    sep = cfg.initial_params["separation"]
    if cfg.scenario == "comparison" and not 0 <= sep < 0.5 * grid.window_length:
        raise ConfigError("separation = %g must lie in [0, %g), half the axial window"
                          % (sep, 0.5 * grid.window_length))


def parse_config_file(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def config_defaults_text() -> str:
    """Documented defaults for --help."""
    lines = []
    for sec, schema in _SCHEMA.items():
        lines.append("[%s]" % sec)
        for key, (want, default) in schema.items():
            if default is None:
                req = ("(model-dependent)" if sec == "model" and key in _MODEL_PARAM_KEYS
                       else "(required by %s)" % ", ".join(TIME_STEPPING) if key == "dt"
                       else "(required)")
                lines.append("  %s: %s %s" % (key, want.__name__, req))
            else:
                lines.append("  %s: %s = %r" % (key, want.__name__, default))
    return "\n".join(lines)
