"""JSON run configuration: schema validation and problem construction."""

import json

import jsonschema

from .errors import ConfigError
from .materials import get_material
from .optimize import KSParams, OptimizationProblem

KS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "zeta": {"type": "number", "exclusiveMinimum": 0},
        "kappa1": {"enum": [0, 1]},
        "kappa2": {"enum": [0, 1]},
        "n_seg": {"type": "integer", "minimum": 2},
        "m_bands": {"type": "integer", "minimum": 1},
    },
}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "f_star", "gamma1"],
    "properties": {
        "n": {"type": "integer", "minimum": 4},
        "f_star": {"type": "number", "exclusiveMinimum": 0,
                   "exclusiveMaximum": 1},
        "gamma1": {"type": "number", "minimum": 0, "maximum": 1},
        "sigma_star": {"type": "number", "minimum": 0},
        "e_star": {"type": "number", "minimum": 0},
        "material": {"type": "string"},
        "sigma1_rel": {"type": "number", "exclusiveMinimum": 0,
                       "exclusiveMaximum": 1},
        "radius": {"type": "number", "minimum": 0},
        "delta_eta": {"type": "number", "exclusiveMinimum": 0,
                      "exclusiveMaximum": 0.5},
        "beta_max": {"type": "number", "minimum": 1},
        "beta_every": {"type": "integer", "minimum": 1},
        "max_iter": {"type": "integer", "minimum": 1},
        "move": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "tol_change": {"type": "number", "exclusiveMinimum": 0},
        "checkpoint_every": {"type": "integer", "minimum": 1},
        "ks": KS_SCHEMA,
    },
}


def parse_config(cfg):
    """Validated config dict -> (OptimizationProblem, material or None)."""
    try:
        jsonschema.validate(cfg, SCHEMA)
    except jsonschema.ValidationError as err:
        where = "/".join(str(p) for p in err.absolute_path) or "config"
        raise ConfigError(f"{where}: {err.message}") from err

    material = None
    cfg = dict(cfg)
    if "material" in cfg:
        if "sigma1_rel" in cfg:
            raise ConfigError("give either material or sigma1_rel, not both")
        material = get_material(cfg.pop("material"))
        cfg["sigma1_rel"] = material.sigma1_rel
    if "ks" in cfg:
        cfg["ks"] = KSParams(**cfg["ks"])
    problem = OptimizationProblem(**cfg)
    problem.validate()
    return problem, material


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return parse_config(cfg)
