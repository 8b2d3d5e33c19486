"""JSON run configuration: keys and JSON types come from the problem's
dataclass fields; the bounds are OptimizationProblem.validate()'s."""

import json
from dataclasses import MISSING, fields, is_dataclass

from .errors import ConfigError
from .materials import get_material
from .optimize import OptimizationProblem

# the JSON values a field of each type takes, compared by exact type(), so
# true/false pass for neither and 8.0 is no integer; a nested dataclass
# takes an object
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number")}
_OBJECT = ((dict,), "an object")


def _build(cls, cfg, where=""):
    """cls(**cfg) once cfg holds every required field of cls, no other
    key, and each value of its field's JSON type."""
    kinds = {f.name: f.type for f in fields(cls)}
    for f in fields(cls):
        if f.default is MISSING and f.name not in cfg:
            raise ConfigError(f"{where}{f.name}: required field missing")
    kw = dict(cfg)
    for key, value in cfg.items():
        path, kind = where + key, kinds.get(key)
        if kind is None:
            raise ConfigError(f"{path}: unknown key")
        types, name = _JSON_TYPES.get(kind, _OBJECT)
        if type(value) not in types:
            raise ConfigError(f"{path}: must be {name}, got {value!r}")
        if is_dataclass(kind):
            kw[key] = _build(kind, value, path + "/")
    return cls(**kw)


def parse_config(cfg):
    """Config dict -> (OptimizationProblem, material or None)."""
    cfg = dict(cfg)
    material = None
    if "material" in cfg:
        if "sigma1_rel" in cfg:
            raise ConfigError("give either material or sigma1_rel, not both")
        name = cfg.pop("material")
        if type(name) is not str:
            raise ConfigError(f"material: must be a string, got {name!r}")
        material = get_material(name)
        cfg["sigma1_rel"] = material.sigma1_rel
    problem = _build(OptimizationProblem, cfg)
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
