"""Batch front door: JSON job config in, JSON report out.

Commands: levi-eval, psh-check, stein-classify, envelope, potential-eval,
verify.  Configs are schema-validated with unknown keys rejected.  Exit codes:
0 success (psh-check verdicts are data, not failures), 1 verify-suite failure,
2 config error, 3 evaluation error; errors are emitted as JSON on stderr.
Reports are byte-deterministic for a given config (fixed seeds, sorted keys).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import jsonschema
import numpy as np

from .funcspace import ExpressionError, InvariantFunction, parse_invariant
from .levi import assemble
from .model import SpaceKind, SymmetricSpaceModel, positive_roots
from .potential import (
    bergman_identify,
    killing_potential_invariant,
    killing_potential_modulus,
    moment_coefficient,
    potential_value,
)
from .pshcheck import check_invariant_psh
from .reinhardt import ReinhardtShadow, classify_domain, envelope
from .verify import run_all


class ConfigError(ValueError):
    """Invalid job configuration (schema violation, bad expression, missing key)."""


_BOX_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "lo": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "hi": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
    "required": ["lo", "hi"],
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rank": {"type": "integer", "minimum": 1},
                "kind": {"enum": ["tube", "nontube"]},
                "mult_medium": {"type": "integer", "minimum": 1},
                "mult_short": {"type": "integer", "minimum": 0},
                "killing_b": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["rank"],
        },
        "function": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "expr": {"type": "string"},
                "builtin": {"enum": ["killing_potential"]},
                "chart": {"enum": ["modulus", "slice"]},
            },
            "oneOf": [{"required": ["expr"]}, {"required": ["builtin"]}],
        },
        "shadow": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rank": {"type": "integer", "minimum": 1},
                "boxes": {"type": "array", "items": _BOX_SCHEMA, "minItems": 1},
            },
            "required": ["rank", "boxes"],
        },
        "points": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            "minItems": 1,
        },
        "grid_n": {"type": "integer", "minimum": 2},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "short_coeff_factor": {"enum": [1, 2]},
        "bergman_samples": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "minItems": 1,
        },
    },
}

# built once: validating through jsonschema.validate re-checks the schema per call
_CONFIG_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)

COMMANDS = ("levi-eval", "psh-check", "stein-classify", "envelope",
            "potential-eval", "verify")

_MODEL_OUT = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "rank": {"type": "integer"},
        "kind": {"enum": ["tube", "nontube"]},
        "mult_medium": {"type": "integer"},
        "mult_short": {"type": "integer"},
        "killing_b": {"type": "number"},
    },
    "required": ["rank", "kind", "killing_b"],
}

_SHADOW_OUT = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "rank": {"type": "integer"},
        "boxes": {"type": "array", "items": _BOX_SCHEMA},
    },
    "required": ["rank", "boxes"],
}

_CLASSIFY_OUT = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "verdict": {"enum": ["stein", "not_stein"]},
        "reasons": {"type": "array", "items": {"type": "string"}},
        "tests": {"type": "object", "additionalProperties": {"type": "boolean"}},
    },
    "required": ["verdict", "reasons", "tests"],
}

_NUMBER_OR_NULL = {"type": ["number", "null"]}

REPORT_SCHEMAS = {
    "levi-eval": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "command": {"const": "levi-eval"},
            "model": _MODEL_OUT,
            "function": {"type": "object"},
            "short_coeff_factor": {"type": "number"},
            "root_multiplicities": {
                "type": "object", "additionalProperties": {"type": "integer"},
            },
            "coefficients_weighted_by_multiplicity": {"type": "boolean"},
            "results": {
                "type": "array",
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "point": {"type": "array", "items": {"type": "number"}},
                        "a_block": {"type": "array", "items": {"type": "number"}},
                        "medium_coeff": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "additionalProperties": False,
                                "properties": {
                                    "j": {"type": "integer"},
                                    "l": {"type": "integer"},
                                    "value": {"type": "number"},
                                },
                                "required": ["j", "l", "value"],
                            },
                        },
                        "short_coeff": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "additionalProperties": False,
                                "properties": {
                                    "j": {"type": "integer"},
                                    "value": {"type": "number"},
                                },
                                "required": ["j", "value"],
                            },
                        },
                        "flags": {"type": "array", "items": {"type": "string"}},
                    },
                    "required": ["point", "a_block", "medium_coeff", "short_coeff",
                                 "flags"],
                },
            },
        },
        "required": ["command", "model", "function", "short_coeff_factor",
                     "root_multiplicities", "results"],
    },
    "psh-check": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "command": {"const": "psh-check"},
            "model": _MODEL_OUT,
            "function": {"type": "object"},
            "shadow": _SHADOW_OUT,
            "classification": _CLASSIFY_OUT,
            "report": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "verdict": {
                        "enum": ["strictly_psh", "psh_not_strict", "not_psh",
                                 "inconclusive"],
                    },
                    "min_a_block_eig": {"type": "number"},
                    "min_medium": _NUMBER_OR_NULL,
                    "min_short": _NUMBER_OR_NULL,
                    "witness_point": {"type": "array", "items": {"type": "number"}},
                    "grid_spec": {"type": "string"},
                    "tolerance": {"type": "number"},
                    "stein_shadow": {"type": "boolean"},
                },
                "required": ["verdict", "min_a_block_eig", "witness_point",
                             "grid_spec", "tolerance"],
            },
        },
        "required": ["command", "model", "function", "shadow", "classification",
                     "report"],
    },
    "stein-classify": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "command": {"const": "stein-classify"},
            "model": _MODEL_OUT,
            "shadow": _SHADOW_OUT,
            "symmetrized_on_input": {"type": "boolean"},
            "result": _CLASSIFY_OUT,
        },
        "required": ["command", "model", "shadow", "result"],
    },
    "envelope": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "command": {"const": "envelope"},
            "model": _MODEL_OUT,
            "input_shadow": _SHADOW_OUT,
            "envelope": _SHADOW_OUT,
            "changed": {"type": "boolean"},
            "classification_after": _CLASSIFY_OUT,
        },
        "required": ["command", "model", "input_shadow", "envelope", "changed",
                     "classification_after"],
    },
    "potential-eval": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "command": {"const": "potential-eval"},
            "model": _MODEL_OUT,
            "results": {
                "type": "array",
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "point": {"type": "array", "items": {"type": "number"}},
                        "value": {"type": "number"},
                        "moment_coefficients": {
                            "type": "array", "items": {"type": "number"},
                        },
                    },
                    "required": ["point", "value", "moment_coefficients"],
                },
            },
            "bergman": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "constant": {"type": "number"},
                    "max_deviation": {"type": "number"},
                    "identity_holds": {"type": "boolean"},
                },
                "required": ["constant", "max_deviation", "identity_holds"],
            },
        },
        "required": ["command", "model", "results"],
    },
    "verify": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "command": {"const": "verify"},
            "seed": {"type": "integer"},
            "short_coeff_factor": {"type": "number"},
            "suites": {
                "type": "array",
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "name": {"type": "string"},
                        "passed": {"type": "boolean"},
                        "worst": _NUMBER_OR_NULL,
                        "details": {"type": "object"},
                    },
                    "required": ["name", "passed", "worst", "details"],
                },
            },
            "all_passed": {"type": "boolean"},
        },
        "required": ["command", "seed", "suites", "all_passed"],
    },
}

_REQUIRED_KEYS = {
    "levi-eval": ("model", "function", "points"),
    "psh-check": ("model", "function", "shadow"),
    "stein-classify": ("model", "shadow"),
    "envelope": ("model", "shadow"),
    "potential-eval": ("model", "points"),
    "verify": (),
}


def load_config(path: Optional[str], command: str, seed_override: Optional[int]) -> dict:
    if path is None:
        config = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(config))
    if error is not None:
        raise ConfigError(f"config rejected: {error.message}") from error
    for key in _REQUIRED_KEYS[command]:
        if key not in config:
            raise ConfigError(f"command {command} requires config key {key!r}")
    if seed_override is not None:
        config["seed"] = seed_override
    config.setdefault("seed", 0)
    return config


def _resolve_model(config: dict) -> SymmetricSpaceModel:
    try:
        return SymmetricSpaceModel.from_json(config["model"])
    except ValueError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


def _resolve_function(config: dict, model: SymmetricSpaceModel) -> InvariantFunction:
    spec = config["function"]
    chart = spec.get("chart")
    if "expr" in spec:
        if chart not in (None, "modulus"):
            raise ConfigError("expressions are modulus-chart only")
        try:
            return parse_invariant(spec["expr"], model.rank)
        except ExpressionError as exc:
            raise ConfigError(f"invalid expression: {exc}") from exc
    if chart == "modulus":
        return killing_potential_modulus(model)
    return killing_potential_invariant(model)


def _resolve_shadow(config: dict, model: SymmetricSpaceModel) -> ReinhardtShadow:
    try:
        shadow = ReinhardtShadow.from_json(config["shadow"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid shadow: {exc}") from exc
    if shadow.rank != model.rank:
        raise ConfigError(
            f"shadow rank {shadow.rank} does not match model rank {model.rank}"
        )
    return shadow


def _check_points(config: dict, model: SymmetricSpaceModel) -> list:
    points = config["points"]
    for H in points:
        if len(H) != model.rank:
            raise ConfigError(
                f"point {H} has {len(H)} coordinates, model rank is {model.rank}"
            )
    return points


def cmd_levi_eval(config: dict) -> dict:
    model = _resolve_model(config)
    f = _resolve_function(config, model)
    points = _check_points(config, model)
    factor = float(config.get("short_coeff_factor", 2))
    try:
        form = assemble(model, f, points, short_coeff_factor=factor)
    except Exception:
        # report the error of the first failing point, not of the whole stack
        for H in points:
            assemble(model, f, H, short_coeff_factor=factor)
        raise
    results = [form[i].to_json() for i in range(len(points))]
    mults = {str(label): mult for label, mult in positive_roots(model)}
    return {
        "command": "levi-eval",
        "model": model.to_json(),
        "function": config["function"],
        "short_coeff_factor": factor,
        "root_multiplicities": mults,
        "coefficients_weighted_by_multiplicity": False,
        "results": results,
    }


def cmd_psh_check(config: dict) -> dict:
    model = _resolve_model(config)
    f = _resolve_function(config, model)
    shadow = _resolve_shadow(config, model)
    report = check_invariant_psh(
        model,
        f,
        shadow,
        grid_n=config.get("grid_n", 8),
        tolerance=config.get("tolerance", 1e-9),
        short_coeff_factor=float(config.get("short_coeff_factor", 2)),
    )
    return {
        "command": "psh-check",
        "model": model.to_json(),
        "function": config["function"],
        "shadow": shadow.to_json(),
        "classification": classify_domain(model, shadow).to_json(),
        "report": report.to_json(),
    }


def cmd_stein_classify(config: dict) -> dict:
    model = _resolve_model(config)
    shadow = _resolve_shadow(config, model)
    result = classify_domain(model, shadow, grid_n=config.get("grid_n", 64))
    return {
        "command": "stein-classify",
        "model": model.to_json(),
        "shadow": shadow.to_json(),
        "symmetrized_on_input": shadow.symmetrized,
        "result": result.to_json(),
    }


def cmd_envelope(config: dict) -> dict:
    model = _resolve_model(config)
    shadow = _resolve_shadow(config, model)
    grid_n = config.get("grid_n", 64)
    env = envelope(model, shadow, grid_n=grid_n)
    return {
        "command": "envelope",
        "model": model.to_json(),
        "input_shadow": shadow.to_json(),
        "envelope": env.to_json(),
        "changed": env != shadow,
        "classification_after": classify_domain(model, env, grid_n).to_json(),
    }


def cmd_potential_eval(config: dict) -> dict:
    model = _resolve_model(config)
    points = _check_points(config, model)
    results = []
    for H in points:
        results.append(
            {
                "point": [float(x) for x in H],
                "value": potential_value(model, H),
                "moment_coefficients": [
                    moment_coefficient(model, H, j) for j in range(model.rank)
                ],
            }
        )
    out = {
        "command": "potential-eval",
        "model": model.to_json(),
        "results": results,
    }
    if "bergman_samples" in config:
        constant, deviation = bergman_identify(model, config["bergman_samples"])
        out["bergman"] = {
            "constant": constant,
            "max_deviation": deviation,
            "identity_holds": bool(deviation < 1e-10),
        }
    return out


def cmd_verify(config: dict) -> dict:
    results = run_all(
        seed=config.get("seed", 0),
        short_coeff_factor=float(config.get("short_coeff_factor", 2)),
        grid_n=config.get("grid_n"),
    )
    return {
        "command": "verify",
        "seed": config.get("seed", 0),
        "short_coeff_factor": float(config.get("short_coeff_factor", 2)),
        "suites": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
    }


_DISPATCH = {
    "levi-eval": cmd_levi_eval,
    "psh-check": cmd_psh_check,
    "stein-classify": cmd_stein_classify,
    "envelope": cmd_envelope,
    "potential-eval": cmd_potential_eval,
    "verify": cmd_verify,
}


def _sanitize(obj):
    """Coerce numpy scalars and non-finite floats so reports are strictly valid JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else None
    return obj


def _emit_error(exc: Exception, code: int) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, ConfigError) and isinstance(exc.__cause__, ExpressionError):
        payload["error"]["position"] = exc.__cause__.position
    json.dump(payload, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")
    return code


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="levislice",
        description="Levi-form evaluation, plurisubharmonicity checks and "
                    "Reinhardt classification for invariant functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to the JSON job config")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--seed", type=int, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, args.command, args.seed)
    except ConfigError as exc:
        return _emit_error(exc, 2)

    try:
        report = _DISPATCH[args.command](config)
    except ConfigError as exc:
        return _emit_error(exc, 2)
    except Exception as exc:  # noqa: BLE001 - mapped to the documented exit code
        return _emit_error(exc, 3)

    text = json.dumps(_sanitize(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if args.command == "verify" and not report["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
