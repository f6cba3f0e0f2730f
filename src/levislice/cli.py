"""Batch front door: JSON job config in, JSON report out.

Commands: levi-eval, psh-check, stein-classify, envelope, potential-eval,
verify.  Configs are checked against ``CONFIG_SCHEMA`` by a built-in
interpreter of the JSON Schema keywords it uses (``SCHEMA_KEYWORDS``), with
unknown keys and non-finite numbers rejected; ``grid_n``, samples per axis per
covered chamber cell, sets the evaluation grids of psh-check and verify only
(the shadow geometry of stein-classify and envelope is exact), whose exact
size is capped.  levi-eval, psh-check and verify evaluate points in the chunks
of ``levi.assemble_chunks``, one float budget; a failing point is named in a
``GridEvaluationError``.  Exit codes: 0 success (psh-check verdicts are data),
1 verify-suite failure, 2 config error (over-cap grids and unwritable ``--out``
paths too), 3 evaluation error; errors are emitted as JSON on stderr.  Reports
are byte-deterministic for a given config.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from typing import Optional

from .funcspace import ExpressionError, InvariantFunction, parse_invariant
from .levi import assemble_chunks
from .model import SymmetricSpaceModel, json_float, positive_roots
from .potential import (
    bergman_identify,
    killing_potential_invariant,
    killing_potential_modulus,
    moment_coefficient,
    potential_value,
)
from .pshcheck import GridSizeError, check_invariant_psh
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


# the JSON Schema keywords CONFIG_SCHEMA may use: those schema_violation implements
SCHEMA_KEYWORDS = frozenset({
    "$schema", "type", "enum", "minimum", "exclusiveMinimum", "exclusiveMaximum",
    "properties", "additionalProperties", "required", "oneOf", "items", "minItems",
})


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}
_BOUNDS = (("minimum", operator.ge, "less than the minimum"),
           ("exclusiveMinimum", operator.gt, "less than or equal to the minimum"),
           ("exclusiveMaximum", operator.lt, "greater than or equal to the maximum"))


def schema_violation(x, schema: dict) -> Optional[str]:
    """The first way the JSON value ``x`` breaks ``schema``, in jsonschema's words,
    or None.

    JSON Schema's rules hold: a bool is not a number, an integer-valued float
    is an integer, and ``True`` is not 1.  A node's own keywords are checked
    before its members and items, so a config with one violation gets the
    message of jsonschema's ``best_match``.
    """
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](x):
        return f"{x!r} is not of type {kind!r}"
    if "enum" in schema and not any(
            e == x and isinstance(e, bool) == isinstance(x, bool) for e in schema["enum"]):
        return f"{x!r} is not one of {schema['enum']!r}"
    if _is_number(x):
        for key, ok, words in _BOUNDS:
            if key in schema and not ok(x, schema[key]):
                return f"{x!r} is {words} of {schema[key]!r}"
    children = ()
    if isinstance(x, dict):
        members = schema.get("properties", {})
        extra = sorted(k for k in x if k not in members)
        if extra and schema.get("additionalProperties") is False:
            return (f"Additional properties are not allowed ({', '.join(map(repr, extra))} "
                    f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        for key in schema.get("required", ()):
            if key not in x:
                return f"{key!r} is a required property"
        children = [(x[key], sub) for key, sub in members.items() if key in x]
    elif isinstance(x, list):
        if len(x) < schema.get("minItems", 0):
            return f"{x!r} {'should be non-empty' if schema['minItems'] == 1 else 'is too short'}"
        children = [(item, schema["items"]) for item in x] if "items" in schema else ()
    if "oneOf" in schema:
        valid = [s for s in schema["oneOf"] if schema_violation(x, s) is None]
        if len(valid) != 1:
            return (f"{x!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}"
                    if valid else f"{x!r} is not valid under any of the given schemas")
    for value, sub in children:
        error = schema_violation(value, sub)
        if error is not None:
            return error
    return None


def _finite_number(text: str) -> float:
    """JSON number hook: ``json`` would read NaN, Infinity and overflowing literals
    as non-finite floats, which no config value can mean."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite number")
    return x


_DECODER = json.JSONDecoder(parse_float=_finite_number, parse_constant=_finite_number)


def load_config(path: Optional[str], command: str, seed_override: Optional[int]) -> dict:
    if path is None:
        config = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                config = _DECODER.decode(fh.read())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if seed_override is not None and isinstance(config, dict):
        config["seed"] = seed_override
    error = schema_violation(config, CONFIG_SCHEMA)
    if error is not None:
        raise ConfigError(f"config rejected: {error}")
    for key in _REQUIRED_KEYS[command]:
        if key not in config:
            raise ConfigError(f"command {command} requires config key {key!r}")
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
    results = [form[i].to_json() for form in assemble_chunks(model, f, points, factor)
               for i in range(len(form.point))]
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
        "classification": report.classification.to_json(),
        "report": report.to_json(),
    }


def cmd_stein_classify(config: dict) -> dict:
    model = _resolve_model(config)
    shadow = _resolve_shadow(config, model)
    result = classify_domain(model, shadow)
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
    env = envelope(model, shadow)
    return {
        "command": "envelope",
        "model": model.to_json(),
        "input_shadow": shadow.to_json(),
        "envelope": env.to_json(),
        "changed": env != shadow,
        "classification_after": classify_domain(model, env).to_json(),
    }


def cmd_potential_eval(config: dict) -> dict:
    model = _resolve_model(config)
    points = _check_points(config, model)
    results = []
    for H in points:
        results.append(
            {
                "point": [float(x) for x in H],
                "value": json_float(potential_value(model, H)),
                "moment_coefficients": [
                    json_float(moment_coefficient(model, H, j)) for j in range(model.rank)
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
            "constant": json_float(constant),
            "max_deviation": json_float(deviation),
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


def _emit_error(exc: Exception, code: int) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, ConfigError) and isinstance(exc.__cause__, ExpressionError):
        payload["error"]["position"] = exc.__cause__.position
    json.dump(payload, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")
    return code


def _build_parser() -> argparse.ArgumentParser:
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
    return parser


# built once: constructing it cost more than a small job
_PARSER = _build_parser()


def main(argv: Optional[list] = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        config = load_config(args.config, args.command, args.seed)
    except ConfigError as exc:
        return _emit_error(exc, 2)

    try:
        report = _DISPATCH[args.command](config)
    except ConfigError as exc:
        return _emit_error(exc, 2)
    except GridSizeError as exc:  # grid_n too large for the function: a config error
        return _emit_error(ConfigError(f"invalid grid: {exc}"), 2)
    except Exception as exc:  # noqa: BLE001 - mapped to the documented exit code
        return _emit_error(exc, 3)

    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _emit_error(ConfigError(f"cannot write report {args.out}: {exc}"), 2)
    else:
        sys.stdout.write(text)

    if args.command == "verify" and not report["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
