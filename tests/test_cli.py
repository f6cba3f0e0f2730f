import argparse
import copy
import json
import math
import os
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levislice.cli as cli
import levislice.levi as levi
import levislice.pshcheck as pshcheck
from levislice.cli import (
    CONFIG_SCHEMA,
    REPORT_SCHEMAS,
    SCHEMA_KEYWORDS,
    main,
    schema_violation,
)
from levislice.reinhardt import classify_domain


def run_cli(capsys, tmp_path, command, config=None, extra=None):
    argv = [command]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    if extra:
        argv += extra
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LEVI_CONFIG = {
    "model": {"rank": 2, "kind": "tube", "killing_b": 8.0},
    "function": {"builtin": "killing_potential"},
    "points": [[1.0, 2.0]],
}


def test_levi_eval_killing_calibration(capsys, tmp_path):
    code, out, err = run_cli(capsys, tmp_path, "levi-eval", LEVI_CONFIG)
    assert code == 0 and err == ""
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMAS["levi-eval"])
    result = report["results"][0]
    assert result["a_block"] == pytest.approx([8.0, 0.0, 0.0, 8.0], abs=1e-9)
    assert result["medium_coeff"][0]["value"] == pytest.approx(8.0, abs=1e-9)


def test_levi_eval_limit_flag_at_origin(capsys, tmp_path):
    config = {
        "model": {"rank": 1, "kind": "tube"},
        "function": {"expr": "t1^2", "chart": "modulus"},
        "points": [[0.0]],
    }
    code, out, _ = run_cli(capsys, tmp_path, "levi-eval", config)
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["a_block"] == [0.0]
    assert "limit:a1" in result["flags"]


def test_levi_eval_invalid_expression_exits_2_with_position(capsys, tmp_path):
    config = dict(LEVI_CONFIG, function={"expr": "t1 + + t2"},
                  model={"rank": 2, "kind": "tube"})
    code, out, err = run_cli(capsys, tmp_path, "levi-eval", config)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert isinstance(error["position"], int)


def test_unknown_config_key_rejected(capsys, tmp_path):
    config = dict(LEVI_CONFIG, bogus=1)
    code, _, err = run_cli(capsys, tmp_path, "levi-eval", config)
    assert code == 2
    assert "bogus" in json.loads(err)["error"]["message"]


def test_missing_required_key_rejected(capsys, tmp_path):
    code, _, err = run_cli(capsys, tmp_path, "psh-check",
                           {"model": {"rank": 1}})
    assert code == 2
    assert "requires" in json.loads(err)["error"]["message"]


def test_evaluation_error_exits_3(capsys, tmp_path):
    config = {
        "model": {"rank": 1, "kind": "tube"},
        "function": {"expr": "1/t1"},  # singular at the origin grid point
        "shadow": {"rank": 1, "boxes": [{"lo": [0.0], "hi": [1.0]}]},
    }
    code, _, err = run_cli(capsys, tmp_path, "psh-check", config)
    assert code == 3
    assert json.loads(err)["error"]["type"] == "GridEvaluationError"


def test_levi_eval_error_names_first_failing_point(capsys, tmp_path, monkeypatch):
    # log(0.45 - t1) is undefined from tanh(a)^2 >= 0.45 on: first at [0.9],
    # which sits in the second two-row chunk
    monkeypatch.setattr(levi, "CHUNK_FLOATS", 2)
    config = {"model": {"rank": 1}, "function": {"expr": "log(0.45 - t1)"},
              "points": [[0.1], [0.2], [0.9], [1.2]]}
    code, out, err = run_cli(capsys, tmp_path, "levi-eval", config)
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "GridEvaluationError"
    assert error["message"].startswith("evaluation failed at point [0.9]: ")


def test_levi_eval_report_does_not_depend_on_chunking(capsys, tmp_path, monkeypatch):
    config = {"model": {"rank": 3, "kind": "nontube", "mult_short": 2},
              "function": {"expr": "t1 + 2*t2^2 + exp(t3)"},
              "points": [[0.0, 0.0, 0.0], [0.4, -0.4, 1.0], [1.1, 0.0, 0.3],
                         [0.2, 0.5, 0.9], [-0.7, 0.1, 0.1]]}
    outs = []
    # rows = floats // (3! permutations x 3^2): chunks of 2 rows, then one chunk
    for floats in (2 * 6 * 9, levi.CHUNK_FLOATS):
        monkeypatch.setattr(levi, "CHUNK_FLOATS", floats)
        code, out, err = run_cli(capsys, tmp_path, "levi-eval", config)
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])["results"]) == 5


def test_levi_eval_memory_is_bounded_by_chunks(capsys, tmp_path):
    # 64 points x 7! permutations in one batch peaked near 85 MB
    config = {"model": {"rank": 7}, "function": {"expr": "t1 + 2*t2"},
              "points": [[0.1 * (k % 9), 0.05 * (k % 5), 0.3, 0.2, 0.1, 0.4, 0.0]
                         for k in range(64)]}
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, tmp_path, "levi-eval", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert len(json.loads(out)["results"]) == 64
    assert peak < 40 * 2**20


def test_symmetric_expression_undefined_at_the_probes_is_checked(capsys, tmp_path):
    # defined on the shadow (t < 0.04), but at none of the symmetry probe points
    config = {"model": {"rank": 2, "kind": "tube"},
              "function": {"expr": "-log(0.04 - t1) - log(0.04 - t2)"},
              "shadow": {"rank": 2, "boxes": [{"lo": [0.0, 0.0], "hi": [0.2, 0.2]}]}}
    code, out, err = run_cli(capsys, tmp_path, "psh-check", config)
    assert code == 0 and err == ""
    assert json.loads(out)["report"]["verdict"] == "strictly_psh"


def test_expression_undefined_at_the_probes_above_rank_eight_exits_2(capsys, tmp_path):
    expr = " + ".join(f"log(0.01 - t{j})" for j in range(1, 10))
    config = {"model": {"rank": 9}, "function": {"expr": expr}, "points": [[0.01] * 9]}
    code, out, err = run_cli(capsys, tmp_path, "levi-eval", config)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError" and "could not be checked" in error["message"]


def test_psh_check_verdict_is_data_not_failure(capsys, tmp_path):
    config = {
        "model": {"rank": 1, "kind": "tube"},
        "function": {"expr": "-(t1)"},
        "shadow": {"rank": 1, "boxes": [{"lo": [0.0], "hi": [1.0]}]},
    }
    code, out, _ = run_cli(capsys, tmp_path, "psh-check", config)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMAS["psh-check"])
    assert report["report"]["verdict"] == "not_psh"


def test_psh_check_classifies_its_shadow_once(capsys, tmp_path, monkeypatch):
    # the report's classification is the one the verdict used
    calls = []

    def counting(model, shadow):
        calls.append(shadow)
        return classify_domain(model, shadow)

    monkeypatch.setattr(pshcheck, "classify_domain", counting)
    monkeypatch.setattr(cli, "classify_domain", counting)
    config = {
        "model": {"rank": 2, "kind": "nontube"},
        "function": {"expr": "t1 + t2"},
        "shadow": {"rank": 2, "boxes": [{"lo": [0.2, 0.2], "hi": [0.6, 0.6]}]},
    }
    code, out, _ = run_cli(capsys, tmp_path, "psh-check", config)
    assert code == 0 and len(calls) == 1
    report = json.loads(out)
    assert report["classification"]["verdict"] == "not_stein"
    assert report["report"]["stein_shadow"] is False


def test_rank_twelve_non_symmetric_expression_exits_2(capsys, tmp_path):
    # its permutation average would take 12! = 479,001,600 permutations
    config = {"model": {"rank": 12, "kind": "tube"},
              "function": {"expr": "t1 + 2*t2"}, "points": [[0.5] * 12]}
    code, out, err = run_cli(capsys, tmp_path, "levi-eval", config)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError" and "symmetric" in error["message"]


def test_rank_twelve_symmetric_expression_parses(capsys, tmp_path):
    expr = " + ".join(f"t{j}" for j in range(1, 13))
    config = {"model": {"rank": 12, "kind": "tube"},
              "function": {"expr": expr}, "points": [[0.5] * 12]}
    code, out, err = run_cli(capsys, tmp_path, "levi-eval", config)
    assert code == 0 and err == ""
    assert json.loads(out)["function"] == {"expr": expr}


def test_cli_import_does_not_load_scipy():
    code = ("import sys, levislice.cli; "
            "print([m for m in ('scipy', 'jsonschema') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_main_builds_no_parser_per_call(capsys, tmp_path, monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("main built an ArgumentParser")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    config = {"model": {"rank": 1}, "shadow": {"rank": 1, "boxes": [{"lo": [0.0], "hi": [0.5]}]}}
    for _ in range(2):
        code, out, err = run_cli(capsys, tmp_path, "stein-classify", config)
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["verdict"] == "stein"


NON_FINITE_CONFIGS = [
    # tolerance NaN used to give psh_not_strict with "tolerance": null; the
    # least a-block eigenvalue here is 2.54, so the verdict is strictly_psh
    ("psh-check", '{"model": {"rank": 2, "kind": "tube"}, "function": {"expr": "t1+t2"}, '
                  '"shadow": {"rank": 2, "boxes": [{"lo": [0.1, 0.1], "hi": [0.5, 0.5]}]}, '
                  '"tolerance": NaN}'),
    # killing_b Infinity used to report null for every value and for killing_b
    ("potential-eval", '{"model": {"rank": 1, "killing_b": Infinity}, "points": [[0.5]]}'),
    ("potential-eval", '{"model": {"rank": 1}, "points": [[-Infinity]]}'),
    ("levi-eval", '{"model": {"rank": 1}, "function": {"builtin": "killing_potential"}, '
                  '"points": [[1e400]]}'),
]


@pytest.mark.parametrize("command,text", NON_FINITE_CONFIGS)
def test_non_finite_config_number_exits_2(capsys, tmp_path, command, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    code = main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ConfigError"
    assert "is not a finite number" in error["message"]


@pytest.mark.parametrize("command,config", [
    # C(23, 8) chamber points x 8! permutations of a non-symmetric expression
    ("psh-check", {"model": {"rank": 8}, "function": {"expr": "t1 + 2*t2"},
                   "shadow": {"rank": 8, "boxes": [{"lo": [0.0] * 8, "hi": [0.9] * 8}]},
                   "grid_n": 16}),
    # the counterexample suite's rank-one grid
    ("verify", {"grid_n": 2_000_000}),
])
def test_over_cap_grid_exits_2_before_building(capsys, tmp_path, monkeypatch, command, config):
    import levislice.pshcheck as pshcheck

    def no_grid(*args, **kwargs):
        raise AssertionError("chamber_grid ran on an over-cap grid")

    monkeypatch.setattr(pshcheck, "chamber_grid", no_grid)
    code, out, err = run_cli(capsys, tmp_path, command, config)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError" and "over the cap" in error["message"]


def test_verify_over_cap_positivity_grid_exits_2_before_building(capsys, tmp_path,
                                                                 monkeypatch):
    # the rank-one counterexample grid is under the cap; the rank-two
    # positivity grid, C(1501, 2) points, is not
    build = pshcheck.chamber_grid

    def rank_one_grid(shadow, grid_n):
        assert shadow.rank == 1, "chamber_grid ran on an over-cap grid"
        return build(shadow, grid_n)

    monkeypatch.setattr(pshcheck, "chamber_grid", rank_one_grid)
    code, out, err = run_cli(capsys, tmp_path, "verify", {"grid_n": 1500})
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError" and "over the cap" in error["message"]


def test_potential_overflow_reports_null(capsys, tmp_path):
    config = {"model": {"rank": 1, "killing_b": 1e300}, "points": [[100.0]]}
    code, out, _ = run_cli(capsys, tmp_path, "potential-eval", config)
    assert code == 0
    assert json.loads(out)["results"][0]["moment_coefficients"] == [None]


def _assert_json_native(value, where="report"):
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, where
            _assert_json_native(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _assert_json_native(item, f"{where}[{i}]")
    else:
        assert type(value) in (str, int, float, bool, type(None)), (where, type(value))
        assert type(value) is not float or math.isfinite(value), where


@pytest.mark.parametrize("command,config", [
    ("levi-eval", dict(LEVI_CONFIG, model={"rank": 2, "kind": "nontube", "mult_short": 2},
                       points=[[0.0, 0.0], [0.3, 0.3], [1.0, -0.5]])),
    ("psh-check", {"model": {"rank": 2, "kind": "nontube", "mult_short": 2},
                   "function": {"expr": "t1 + 2*t2^2"},
                   "shadow": {"rank": 2, "boxes": [{"lo": [0.1, 0.2], "hi": [0.5, 0.6]}]},
                   "grid_n": 4}),
    ("stein-classify", {"model": {"rank": 2},
                        "shadow": {"rank": 2, "boxes": [{"lo": [0.1, 0.5], "hi": [0.2, 0.6]}]}}),
    ("envelope", {"model": {"rank": 2},
                  "shadow": {"rank": 2, "boxes": [{"lo": [0.1, 0.5], "hi": [0.2, 0.6]}]}}),
    ("potential-eval", {"model": {"rank": 1, "killing_b": 1e300},
                        "points": [[0.0], [100.0]], "bergman_samples": [0.5]}),
    ("verify", {"grid_n": 4}),
])
def test_reports_are_json_native(command, config):
    """Reports hold plain str, int, finite float, bool and None, with no numpy
    scalars, so ``json.dumps`` needs no conversion pass."""
    _assert_json_native(cli._DISPATCH[command](copy.deepcopy(config)))


def _subschemas(schema):
    yield schema
    items = [schema["items"]] if "items" in schema else []
    for sub in (*schema.get("properties", {}).values(), *schema.get("oneOf", ()), *items):
        yield from _subschemas(sub)


def test_config_schema_uses_only_interpreted_keywords():
    schemas = list(_subschemas(CONFIG_SCHEMA))
    assert set().union(*schemas) <= SCHEMA_KEYWORDS
    # the forms the interpreter reads: one type name, additionalProperties false
    assert all(s["type"] in ("object", "array", "string", "number", "integer")
               for s in schemas if "type" in s)
    assert all(s["additionalProperties"] is False
               for s in schemas if "additionalProperties" in s)


# -- the schema interpreter against jsonschema ---------------------------------

_DRAFT = jsonschema.Draft202012Validator(CONFIG_SCHEMA)

BASE_CONFIGS = [
    {"seed": 3, "model": {"rank": 2, "kind": "nontube", "mult_medium": 2, "mult_short": 2,
                          "killing_b": 6.5},
     "function": {"expr": "t1 + t2^2", "chart": "modulus"},
     "shadow": {"rank": 2, "boxes": [{"lo": [0.0, 0.1], "hi": [0.5, 0.9]},
                                     {"lo": [0.2, 0.2], "hi": [0.3, 0.4]}]},
     "grid_n": 4, "tolerance": 1e-9, "short_coeff_factor": 1},
    {"model": {"rank": 1, "kind": "tube", "killing_b": 8},
     "function": {"builtin": "killing_potential", "chart": "slice"},
     "points": [[0.5], [-1.0]], "bergman_samples": [0.1, 0.9], "short_coeff_factor": 2},
    {"seed": 0, "grid_n": 2},
]

MUTANTS = [True, False, None, 0, 1, 2, -1, 0.0, 1.0, 2.0, 0.5, -0.5, 1.5, 1e-12,
           "tube", "nontube", "modulus", "slice", "killing_potential", "t1", [], [0.5],
           [[0.1, 0.2]], [True], {}, {"lo": [0.1], "hi": [0.2]}, {"rank": 2},
           {"expr": "t1", "builtin": "killing_potential"}]
KEYS = ["seed", "model", "rank", "kind", "killing_b", "expr", "builtin", "chart",
        "boxes", "lo", "hi", "points", "grid_n", "tolerance", "bogus"]


def _nodes(value, path=()):
    yield path, value
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in children:
        yield from _nodes(item, path + (key,))


@st.composite
def mutated_configs(draw):
    config = copy.deepcopy(draw(st.sampled_from(BASE_CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_nodes(config))))
        op = draw(st.sampled_from(["replace", "delete", "add", "empty"]))
        if op == "replace" and path:
            parent = config
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(MUTANTS)))
        elif op == "delete" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = copy.deepcopy(draw(st.sampled_from(MUTANTS)))
        elif op == "empty" and isinstance(node, (dict, list)):
            node.clear()
    return config


@settings(max_examples=600, deadline=None)
@given(mutated_configs())
def test_schema_interpreter_agrees_with_jsonschema(config):
    errors = list(_DRAFT.iter_errors(config))
    message = schema_violation(config, CONFIG_SCHEMA)
    assert (message is None) == (not errors), (message, [e.message for e in errors])
    if len(errors) == 1:
        assert message == errors[0].message


@pytest.mark.parametrize("config", BASE_CONFIGS)
def test_base_configs_are_valid(config):
    assert schema_violation(config, CONFIG_SCHEMA) is None and _DRAFT.is_valid(config)


def test_stein_classify_fixture(capsys, tmp_path):
    e1, e2 = math.exp(-1), math.exp(-2)
    config = {
        "model": {"rank": 2, "kind": "nontube", "mult_short": 2},
        "shadow": {"rank": 2, "boxes": [{"lo": [e2, e2], "hi": [e1, e1]}]},
    }
    code, out, _ = run_cli(capsys, tmp_path, "stein-classify", config)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMAS["stein-classify"])
    assert report["result"]["verdict"] == "not_stein"
    assert any("complete" in r for r in report["result"]["reasons"])


def test_envelope_command(capsys, tmp_path):
    e1, e2 = math.exp(-1), math.exp(-2)
    config = {
        "model": {"rank": 2, "kind": "nontube", "mult_short": 2},
        "shadow": {"rank": 2, "boxes": [{"lo": [e2, e2], "hi": [e1, e1]}]},
    }
    code, out, _ = run_cli(capsys, tmp_path, "envelope", config)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMAS["envelope"])
    assert report["changed"] is True
    assert report["classification_after"]["verdict"] == "stein"


def test_potential_eval_with_bergman(capsys, tmp_path):
    config = {
        "model": {"rank": 1, "kind": "tube", "killing_b": 8.0},
        "points": [[0.0], [0.5493061443340549]],  # atanh(0.5)
        "bergman_samples": [0.1, 0.5, 0.9],
    }
    code, out, _ = run_cli(capsys, tmp_path, "potential-eval", config)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMAS["potential-eval"])
    assert report["results"][0]["value"] == 0.0
    assert report["results"][1]["value"] == pytest.approx(
        -2.0 * math.log(0.75), rel=1e-12
    )
    assert report["bergman"]["identity_holds"] is True


def test_config_schema_is_itself_valid():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
    for schema in REPORT_SCHEMAS.values():
        jsonschema.Draft202012Validator.check_schema(schema)


def test_reports_are_deterministic(capsys, tmp_path):
    config = {
        "seed": 3,
        "model": {"rank": 1, "kind": "tube"},
        "function": {"expr": "t1^2"},
        "shadow": {"rank": 1, "boxes": [{"lo": [0.0], "hi": [1.0]}]},
    }
    _, out1, _ = run_cli(capsys, tmp_path, "psh-check", config)
    _, out2, _ = run_cli(capsys, tmp_path, "psh-check", config)
    assert out1 == out2


def test_out_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, tmp_path, "levi-eval", LEVI_CONFIG,
                           extra=["--out", str(out_path)])
    assert code == 0 and out == ""
    report = json.loads(out_path.read_text())
    assert report["command"] == "levi-eval"


def test_unwritable_out_path_exits_2(capsys, tmp_path):
    config = {"model": {"rank": 1}, "shadow": {"rank": 1, "boxes": [{"lo": [0.0], "hi": [0.5]}]}}
    code, out, err = run_cli(capsys, tmp_path, "stein-classify", config,
                             extra=["--out", str(tmp_path / "missing" / "x.json")])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError" and "cannot write report" in error["message"]


def test_seed_flag_overrides_config(capsys, tmp_path):
    config = {"seed": 5}
    path = tmp_path / "v.json"
    path.write_text(json.dumps(config))
    # verify with a different seed: the report must echo the override
    code = main(["verify", "--config", str(path), "--seed", "7",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["seed"] == 7
    jsonschema.validate(report, REPORT_SCHEMAS["verify"])


def test_negative_seed_flag_fails_the_schema(capsys, tmp_path, monkeypatch):
    import levislice.cli as cli

    def no_suites(*args, **kwargs):
        raise AssertionError("verify ran its suites on a rejected config")

    monkeypatch.setattr(cli, "run_all", no_suites)
    code, out, err = run_cli(capsys, tmp_path, "verify", extra=["--seed", "-1"])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"] == "config rejected: -1 is less than the minimum of 0"
