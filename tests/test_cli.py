import json
import math
import os
import subprocess
import sys

import jsonschema
import pytest

from levislice.cli import CONFIG_SCHEMA, REPORT_SCHEMAS, main


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
    code = "import sys, levislice.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


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
