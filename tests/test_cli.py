"""Experiment driver: config validation, artifacts, verify, exit codes."""

import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiffnet import PathBundle, realize
from stiffnet.cli import (
    _SCHEMAS,
    _SETUPS,
    _VALUE_RULES,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
    resolve_seed,
)
from stiffnet.sde import _WINDOW
from stiffnet.synthesis import BudgetError, plan_cost


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def _read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


GAME_CFG = {
    "study": "game",
    "d": 2,
    "eps": 0.5,
    "steps": 4,
    "paths": 8,
    "n_interventions": 1,
    "n_points": 5,
    "seed": 5,
}


# ------------------------------------------------------------ config schema


def test_load_config_fills_defaults(tmp_path):
    path = _write_config(tmp_path, {"study": "calculus-check"})
    cfg = load_config(path)
    assert cfg["instances"] == 10
    assert cfg["seed"] is None


def test_load_config_rejects_unknown_keys(tmp_path):
    path = _write_config(tmp_path, {"study": "calculus-check", "bogus": 1})
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_missing_required(tmp_path):
    path = _write_config(tmp_path, {"study": "convergence", "d": 2})
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_unknown_study(tmp_path):
    path = _write_config(tmp_path, {"study": "nope"})
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_bad_json(tmp_path):
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("study", [["game"], {"a": 1}])
def test_study_that_is_not_a_string_exits_2(tmp_path, capsys, study):
    path = _write_config(tmp_path, {"study": study, "d": 2})
    out = os.path.join(tmp_path, "out")
    assert main(["game", "--config", path, "--out", out]) == EXIT_CONFIG
    assert "unknown or missing study" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_bad_config_exits_2(tmp_path):
    path = _write_config(tmp_path, {"study": "calculus-check", "bogus": 1})
    assert main(["calculus-check", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "cfg",
    [
        {"study": "calculus-check", "instances": -3},
        {"study": "calculus-check", "points": 0},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [3, 8]},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [0, 8]},
        {"study": "convergence", "system": "ou", "d": "four", "paths": 8,
         "n_list": [8, 16]},
        {"study": "convergence", "system": "nope", "d": 2, "paths": 8, "n_list": [8, 16]},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 0, "n_list": [8, 16]},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [8, 16],
         "horizon": 0},
        {"study": "synth", "system": "ou", "d": 2, "eps": 1.5},
        {"study": "game", "d": 2, "n_points": 0},
        {"study": "game", "d": 2, "steps": 2.5},
        {"study": "scaling", "d_list": [2, True]},
        {"study": "scaling", "eps_list": []},
        {"study": "scaling", "eps_fixed": 0.0},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [8, 16],
         "params": {"bogus": 1}},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [8, 16],
         "params": {"sigma_kind": "full"}},
        {"study": "synth", "system": "ou", "d": 2, "eps": 0.5, "cplan": -1.0},
        {"study": "synth", "system": "ou", "d": 2, "eps": 0.5, "cplan": "big"},
        {"study": "game", "d": 2, "u1": [[0.5], [-0.5, 1.0]]},
        {"study": "game", "d": 2, "params": {"m1": 2}},
        # seeds are Philox uint64 keys; counts are JSON integers
        {"study": "game", "d": 2, "seed": "abc"},
        {"study": "game", "d": 2, "seed": -1},
        {"study": "game", "d": 2, "seed": 2**64},
        {"study": "game", "d": 2, "seed": 1.5},
        {"study": "game", "d": 2, "seed": True},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [8.5, 16]},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [True, 8]},
        # recipe parameters and the standing hypotheses, checked by the factories
        {"study": "game", "d": 2, "params": {"l_mu": "x"}},
        {"study": "game", "d": 2, "params": {"noise_scale": -1}},
        {"study": "game", "d": 2, "params": {"eta": 1.5}},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [8, 16],
         "params": {"decay": -1.0}},
        {"study": "convergence", "system": "galerkin_heat", "d": 2, "paths": 8,
         "n_list": [8, 16], "params": {"noise_scale": -0.1}},
        # an intervention off the Euler grid; more strategy pairs than the cap
        {"study": "game", "d": 2, "n_interventions": 3},
        {"study": "game", "d": 2, "n_interventions": 7},
        {"study": "game", "d": 2, "steps": 7, "n_interventions": 7},
        # action widths of the recipe against those of the action sets
        {"study": "game", "d": 2, "params": {"b1": [[1, 2], [3, 4]]}},
        {"study": "game", "d": 2, "params": {"b2": [1, 2, 3, 4]}},
        # a given cplan whose budget the planner cannot meet
        {"study": "synth", "system": "ou", "d": 2, "eps": 0.5, "cplan": 1e-12},
        {"study": "scaling", "cplan": 1e-12},
        # an action recipe outside game
        {"study": "synth", "system": "controlled_relu_drift", "d": 2, "eps": 0.5,
         "cplan": 100.0},
        {"study": "scaling", "system": "controlled_relu_drift"},
        # JSON bools are not recipe numbers
        {"study": "game", "d": 2, "params": {"l_mu": True}},
        {"study": "synth", "system": "ou", "d": 2, "eps": 0.5, "params": {"decay": True}},
        # Python's json reads NaN and Infinity, which are not recipe numbers either
        {"study": "synth", "system": "ou", "d": 2, "eps": 0.5,
         "params": {"decay": math.inf}},
        {"study": "game", "d": 2, "params": {"b1": [[math.nan], [1]]}},
        {"study": "convergence", "system": "galerkin_heat", "d": 2, "paths": 8,
         "n_list": [8, 16], "params": {"diffusivity": math.nan}},
        # step indices past int64
        {"study": "game", "d": 2, "steps": 2**64},
        # a slope needs two distinct points: one entry, or one repeated
        {"study": "scaling", "d_list": [4]},
        {"study": "scaling", "eps_list": [0.2]},
        {"study": "scaling", "d_list": [2, 2]},
        {"study": "scaling", "eps_list": [0.4, 0.2, 0.2]},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [8, 8]},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [8, 8, 16]},
        # an action recipe in convergence, which would simulate its uncontrolled envelope
        {"study": "convergence", "system": "controlled_relu_drift", "d": 2, "paths": 64,
         "n_list": [8, 16], "seed": 1, "params": {"b1": [[50.0], [50.0]]}},
    ],
)
def test_values_a_study_cannot_run_on_exit_2(tmp_path, capsys, cfg):
    path = _write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "out")
    assert main([cfg["study"], "--config", path, "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not os.path.exists(out)


# each study's smallest runnable config; the fuzz fills in the study's
# defaults and spoils one key
_RUNNABLE = {
    "calculus-check": {"study": "calculus-check"},
    "convergence": {"study": "convergence", "system": "ou", "d": 2, "paths": 8,
                    "n_list": [8, 16]},
    "synth": {"study": "synth", "system": "ou", "d": 2, "eps": 0.5},
    "game": {"study": "game", "d": 2},
    "scaling": {"study": "scaling"},
}
_PARAM_NAMES = ["decay", "noise", "eta", "sigma_kind", "diffusivity", "drift_scale",
                "noise_scale", "l_mu", "b1", "b2", "m1", "m2", "bogus"]
# wrong types, bools, floats, out-of-range and non-finite numbers, nested
# lists and objects.  Set-up builds a recipe of any dimension the rules
# accept and nothing yet caps a size given directly, so the only large
# integer is 2**64, which numpy refuses as a dimension before allocating
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=2),
    st.integers(-3, 0),
    st.just(2**64),
    st.floats(-1e3, 1e3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.lists(st.integers(-2, 2), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1),
)


@st.composite
def _spoilt_configs(draw):
    study = draw(st.sampled_from(sorted(_RUNNABLE)))
    cfg = dict(_SCHEMAS[study]["optional"], **_RUNNABLE[study])
    keys = sorted(set(cfg) - {"study"}) + (["grid"] if study == "game" else [])
    key = draw(st.sampled_from(keys))
    if key == "grid":  # intervention times off the Euler grid, or too many pairs
        cfg["steps"] = draw(st.integers(1, 16))
        cfg["n_interventions"] = draw(st.integers(1, 12))
    elif key == "params":
        cfg[key] = draw(
            _JUNK | st.dictionaries(st.sampled_from(_PARAM_NAMES), _JUNK, min_size=1,
                                    max_size=1)
        )
    else:
        cfg[key] = draw(_JUNK)
    return cfg


def _runnable(cfg):
    """Whether cfg meets every value rule and its study's set-up."""
    if not all(ok(cfg[k]) for k, (ok, _) in _VALUE_RULES.items() if k in cfg):
        return False
    try:
        _SETUPS[cfg["study"]](cfg)
    except Exception:
        return False
    return True


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(cfg=_spoilt_configs().filter(lambda cfg: not _runnable(cfg)))
def test_spoilt_configs_exit_2_before_any_output(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(tmp, cfg)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([cfg["study"], "--config", path, "--out", out])
        assert (code, os.path.exists(out)) == (EXIT_CONFIG, False), err.getvalue()
        assert err.getvalue().startswith("config error: ")


def test_subcommand_study_mismatch_exits_2(tmp_path):
    path = _write_config(tmp_path, {"study": "calculus-check"})
    assert main(["game", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG


# ----------------------------------------------------------------- seeding


def test_seed_env_honored_only_without_config_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("STIFFNET_SEED", "77")
    assert resolve_seed({"seed": None}) == 77
    assert resolve_seed({"seed": 12}) == 12
    monkeypatch.delenv("STIFFNET_SEED")
    assert resolve_seed({"seed": None}) == 1234


@pytest.mark.parametrize("env", ["abc", "-1", "1.5", "", str(2**64)])
def test_seed_env_outside_the_seed_rule_exits_2(tmp_path, capsys, monkeypatch, env):
    monkeypatch.setenv("STIFFNET_SEED", env)
    path = _write_config(tmp_path, {"study": "game", "d": 2})
    out = os.path.join(tmp_path, "out")
    assert main(["game", "--config", path, "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: STIFFNET_SEED")
    assert not os.path.exists(out)


# ------------------------------------------------------------------ studies


def test_calculus_check_study(tmp_path):
    path = _write_config(
        tmp_path, {"study": "calculus-check", "instances": 3, "points": 200, "seed": 1}
    )
    out = os.path.join(tmp_path, "out")
    assert main(["calculus-check", "--config", path, "--out", out]) == EXIT_OK
    manifest = _read_manifest(out)
    assert manifest["status"] == "ok"
    with open(os.path.join(out, "calculus.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(
        float(r["max_rel_err"]) <= 1e-12 and r["bound_ok"] == "1" for r in rows
    )


def test_synth_n_samples_sets_the_l2_sample_count(tmp_path):
    base = {"study": "synth", "system": "ou", "d": 2, "eps": 0.5, "seed": 3}
    errors = []
    for n_samples in (None, 16):
        cfg = base if n_samples is None else dict(base, n_samples=n_samples)
        path = _write_config(tmp_path, cfg)
        out = os.path.join(tmp_path, "out%s" % n_samples)
        main(["synth", "--config", path, "--out", out])
        with open(os.path.join(out, "synth.csv")) as fh:
            errors.append(float(next(csv.DictReader(fh))["l2_error"]))
    assert errors[0] != errors[1]


def test_synth_galerkin_heat_plans_without_overflow(tmp_path):
    cfg = {"study": "synth", "system": "galerkin_heat", "d": 3, "eps": 0.5,
           "params": {"noise_scale": 0.1}}
    path = _write_config(tmp_path, cfg)
    assert main(["synth", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_nonlinear_synth_without_cplan_exits_2(tmp_path, capsys):
    # the recipe has no closed-form value to calibrate cplan against; set-up
    # finds that out before the output directory is made
    cfg = {"study": "synth", "system": "relu_drift", "d": 2, "eps": 0.5,
           "params": {"l_mu": 0.5, "noise_scale": 0.1}}
    path = _write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "out")
    assert main(["synth", "--config", path, "--out", out]) == EXIT_CONFIG
    assert "cplan" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_failed_calibration_is_a_study_failure(tmp_path, capsys, monkeypatch):
    # calibration runs after set-up, so its BudgetError is not a config error
    import stiffnet.cli as cli

    def fail(*args, **kwargs):
        raise BudgetError("calibration failed")

    monkeypatch.setattr(cli, "calibrate_cplan", fail)
    path = _write_config(tmp_path, {"study": "synth", "system": "ou", "d": 2, "eps": 0.5})
    assert main(["synth", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_FAIL
    assert capsys.readouterr().err.startswith("study failed: calibration failed")


def test_nonlinear_synth_runs_with_an_explicit_cplan(tmp_path):
    cfg = {"study": "synth", "system": "relu_drift", "d": 2, "eps": 0.5,
           "params": {"l_mu": 0.5, "noise_scale": 0.1}, "cplan": 1e12}
    path = _write_config(tmp_path, cfg)
    assert main(["synth", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.parametrize(
    "system, params, paths",
    [
        ("ou", {"noise": 0.3, "sigma_kind": "const"}, 2048),
        ("relu_drift", {"noise_scale": 0.3}, 256),
    ],
)
def test_additive_noise_convergence_passes_at_order_one(tmp_path, system, params, paths):
    cfg = {"study": "convergence", "system": system, "d": 3, "params": params,
           "paths": paths, "n_list": [8, 16, 32], "seed": 201}
    path = _write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["convergence", "--config", path, "--out", out]) == EXIT_OK
    assert 0.9 <= _read_manifest(out)["strong_slope"] <= 1.1


def test_scaling_validates_each_dimension_once(tmp_path, monkeypatch):
    import stiffnet.systems as systems

    dims = []
    validate = systems.validate_system

    def counted(sys, **kwargs):
        dims.append(sys.d)
        return validate(sys, **kwargs)

    monkeypatch.setattr(systems, "validate_system", counted)
    cfg = {"study": "scaling", "d_list": [2, 4], "eps_list": [0.4, 0.2], "d_fixed": 4,
           "params": {"decay": 0.5, "noise": 0.1}, "seed": 3}
    path = _write_config(tmp_path, cfg)
    assert main(["scaling", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert sorted(dims) == [2, 4]
    # and no dimension outside the config's, such as a d=2 probe
    dims.clear()
    cfg = {"study": "scaling", "d_list": [4, 8], "eps_list": [0.4, 0.2], "d_fixed": 4}
    _SETUPS["scaling"](load_config(_write_config(tmp_path, cfg, name="wide.json")))
    assert sorted(dims) == [4, 8]


def test_game_eps_too_small_for_the_cost_net_names_eps(tmp_path, capsys):
    # eps^2 underflows, so the cost accuracy eps^2/(8 d D^2) would be 0
    path = _write_config(tmp_path, {"study": "game", "d": 2, "eps": 1e-170})
    out = os.path.join(tmp_path, "out")
    assert main(["game", "--config", path, "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: eps 1e-170 is too small")
    assert not os.path.exists(out)


def test_convergence_with_one_step_count_exits_2_naming_n_list(tmp_path, capsys):
    # one step count gives no strong slope
    cfg = {"study": "convergence", "system": "ou", "d": 2, "paths": 64, "n_list": [8],
           "seed": 1}
    path = _write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "out")
    assert main(["convergence", "--config", path, "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: n_list needs two or more")
    assert not os.path.exists(out)


def test_game_verdict_requires_the_unroll_report(tmp_path, monkeypatch):
    import stiffnet.cli as cli

    path = _write_config(tmp_path, GAME_CFG)
    out = os.path.join(tmp_path, "out")
    assert main(["game", "--config", path, "--out", out]) == EXIT_OK
    manifest = _read_manifest(out)
    assert manifest["size_bound_ok"] is True and manifest["width_condition_ok"] is True
    pair_value_nets = cli.pair_value_nets
    for key, entry in [
        ("bound_ok", "size_bound_ok"),
        ("width_condition_ok", "width_condition_ok"),
    ]:

        def failing(*args):
            stack, report = pair_value_nets(*args)
            return stack, dict(report, **{key: False})

        monkeypatch.setattr(cli, "pair_value_nets", failing)
        out = os.path.join(tmp_path, key)
        assert main(["game", "--config", path, "--out", out]) == EXIT_FAIL
        manifest = _read_manifest(out)
        assert manifest[entry] is False and manifest["status"] == "failed"


def test_game_study_and_manifest_round_trip(tmp_path):
    path = _write_config(tmp_path, GAME_CFG)
    out = os.path.join(tmp_path, "out")
    assert main(["game", "--config", path, "--out", out]) == EXIT_OK
    manifest = _read_manifest(out)
    # the echoed config re-parses to an equal structure
    echo = _write_config(tmp_path, manifest["config"], name="echo.json")
    assert load_config(echo) == load_config(path)


def _python(code, *args):
    """Run `code` in a fresh interpreter with this stiffnet on its path."""
    import stiffnet

    src = os.path.dirname(os.path.dirname(os.path.abspath(stiffnet.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )


# runs each config in turn after `import stiffnet.cli`, and prints each
# study's exit code with the modules it loaded
_STUDIES_AFTER_IMPORT = """
import json, os, sys, tempfile
import stiffnet.cli as cli
loaded = set(sys.modules)
report = []
with tempfile.TemporaryDirectory() as tmp:
    for i, cfg in enumerate(json.loads(sys.argv[1])):
        path = os.path.join(tmp, "%d.json" % i)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = cli.main([cfg["study"], "--config", path, "--out", os.path.join(tmp, str(i))])
        report.append([cfg["study"], code, sorted(set(sys.modules) - loaded)])
        loaded = set(sys.modules)
print(json.dumps(report))
"""


# one small config of every study
_EVERY_STUDY = [
    {"study": "game", "d": 2},
    {"study": "synth", "system": "ou", "d": 2, "eps": 0.75},
    {"study": "convergence", "system": "ou", "d": 2, "paths": 64, "n_list": [4, 8]},
    {"study": "calculus-check"},
    {"study": "scaling", "d_list": [2, 3], "eps_list": [0.4, 0.3]},
]


def test_no_study_imports_a_module():
    # every import is paid when the cli loads, before any study's clock starts
    run = _python(_STUDIES_AFTER_IMPORT, json.dumps(_EVERY_STUDY))
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert [study for study, _, _ in report] == [cfg["study"] for cfg in _EVERY_STUDY]
    for study, code, modules in report:
        assert code == EXIT_OK, study
        assert modules == [], "%s imported %s" % (study, modules)


def test_numpy_ma_is_loaded_neither_by_the_cli_nor_by_a_study():
    # np.unique would load numpy.ma; the calculus forms its pattern unions without it
    run = _python("import sys, stiffnet.cli; print('numpy.ma' in sys.modules)")
    assert run.stdout.split() == ["False"], run.stderr
    # sys.modules only grows, so one look after the last study covers every study
    code = _STUDIES_AFTER_IMPORT + "print('numpy.ma' in sys.modules)\n"
    run = _python(code, json.dumps(_EVERY_STUDY))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_only_the_calculus_imports_private_names_of_sibling_modules():
    import stiffnet

    package = os.path.dirname(os.path.abspath(stiffnet.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "calculus.py":
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "stiffnet"
            )
            if sibling:
                found += [
                    "%s: %s" % (name, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                    and not (alias.name.startswith("__") and alias.name.endswith("__"))
                ]
    assert found == []


def test_options_may_come_before_or_after_the_command(tmp_path):
    path = _write_config(tmp_path, {"study": "calculus-check", "instances": 1, "points": 8})
    out = os.path.join(tmp_path, "out")
    assert main(["--config", path, "--out", out, "calculus-check"]) == EXIT_OK
    assert main(["verify", "--out", out, "--threads", "1", "--config", path]) == EXIT_OK
    # an unknown command or a missing option is a usage error, exit code 2
    for argv in (["bogus", "--config", path, "--out", out], ["verify", "--config", path]):
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG


def test_game_runs_where_scipy_cannot_be_imported(tmp_path):
    path = _write_config(tmp_path, {"study": "game", "d": 2})
    code = (
        "import sys; sys.modules['scipy'] = None; import stiffnet.cli as cli; "
        "sys.exit(cli.main(['game', '--config', sys.argv[1], '--out', sys.argv[2]]))"
    )
    run = _python(code, path, os.path.join(tmp_path, "out"))
    assert run.returncode == EXIT_OK, run.stderr


def test_verify_reproduces_and_detects_change(tmp_path):
    path = _write_config(tmp_path, GAME_CFG)
    out = os.path.join(tmp_path, "out")
    assert main(["game", "--config", path, "--out", out]) == EXIT_OK
    assert main(["verify", "--config", path, "--out", out]) == EXIT_OK
    # verify is thread-count independent
    assert (
        main(["verify", "--config", path, "--out", out, "--threads", "4"]) == EXIT_OK
    )
    # a different seed must be flagged
    other = _write_config(tmp_path, dict(GAME_CFG, seed=6), name="other.json")
    assert main(["verify", "--config", other, "--out", out]) == EXIT_FAIL


def test_verify_reproduces_a_nan_result(tmp_path, monkeypatch):
    # a run without a strong slope fails with NaN in its manifest, and an
    # unchanged rerun still verifies
    import stiffnet.cli as cli

    rate_study = cli.rate_study
    def no_slope(*args, **kwargs):
        return dict(rate_study(*args, **kwargs), strong_slope=math.nan)

    monkeypatch.setattr(cli, "rate_study", no_slope)
    cfg = {"study": "convergence", "system": "ou", "d": 2, "n_list": [8, 16],
           "paths": 64, "seed": 1}
    path = _write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "out")
    assert main(["convergence", "--config", path, "--out", out]) == EXIT_FAIL
    assert math.isnan(_read_manifest(out)["strong_slope"])
    assert main(["verify", "--config", path, "--out", out]) == EXIT_OK


def _flip_network_byte(out):
    path = os.path.join(out, "network.txt")
    with open(path, "rb") as fh:
        text = bytearray(fh.read())
    pos = text.index(b"0x1.") + 2  # one digit of a weight: still parses
    text[pos] = ord("0")
    with open(path, "wb") as fh:
        fh.write(text)


def _edit_manifest_cplan(out):
    manifest = _read_manifest(out)
    manifest["cplan"] *= 2.0
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)


@pytest.mark.parametrize("edit", [_flip_network_byte, _edit_manifest_cplan])
def test_verify_detects_an_edited_synth_artifact(tmp_path, edit):
    path = _write_config(
        tmp_path, {"study": "synth", "system": "ou", "d": 2, "eps": 0.5, "seed": 3}
    )
    out = os.path.join(tmp_path, "out")
    assert main(["synth", "--config", path, "--out", out]) == EXIT_OK
    assert main(["verify", "--config", path, "--out", out]) == EXIT_OK
    edit(out)
    assert main(["verify", "--config", path, "--out", out]) == EXIT_FAIL


def test_verify_missing_artifact(tmp_path):
    path = _write_config(tmp_path, GAME_CFG)
    out = os.path.join(tmp_path, "out")
    assert main(["game", "--config", path, "--out", out]) == EXIT_OK
    os.remove(os.path.join(out, "game.csv"))
    assert main(["verify", "--config", path, "--out", out]) == EXIT_FAIL


def test_verify_without_prior_run(tmp_path):
    path = _write_config(tmp_path, GAME_CFG)
    empty = os.path.join(tmp_path, "empty")
    os.makedirs(empty)
    assert main(["verify", "--config", path, "--out", empty]) == EXIT_FAIL


def test_game_eps_sizes_the_cost_net(tmp_path, monkeypatch):
    import stiffnet.cli as cli

    built = []
    pair_value_nets = cli.pair_value_nets

    def watched(s1, s2, recipe, cost, budget, *rest):
        built.append((recipe, cost, budget))
        return pair_value_nets(s1, s2, recipe, cost, budget, *rest)

    monkeypatch.setattr(cli, "pair_value_nets", watched)
    sizes = []
    for eps in (0.25, 0.5):
        path = _write_config(tmp_path, dict(GAME_CFG, eps=eps))
        out = os.path.join(tmp_path, "out%g" % eps)
        assert main(["game", "--config", path, "--out", out]) == EXIT_OK
        with open(os.path.join(out, "game.csv")) as fh:
            sizes.append(int(next(csv.DictReader(fh))["net_size"]))
    # a finer eps needs one more sawtooth stage in the cost net
    assert sizes[0] > sizes[1]
    xs = np.random.default_rng(0).uniform(-5.0, 5.0, (200, GAME_CFG["d"]))
    for recipe, cost, budget in built:
        want = plan_cost(GAME_CFG["d"], budget, recipe.system.kappa0)
        assert cost.net.dims == want.net.dims and cost.theta == want.theta
        assert np.array_equal(realize(cost.net, xs), realize(want.net, xs))
    assert built[0][1].net.depth == built[1][1].net.depth + 1


def test_csv_floats_use_17_significant_digits(tmp_path):
    path = _write_config(tmp_path, GAME_CFG)
    out = os.path.join(tmp_path, "out")
    assert main(["game", "--config", path, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "game.csv")) as fh:
        rows = list(csv.DictReader(fh))
    val = rows[0]["agreement_err"]
    assert float(val) == float(repr(float(val)))  # round-trips exactly


def test_convergence_artifacts_do_not_depend_on_threads(tmp_path, monkeypatch):
    cfg = {"study": "convergence", "system": "ou", "d": 2, "paths": 64,
           "params": {"noise": 0.5, "sigma_kind": "diag"}, "n_list": [2, 4], "seed": 8}
    path = _write_config(tmp_path, cfg)
    alive = []
    increments = PathBundle.increments

    def watched(self, n, out=None):
        alive.append(threading.active_count())
        return increments(self, n, out)

    monkeypatch.setattr(PathBundle, "increments", watched)
    runs = []
    for flag in (["--threads", "1"], [], ["--threads", "64"]):
        out = str(tmp_path / ("out%d" % len(runs)))
        before = threading.active_count()
        alive.clear()
        code = main(["convergence", "--config", path, "--out", out] + flag)
        with open(os.path.join(out, "convergence.csv")) as fh:
            csv_text = fh.read()
        manifest = _read_manifest(out)
        del manifest["wall_ms"]
        runs.append((code, csv_text, manifest))
    assert runs[0] == runs[1] == runs[2]
    # the --threads 64 run drew on workers, never more than the window holds
    assert before < max(alive) <= _WINDOW
    out = str(tmp_path / "zero")
    assert main(["convergence", "--config", path, "--out", out, "--threads", "0"]) == EXIT_CONFIG
