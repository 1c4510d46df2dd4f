"""Experiment driver: config validation, artifacts, verify, exit codes."""

import csv
import json
import os

import pytest

from stiffnet.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
    resolve_seed,
)


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
        {"study": "convergence", "system": "ou", "d": "four", "paths": 8, "n_list": [8]},
        {"study": "convergence", "system": "nope", "d": 2, "paths": 8, "n_list": [8]},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 0, "n_list": [8]},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [8], "horizon": 0},
        {"study": "synth", "system": "ou", "d": 2, "eps": 1.5},
        {"study": "game", "d": 2, "n_points": 0},
        {"study": "game", "d": 2, "steps": 2.5},
        {"study": "scaling", "d_list": [2, True]},
        {"study": "scaling", "eps_list": []},
        {"study": "scaling", "eps_fixed": 0.0},
    ],
)
def test_values_a_study_cannot_run_on_exit_2(tmp_path, cfg):
    path = _write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "out")
    assert main([cfg["study"], "--config", path, "--out", out]) == EXIT_CONFIG
    assert not os.path.exists(out)


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


def test_game_study_and_manifest_round_trip(tmp_path):
    path = _write_config(tmp_path, GAME_CFG)
    out = os.path.join(tmp_path, "out")
    assert main(["game", "--config", path, "--out", out]) == EXIT_OK
    manifest = _read_manifest(out)
    # the echoed config re-parses to an equal structure
    echo = _write_config(tmp_path, manifest["config"], name="echo.json")
    assert load_config(echo) == load_config(path)


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


def test_csv_floats_use_17_significant_digits(tmp_path):
    path = _write_config(tmp_path, GAME_CFG)
    out = os.path.join(tmp_path, "out")
    assert main(["game", "--config", path, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "game.csv")) as fh:
        rows = list(csv.DictReader(fh))
    val = rows[0]["agreement_err"]
    assert float(val) == float(repr(float(val)))  # round-trips exactly
