"""Experiment driver: config validation, artifacts, verify, exit codes."""

import csv
import json
import os
import threading

import pytest

from stiffnet import PathBundle
from stiffnet.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
    resolve_seed,
)
from stiffnet.sde import _WINDOW


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
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [8],
         "params": {"bogus": 1}},
        {"study": "convergence", "system": "ou", "d": 2, "paths": 8, "n_list": [8],
         "params": {"sigma_kind": "full"}},
        {"study": "synth", "system": "ou", "d": 2, "eps": 0.5, "cplan": -1.0},
        {"study": "synth", "system": "ou", "d": 2, "eps": 0.5, "cplan": "big"},
        {"study": "game", "d": 2, "u1": [[0.5], [-0.5, 1.0]]},
        {"study": "game", "d": 2, "params": {"m1": 2}},
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


def test_synth_galerkin_heat_plans_without_overflow(tmp_path):
    cfg = {"study": "synth", "system": "galerkin_heat", "d": 3, "eps": 0.5,
           "params": {"noise_scale": 0.1}}
    path = _write_config(tmp_path, cfg)
    assert main(["synth", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_nonlinear_synth_without_cplan_exits_2(tmp_path, capsys):
    # the recipe has no closed-form value to calibrate cplan against; the
    # runner finds that out, so its output directory may exist, but empty
    cfg = {"study": "synth", "system": "relu_drift", "d": 2, "eps": 0.5,
           "params": {"l_mu": 0.5, "noise_scale": 0.1}}
    path = _write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "out")
    assert main(["synth", "--config", path, "--out", out]) == EXIT_CONFIG
    assert "cplan" in capsys.readouterr().err
    assert not os.path.exists(out) or os.listdir(out) == []


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
