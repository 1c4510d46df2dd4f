"""Batch experiment driver.

One study per invocation: a JSON config with a top-level "study"
discriminator selects the runner; artifacts are CSV files (17 significant
digits, so a re-run with the same seed is byte-identical apart from the
wall_ms column) plus a manifest echoing the config.  `verify` re-runs a
study from its config and byte-compares the deterministic CSV columns
against the previously written artifacts.

Exit codes: 0 pass, 1 assertion/verification failure, 2 config error.
"""

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .calculus import (
    add_compose,
    add_compose_bound,
    combine,
    compose,
    extend_depth,
    identity_net,
    max_tree,
    max_tree_bound,
    min_tree,
    parallel_shared,
    square_unit_net,
    weighted_square_bound,
    weighted_square_net,
    widen_layer,
)
from .game import (
    StrategyGrid,
    brute_force_game_value,
    controlled_value_net,
    enumerate_strategies,
    game_delta,
    infsup_net,
)
from .network import Layer, Network, fold_affine, realize, save_network
from .sde import exact_coefficients, rate_study, reference_steps
from .synthesis import (
    SynthesisBudget,
    calibrate_cplan,
    coefficients_from_nets,
    cplan_floor,
    l2_error,
    mc_reference,
    plan_budget,
    plan_cost,
    truncation_radius,
    uniform_cube_measure,
    unroll_value_net,
)
from .systems import (
    RECIPES,
    make_controlled_relu_drift,
    make_quadratic_cost,
    make_system,
)

SEED_ENV = "STIFFNET_SEED"
DEFAULT_SEED = 1234

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


_SCHEMAS = {
    "calculus-check": {
        "required": set(),
        "optional": {"seed": None, "instances": 10, "points": 2000},
    },
    "convergence": {
        "required": {"system", "d", "n_list", "paths"},
        "optional": {"seed": None, "params": {}, "horizon": 1.0},
    },
    "synth": {
        "required": {"system", "d", "eps"},
        "optional": {
            "seed": None,
            "params": {},
            "horizon": 1.0,
            "cplan": None,
            "n_samples": 256,
        },
    },
    "game": {
        "required": {"d"},
        "optional": {
            "seed": None,
            "eps": 0.25,
            "params": {},
            "horizon": 1.0,
            "steps": 4,
            "paths": 8,
            "n_interventions": 2,
            "u1": [[0.5], [-0.5]],
            "u2": [[0.25], [-0.25]],
            "n_points": 20,
        },
    },
    "scaling": {
        "required": set(),
        "optional": {
            "seed": None,
            "system": "ou",
            "params": {},
            "horizon": 1.0,
            "d_list": [2, 4, 8, 16],
            "eps_list": [0.4, 0.2, 0.1],
            "d_fixed": 4,
            "eps_fixed": 0.25,
            "cplan": None,
        },
    },
}


def load_config(path, expected_study=None):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    study = cfg.get("study")
    if study not in _SCHEMAS:
        raise ConfigError(
            "unknown or missing study %r (known: %s)"
            % (study, ", ".join(sorted(_SCHEMAS)))
        )
    if expected_study is not None and study != expected_study:
        raise ConfigError(
            "config study %r does not match subcommand %r" % (study, expected_study)
        )
    schema = _SCHEMAS[study]
    keys = set(cfg) - {"study"}
    unknown = keys - schema["required"] - set(schema["optional"])
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    missing = schema["required"] - keys
    if missing:
        raise ConfigError("missing config keys: %s" % ", ".join(sorted(missing)))
    full = dict(schema["optional"])
    full.update({k: cfg[k] for k in keys})
    full["study"] = study
    _check_values(full)
    return full


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _is_accuracy(v):
    return _is_number(v) and 0.0 < v <= 1.0


def _list_of(check):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(map(check, v))


_COUNT = (_is_count, "an integer >= 1")
_ACCURACY = (_is_accuracy, "a number in (0, 1]")
# the rule each value a runner converts must meet
_VALUE_RULES = {
    **{k: _COUNT for k in ("d", "paths", "steps", "n_interventions", "n_points")},
    **{k: _COUNT for k in ("n_samples", "d_fixed", "instances", "points")},
    "eps": _ACCURACY,
    "eps_fixed": _ACCURACY,
    "d_list": (_list_of(_is_count), "a non-empty list of integers >= 1"),
    "eps_list": (_list_of(_is_accuracy), "a non-empty list of numbers in (0, 1]"),
    "horizon": (lambda v: _is_number(v) and 0.0 < v < math.inf, "a finite number > 0"),
    "system": (
        lambda v: isinstance(v, str) and v in RECIPES,
        "one of " + ", ".join(sorted(RECIPES)),
    ),
}


def _check_values(cfg):
    """Reject values a study would check nothing with or fail on mid-run.

    Values are checked, never rewritten, so the manifest echoes the config
    as it was given.
    """
    for key, (ok, what) in _VALUE_RULES.items():
        if key in cfg and not ok(cfg[key]):
            raise ConfigError("%s must be %s, got %r" % (key, what, cfg[key]))
    if cfg["study"] == "convergence":
        try:
            reference_steps(cfg["n_list"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def resolve_seed(cfg):
    if cfg.get("seed") is not None:
        return int(cfg["seed"])
    env = os.environ.get(SEED_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _fmt(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[h]) for h in header) + "\n")


def write_manifest(out_dir, study, cfg, seed, artifacts, extra, wall_ms, status):
    manifest = {
        "study": study,
        "config": cfg,
        "seed": seed,
        "version": __version__,
        "artifacts": artifacts,
        "wall_ms": wall_ms,
        "status": status,
    }
    manifest.update(extra)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# --- calculus-check study -------------------------------------------------


def _rand_net(rng, dims):
    layers = []
    for i in range(1, len(dims)):
        layers.append(
            Layer(rng.normal(0, 1, (dims[i], dims[i - 1])), rng.normal(0, 1, dims[i]))
        )
    return Network(layers)


def _rel_err(got, want):
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


def calculus_suite(seed, instances, points):
    """Randomized exactness + size-bound checks; one summary row per op."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    rows = []

    def record(op, err, bound_ok):
        rows.append(
            {
                "operation": op,
                "instances": instances,
                "points": points,
                "max_rel_err": err,
                "bound_ok": bound_ok,
            }
        )

    err, ok = 0.0, True
    for _ in range(instances):
        d, L = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        net = identity_net(d, L)
        xs = rng.normal(0, 3, (points, d))
        err = max(err, _rel_err(realize(net, xs), xs))
        expect = d * d + d if L == 1 else None
        if L == 1 and net.size != expect:
            ok = False
        if L == 2 and net.size != 4 * d * d + 3 * d:
            ok = False
    record("identity", err, ok)

    err, ok = 0.0, True
    for _ in range(instances):
        d = int(rng.integers(1, 4))
        dims = [d, int(rng.integers(1, 5)), int(rng.integers(1, 5)), d]
        net = _rand_net(rng, dims)
        mat = rng.normal(0, 1, (d, d))
        vec = rng.normal(0, 1, d)
        xs = rng.normal(0, 2, (points, d))
        pre = fold_affine(net, "pre", mat, vec)
        post = fold_affine(net, "post", mat, vec)
        err = max(err, _rel_err(realize(pre, xs), realize(net, xs @ mat.T + vec)))
        err = max(err, _rel_err(realize(post, xs), realize(net, xs) @ mat.T + vec))
        if pre.size != net.size or post.size != net.size:
            ok = False
    record("fold_affine", err, ok)

    err, ok = 0.0, True
    for _ in range(instances):
        d0, dm, d1 = (int(rng.integers(1, 4)) for _ in range(3))
        inner = _rand_net(rng, [d0, int(rng.integers(1, 5)), dm])
        outer = _rand_net(rng, [dm, int(rng.integers(1, 5)), d1])
        net = compose(outer, inner)
        xs = rng.normal(0, 2, (points, d0))
        err = max(err, _rel_err(realize(net, xs), realize(outer, realize(inner, xs))))
        if net.size > 2 * (outer.size + inner.size) or net.depth != outer.depth + inner.depth:
            ok = False
    record("compose", err, ok)

    err, ok = 0.0, True
    for _ in range(instances):
        d0, d1 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        dims = [d0, int(rng.integers(1, 5)), int(rng.integers(1, 5)), d1]
        m = int(rng.integers(1, 5))
        nets = [_rand_net(rng, dims) for _ in range(m)]
        coeffs = rng.normal(0, 1, m)
        net = combine(coeffs, nets)
        xs = rng.normal(0, 2, (points, d0))
        want = sum(c * realize(n, xs) for c, n in zip(coeffs, nets))
        err = max(err, _rel_err(realize(net, xs), want))
        if net.size > m * m * nets[0].size:
            ok = False
    record("combine", err, ok)

    err, ok = 0.0, True
    for _ in range(instances):
        d0 = int(rng.integers(1, 4))
        dims = [d0, int(rng.integers(1, 5)), int(rng.integers(1, 4))]
        a, b = _rand_net(rng, dims), _rand_net(rng, dims)
        net = parallel_shared(a, b)
        xs = rng.normal(0, 2, (points, d0))
        want = np.concatenate([realize(a, xs), realize(b, xs)], axis=-1)
        err = max(err, _rel_err(realize(net, xs), want))
        if net.size > 2 * (a.size + b.size):
            ok = False
    record("parallel_shared", err, ok)

    err, ok = 0.0, True
    for _ in range(instances):
        d = int(rng.integers(1, 4))
        daux = int(rng.integers(1, 3))
        base = _rand_net(rng, [d, int(rng.integers(1, 5)), d])
        k = int(rng.integers(1, 4))
        wid = int(rng.integers(1, 5))
        branches = [_rand_net(rng, [d + daux, wid, d]) for _ in range(k)]
        u = rng.normal(0, 1, daux)
        net = add_compose(base, branches, u)
        xs = rng.normal(0, 2, (points, d))
        mid = realize(base, xs)
        zu = np.concatenate([mid, np.broadcast_to(u, mid.shape[:-1] + (daux,))], axis=-1)
        want = mid + sum(realize(br, zu) for br in branches)
        err = max(err, _rel_err(realize(net, xs), want))
        if base.dims[-2] <= 2 * d + sum(br.dims[1] for br in branches):
            if net.size > add_compose_bound(base, branches):
                ok = False
        if net.depth != base.depth + branches[0].depth - 1:
            ok = False
    record("add_compose", err, ok)

    err, ok = 0.0, True
    for _ in range(instances):
        d0 = int(rng.integers(1, 4))
        dims = [d0, int(rng.integers(1, 5)), 1]
        n_leaves = int(rng.choice([2, 4]))
        nets = [_rand_net(rng, dims) for _ in range(n_leaves)]
        tree = max_tree(nets)
        mtree = min_tree(nets)
        xs = rng.normal(0, 2, (points, d0))
        vals = np.stack([realize(n, xs)[..., 0] for n in nets])
        err = max(err, _rel_err(realize(tree, xs)[..., 0], vals.max(axis=0)))
        err = max(err, _rel_err(realize(mtree, xs)[..., 0], vals.min(axis=0)))
        levels = int(math.log2(n_leaves))
        cap = max_tree_bound(nets[0].size, levels)
        if tree.size > cap or mtree.size > cap:
            ok = False
    record("max_min_tree", err, ok)

    err, ok = 0.0, True
    for _ in range(instances):
        d = int(rng.integers(1, 4))
        net = _rand_net(rng, [d, int(rng.integers(2, 5)), d])
        deeper = extend_depth(net, net.depth + int(rng.integers(1, 3)))
        wider = widen_layer(net, 1)
        xs = rng.normal(0, 2, (points, d))
        want = realize(net, xs)
        err = max(err, _rel_err(realize(deeper, xs), want))
        err = max(err, _rel_err(realize(wider, xs), want))
        idn = identity_net(d, deeper.depth - net.depth)
        if deeper.size > 2 * (idn.size + net.size):
            ok = False
        if wider.size != net.size + net.dims[0] + 1 + net.dims[2]:
            ok = False
    record("extend_widen", err, ok)

    err, ok = 0.0, True
    for eps in (1e-1, 1e-2, 1e-3):
        net = square_unit_net(eps)
        grid = np.linspace(0.0, 1.0, 2001)[:, None]
        gap = np.max(np.abs(realize(net, grid)[:, 0] - grid[:, 0] ** 2))
        if gap > eps:
            ok = False
        outside = np.array([-2.0, -0.5, 1.5, 3.0])[:, None]
        err = max(err, _rel_err(realize(net, outside)[:, 0], outside[:, 0]))
        d = int(rng.integers(1, 5))
        beta = rng.normal(0, 1, d)
        radius = float(rng.uniform(0.5, 3.0))
        target, wnet = weighted_square_net(beta, radius, eps)
        xs = rng.normal(0, 2 * radius, (points, d))
        gap2 = np.max(np.abs(realize(wnet, xs)[:, 0] - target(xs)))
        if gap2 > np.max(np.abs(beta)) * d * radius**2 * eps * (1 + 1e-9):
            ok = False
        if wnet.size > weighted_square_bound(d, eps):
            ok = False
    record("square_nets", err, ok)

    return rows


def run_calculus(cfg, out_dir, seed):
    rows = calculus_suite(seed, int(cfg["instances"]), int(cfg["points"]))
    write_csv(
        os.path.join(out_dir, "calculus.csv"),
        ["operation", "instances", "points", "max_rel_err", "bound_ok"],
        rows,
    )
    ok = all(r["bound_ok"] and r["max_rel_err"] <= 1e-11 for r in rows)
    return ["calculus.csv"], {"all_pass": ok}, ok


# --- convergence study ----------------------------------------------------


def run_convergence(cfg, out_dir, seed):
    recipe = make_system(cfg["system"], int(cfg["d"]), **cfg["params"])
    horizon = float(cfg["horizon"])
    x0 = np.full(recipe.d, 0.5)
    cost = make_quadratic_cost(np.ones(recipe.d), 3.0, 1e-3)
    oracle = (
        recipe.exact_value(cost.beta_weights, x0, horizon) if recipe.linear else None
    )
    study = rate_study(
        recipe.system,
        exact_coefficients(recipe.system),
        cost,
        x0,
        cfg["n_list"],
        horizon,
        seed,
        int(cfg["paths"]),
        oracle=oracle,
    )
    write_csv(
        os.path.join(out_dir, "convergence.csv"),
        ["N", "h", "strong_err", "weak_err", "stderr"],
        study["rows"],
    )
    extra = {"strong_slope": study["strong_slope"], "weak_slope": study["weak_slope"]}
    ok = 0.4 <= study["strong_slope"] <= 0.6
    return ["convergence.csv"], extra, ok


# --- synth study ----------------------------------------------------------


def _plan_constants(recipe):
    eta = recipe.system.eta
    kappa = max(1.0, recipe.system.kappa0)
    tau = 2.0 + eta / 2.0
    return eta, kappa, tau


def run_synth(cfg, out_dir, seed):
    d = int(cfg["d"])
    horizon = float(cfg["horizon"])
    eps = float(cfg["eps"])
    recipe = make_system(cfg["system"], d, **cfg["params"])
    eta, kappa, tau = _plan_constants(recipe)
    cplan = cfg["cplan"]
    if cplan is None:
        cplan = calibrate_cplan(
            eps,
            lambda dd: make_system(cfg["system"], dd, **cfg["params"]),
            lambda dd, budget: plan_cost(dd, budget, kappa),
            eta,
            kappa,
            tau,
            horizon,
            seed,
            d_max=max(d, 16),
        )
    budget = plan_budget(
        eps, d, eta, kappa, tau, horizon, beta=recipe.system.beta, cplan=float(cplan)
    )
    cost = plan_cost(d, budget, kappa)
    t0 = time.perf_counter()
    psi, report = unroll_value_net(
        recipe.mu_net, recipe.sigma_col_nets, cost.net, recipe.system, budget, seed
    )
    measure = uniform_cube_measure(eta)
    if recipe.linear:
        reference = lambda xs: recipe.exact_value(cost.beta_weights, xs, horizon)
        ref_kind = "closed_form"
    else:
        coeffs = coefficients_from_nets(recipe.mu_net, recipe.sigma_col_nets)
        reference = lambda xs: mc_reference(
            recipe.system, coeffs, cost, budget, seed, xs
        )
        ref_kind = "scheme_same_seed"
    err, stderr = l2_error(
        psi, reference, measure, d, int(cfg["n_samples"]), seed ^ 0xE5
    )
    wall_ms = (time.perf_counter() - t0) * 1e3
    save_network(psi, os.path.join(out_dir, "network.txt"))
    row = {
        "d": d,
        "eps": eps,
        "N": budget.steps,
        "M": budget.paths,
        "D": budget.radius,
        "delta": budget.delta,
        "net_size": psi.size,
        "net_depth": psi.depth,
        "l2_error": err,
        "l2_stderr": stderr,
        "wall_ms": wall_ms,
    }
    write_csv(os.path.join(out_dir, "synth.csv"), list(row), [row])
    extra = {
        "cplan": float(cplan),
        "reference": ref_kind,
        "size_bound_ok": report["bound_ok"],
        "width_condition_ok": report["width_condition_ok"],
    }
    ok = report["bound_ok"] and report["width_condition_ok"] and err <= eps
    return ["synth.csv", "network.txt"], extra, ok


# --- game study -----------------------------------------------------------


def run_game(cfg, out_dir, seed):
    d = int(cfg["d"])
    eps = float(cfg["eps"])
    horizon = float(cfg["horizon"])
    steps = int(cfg["steps"])
    paths = int(cfg["paths"])
    n_int = int(cfg["n_interventions"])
    u1 = np.atleast_2d(np.asarray(cfg["u1"], dtype=np.float64))
    u2 = np.atleast_2d(np.asarray(cfg["u2"], dtype=np.float64))
    recipe = make_controlled_relu_drift(
        d, m1=u1.shape[1], m2=u2.shape[1], **cfg["params"]
    )
    eta = recipe.system.eta
    h = horizon / steps
    delta = game_delta(eps, d, recipe.system.kappa0, n_int)
    budget = SynthesisBudget(
        eps=eps,
        delta=delta,
        radius=truncation_radius(h, eta),
        steps=steps,
        paths=paths,
        cplan=1.0,
        horizon=horizon,
    )
    cost = make_quadratic_cost(np.ones(d), budget.radius, 1e-4)
    times = np.array([k * horizon / n_int for k in range(n_int)])

    def g_cost(u1_seq, u2_seq):
        return float(np.sum(u1_seq**2) - np.sum(u2_seq**2))

    grid = StrategyGrid(times=times, u1_actions=u1, u2_actions=u2, g=g_cost)
    s1, s2 = enumerate_strategies(grid)
    w_nets = [
        [controlled_value_net(a, b, recipe, cost, budget, seed, grid)[0] for b in s2]
        for a in s1
    ]
    leaf_size = w_nets[-1][-1].size
    psi = infsup_net(w_nets)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ 0x6A3E)))
    xs = rng.uniform(0.0, 1.0, (int(cfg["n_points"]), d))
    directs = brute_force_game_value(recipe, grid, cost, budget, seed, xs)
    agree = 0.0
    # realize one point per call: a batched realize rounds differently
    for x, direct in zip(xs, directs):
        via_net = float(realize(psi, x)[0])
        agree = max(agree, abs(direct - via_net) / (1.0 + abs(direct)))
    row = {
        "d": d,
        "eps": eps,
        "M_interventions": n_int,
        "n_strategies": len(s1) * len(s2),
        "net_size": psi.size,
        "agreement_err": agree,
    }
    write_csv(os.path.join(out_dir, "game.csv"), list(row), [row])
    ok = agree <= 1e-8
    return ["game.csv"], {"leaf_size": leaf_size, "delta": delta}, ok


# --- scaling study ----------------------------------------------------------


def _fit_poly(xs, ys):
    """Log-log slope and R^2; a flat (zero-variance) series fits perfectly."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    if np.allclose(ly, ly[0]):
        return 0.0, 1.0
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    return float(slope), 1.0 - ss_res / ss_tot


def run_scaling(cfg, out_dir, seed):
    horizon = float(cfg["horizon"])
    d_list = [int(v) for v in cfg["d_list"]]
    eps_list = [float(v) for v in cfg["eps_list"]]
    d_fixed = int(cfg["d_fixed"])
    eps_fixed = float(cfg["eps_fixed"])
    probe = make_system(cfg["system"], 2, **cfg["params"])
    eta, kappa, tau = _plan_constants(probe)
    cplan = cfg["cplan"]
    if cplan is None:
        d_max = max(max(d_list), d_fixed)
        cplan = 2.0 * cplan_floor(
            min(eps_list + [eps_fixed]),
            d_max,
            eta,
            kappa,
            tau,
            horizon,
            beta=probe.system.beta,
        )
    cplan = float(cplan)

    rows = []

    def one(dd, eps, kind):
        recipe = make_system(cfg["system"], dd, **cfg["params"])
        budget = plan_budget(
            eps, dd, eta, kappa, tau, horizon, beta=recipe.system.beta, cplan=cplan
        )
        cost = plan_cost(dd, budget, kappa)
        psi, report = unroll_value_net(
            recipe.mu_net, recipe.sigma_col_nets, cost.net, recipe.system, budget, seed
        )
        rows.append(
            {
                "kind": kind,
                "d": dd,
                "eps": eps,
                "N": budget.steps,
                "M": budget.paths,
                "D": budget.radius,
                "net_size": psi.size,
            }
        )
        return report

    reports = [one(dd, eps_fixed, "dim") for dd in d_list]
    reports += [one(d_fixed, eps, "eps") for eps in eps_list]

    write_csv(
        os.path.join(out_dir, "scaling.csv"),
        ["kind", "d", "eps", "N", "M", "D", "net_size"],
        rows,
    )
    dim_rows = [r for r in rows if r["kind"] == "dim"]
    eps_rows = [r for r in rows if r["kind"] == "eps"]
    slope_d, r2_d = _fit_poly([r["d"] for r in dim_rows], [r["net_size"] for r in dim_rows])
    slope_e, r2_e = _fit_poly(
        [1.0 / r["eps"] for r in eps_rows], [r["net_size"] for r in eps_rows]
    )
    extra = {
        "cplan": cplan,
        "dim_slope": slope_d,
        "dim_r2": r2_d,
        "eps_slope": slope_e,
        "eps_r2": r2_e,
    }
    ok = (
        all(rep["bound_ok"] for rep in reports)
        and math.isfinite(slope_d)
        and r2_d >= 0.95
        and math.isfinite(slope_e)
        and r2_e >= 0.95
    )
    return ["scaling.csv"], extra, ok


_RUNNERS = {
    "calculus-check": run_calculus,
    "convergence": run_convergence,
    "synth": run_synth,
    "game": run_game,
    "scaling": run_scaling,
}


def run_study(cfg, out_dir):
    study = cfg["study"]
    seed = resolve_seed(cfg)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    artifacts, extra, ok = _RUNNERS[study](cfg, out_dir, seed)
    wall_ms = (time.perf_counter() - t0) * 1e3
    write_manifest(
        out_dir, study, cfg, seed, artifacts, extra, wall_ms, "ok" if ok else "failed"
    )
    return artifacts, ok


# --- verify -----------------------------------------------------------------


def _csv_deterministic_lines(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    skip = [i for i, name in enumerate(header) if name == "wall_ms"]
    out = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        out.append(",".join(f for i, f in enumerate(fields) if i not in skip))
    return out


def run_verify(cfg, out_dir):
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        print("verify: no prior manifest at %s" % manifest_path, file=sys.stderr)
        return EXIT_FAIL
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    artifacts = [a for a in manifest["artifacts"] if a.endswith(".csv")]
    for name in artifacts:
        if not os.path.exists(os.path.join(out_dir, name)):
            print("verify: missing artifact %s" % name, file=sys.stderr)
            return EXIT_FAIL
    with tempfile.TemporaryDirectory() as tmp:
        run_study(cfg, tmp)
        status = EXIT_OK
        for name in artifacts:
            old = _csv_deterministic_lines(os.path.join(out_dir, name))
            new = _csv_deterministic_lines(os.path.join(tmp, name))
            if old != new:
                status = EXIT_FAIL
                for i, (a, b) in enumerate(zip(old, new)):
                    if a != b:
                        print(
                            "verify: %s row %d differs:\n  was: %s\n  now: %s"
                            % (name, i, a, b),
                            file=sys.stderr,
                        )
                if len(old) != len(new):
                    print(
                        "verify: %s row count %d -> %d" % (name, len(old), len(new)),
                        file=sys.stderr,
                    )
    if status == EXIT_OK:
        print("verify: all deterministic columns identical")
    return status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stiffnet", description="ReLU network calculus / stiff SDE studies"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ["calculus-check", "convergence", "synth", "game", "scaling", "verify"]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON study configuration")
        p.add_argument("--out", required=True, help="artifact output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="reserved: accepted for compatibility, runs are single-threaded",
        )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("config error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        expected = None if args.command == "verify" else args.command
        cfg = load_config(args.config, expected)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "verify":
        return run_verify(cfg, args.out)
    try:
        _, ok = run_study(cfg, args.out)
    except Exception as exc:  # runtime failure, not a config problem
        print("study failed: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    if not ok:
        print("study assertions failed; see manifest", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
