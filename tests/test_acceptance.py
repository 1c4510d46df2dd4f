"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import os
import time

import numpy as np
import pytest

from stiffnet import (
    EulerConfig,
    Layer,
    Network,
    PathBundle,
    StrategyGrid,
    SynthesisBudget,
    add_compose,
    brute_force_game_value,
    combine,
    compose,
    controlled_value_net,
    coupled_gap_check,
    enumerate_strategies,
    exact_coefficients,
    extend_depth,
    fold_affine,
    identity_net,
    infsup_net,
    l2_error,
    make_controlled_relu_drift,
    make_galerkin_heat,
    make_ou,
    make_quadratic_cost,
    max_tree,
    mc_reference,
    min_tree,
    moment_check,
    perturb_coefficients,
    plan_budget,
    rate_study,
    realize,
    square_unit_net,
    unroll_value_net,
    weighted_square_net,
    widen_layer,
)
from stiffnet.calculus import (
    add_compose_bound,
    max_tree_bound,
    weighted_square_bound,
)
from stiffnet.sde import ImplicitFactor
from stiffnet.synthesis import calibrate_cplan, coefficients_from_nets, plan_cost

SEED = 1234


def _report(num, name, ok, detail, t0, limit):
    elapsed = time.time() - t0
    line = "[criterion %02d] %s: %s (%s; %.1fs / limit %ds)" % (
        num,
        "PASS" if ok and elapsed < limit else "FAIL",
        name,
        detail,
        elapsed,
        limit,
    )
    print(line)
    assert ok, line
    assert elapsed < limit, line


def _random_net(rng, dims):
    layers = []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        layers.append(Layer(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out)))
    return Network(layers)


def _max_rel(got, want):
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


# --------------------------------------------------------------- criterion 1


def test_criterion_01_calculus_exactness():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    n_inst, n_pts = 50, 10_000
    worst = 0.0
    for _ in range(n_inst):
        d = int(rng.integers(1, 4))
        w = int(rng.integers(1, 5))
        xs = rng.normal(size=(n_pts, d))

        ident = identity_net(d, int(rng.integers(1, 4)))
        worst = max(worst, _max_rel(realize(ident, xs), xs))

        ext = extend_depth(ident, ident.depth + int(rng.integers(1, 3)))
        worst = max(worst, _max_rel(realize(ext, xs), xs))

        base = _random_net(rng, (d, w, 1))
        wide = widen_layer(base, 1)
        worst = max(worst, _max_rel(realize(wide, xs), realize(base, xs)))

        mat = rng.normal(size=(d, d))
        vec = rng.normal(size=d)
        folded = fold_affine(base, "pre", mat, vec)
        want = realize(base, xs @ mat.T + vec)
        worst = max(worst, _max_rel(realize(folded, xs), want))

        inner = _random_net(rng, (d, w, 2))
        outer = _random_net(rng, (2, w, 1))
        comp = compose(outer, inner)
        worst = max(worst, _max_rel(realize(comp, xs), realize(outer, realize(inner, xs))))

        coeffs = rng.normal(size=3)
        nets = [_random_net(rng, (d, w, 1)) for _ in range(3)]
        comb = combine(coeffs, nets)
        want = sum(c * realize(n, xs) for c, n in zip(coeffs, nets))
        worst = max(worst, _max_rel(realize(comb, xs), want))

        scal = [_random_net(rng, (d, w, 1)) for _ in range(4)]
        stack = np.stack([realize(n, xs)[..., 0] for n in scal])
        mx, mn = max_tree(scal), min_tree(scal)
        worst = max(worst, _max_rel(realize(mx, xs)[..., 0], np.max(stack, axis=0)))
        worst = max(worst, _max_rel(realize(mn, xs)[..., 0], np.min(stack, axis=0)))

        ab_base = _random_net(rng, (d, w, d))
        branches = [_random_net(rng, (d + 1, w, d)) for _ in range(2)]
        u = rng.normal(size=1)
        ac = add_compose(ab_base, branches, u)
        mid = realize(ab_base, xs)
        aug = np.concatenate([mid, np.broadcast_to(u, xs.shape[:-1] + (1,))], axis=-1)
        want = mid + sum(realize(b, aug) for b in branches)
        worst = max(worst, _max_rel(realize(ac, xs), want))

    ok = worst <= 1e-12
    _report(1, "calculus exactness", ok, "max rel err %.3e" % worst, t0, 60)


# --------------------------------------------------------------- criterion 2


def test_criterion_02_complexity_bounds():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 1)
    violations = 0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        w = int(rng.integers(1, 6))
        inner = _random_net(rng, (d, w, 2))
        outer = _random_net(rng, (2, w, 1))
        if compose(outer, inner).size > 2 * (inner.size + outer.size):
            violations += 1
        m = int(rng.integers(1, 5))
        nets = [_random_net(rng, (d, w, 1)) for _ in range(m)]
        if combine(rng.normal(size=m), nets).size > m * m * nets[0].size:
            violations += 1
        for n_levels in (1, 2):
            leaves = [_random_net(rng, (d, w, 1)) for _ in range(2**n_levels)]
            if max_tree(leaves).size > max_tree_bound(leaves[0].size, n_levels):
                violations += 1
        base = identity_net(d, 1)
        branches = [_random_net(rng, (d + 1, w, d)) for _ in range(2)]
        if add_compose(base, branches, rng.normal(size=1)).size > add_compose_bound(
            base, branches
        ):
            violations += 1
        eps = float(10.0 ** rng.uniform(-4, -1))
        _, sq = weighted_square_net(rng.uniform(0.5, 2.0, size=d), 2.0, eps)
        if sq.size > weighted_square_bound(d, eps):
            violations += 1
    ok = violations == 0
    _report(2, "complexity bounds", ok, "%d violations" % violations, t0, 60)


# --------------------------------------------------------------- criterion 3


def test_criterion_03_square_net_accuracy():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 2)
    worst_ratio = 0.0
    exact_ok = True
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        net = square_unit_net(eps)
        xs = np.linspace(0.0, 1.0, 100_001)
        err = np.max(np.abs(realize(net, xs[:, None])[..., 0] - xs**2))
        worst_ratio = max(worst_ratio, err / eps)
        outside = np.concatenate([rng.uniform(-5, 0, 50), rng.uniform(1, 5, 50)])
        got = realize(net, outside[:, None])[..., 0]
        if np.max(np.abs(got - outside)) > 1e-12:
            exact_ok = False
        if realize(net, np.zeros(1))[0] != 0.0:
            exact_ok = False
    ok = worst_ratio <= 1.0 and exact_ok
    _report(
        3,
        "square-net accuracy",
        ok,
        "worst err/eps %.3f, identity/zero exact %s" % (worst_ratio, exact_ok),
        t0,
        10,
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_04_implicit_stability():
    t0 = time.time()
    # stiffness a pi^2 d^2 ~ 3.2e4 at d = 32
    rec = make_galerkin_heat(32, diffusivity=3.2e4 / (np.pi**2 * 32**2))
    A = rec.system.A
    assert np.linalg.norm(A, 2) == pytest.approx(3.2e4, rel=1e-12)
    rng = np.random.default_rng(SEED + 3)
    ok = True
    for h in (1e-4, 1e-2, 0.125, 1.0):
        f = ImplicitFactor(A, h)
        for _ in range(250):
            r = rng.normal(size=32)
            z = f.solve(r)
            rn = np.linalg.norm(r)
            if np.linalg.norm(z) > rn or np.linalg.norm(h * (A @ z)) > rn:
                ok = False
    _report(4, "implicit-scheme stability", ok, "4 h-regimes x 250 probes", t0, 60)


# --------------------------------------------------------------- criterion 5


def test_criterion_05_strong_rate():
    t0 = time.time()
    n_list = [8, 16, 32, 64, 128]
    cases = {
        "galerkin_heat d=8": (
            make_galerkin_heat(
                8, diffusivity=0.05, drift_scale=0.5, noise_scale=0.8, sigma_kind="diag"
            ),
            1.0 / np.arange(1, 9, dtype=np.float64) ** 2,
        ),
        "ou d=8": (make_ou(8, decay=0.5, noise=1.0, sigma_kind="diag"), np.ones(8)),
    }
    slopes = {}
    for name, (rec, x0) in cases.items():
        cost = make_quadratic_cost(np.ones(rec.d), 3.0, 1e-3)
        res = rate_study(
            rec.system, exact_coefficients(rec.system), cost, x0, n_list, 1.0, SEED, 4096
        )
        slopes[name] = res["strong_slope"]
    ok = all(0.4 <= s <= 0.6 for s in slopes.values())
    detail = ", ".join("%s slope %.3f" % kv for kv in slopes.items())
    _report(5, "strong rate in [0.4, 0.6]", ok, detail, t0, 300)


# --------------------------------------------------------------- criterion 6


def test_criterion_06_gap_bound():
    t0 = time.time()
    rec = make_ou(3, decay=0.5, noise=0.3)
    cfg = EulerConfig(1.0, 32)
    bundle = PathBundle(SEED + 4, 4096, 32, 3, cfg.h)
    details = []
    ok = True
    for gamma in (0.0, 0.01, 0.02):
        coeffs = perturb_coefficients(rec.system, gamma)
        rep = coupled_gap_check(rec.system, coeffs, np.ones(3), cfg, bundle)
        if gamma == 0.0:
            ok = ok and rep["gap"] == 0.0
        else:
            ok = ok and rep["gap"] <= rep["bound"] + 3.0 * rep["stderr"]
        details.append("g=%.2f gap %.2e <= %.2e" % (gamma, rep["gap"], rep["bound"]))
    _report(6, "ES-PES gap bound", ok, "; ".join(details), t0, 120)


# --------------------------------------------------------------- criterion 7


def test_criterion_07_moment_bounds():
    t0 = time.time()
    ok = True
    details = []
    for name, rec in [
        ("ou", make_ou(4, decay=0.5, noise=0.4, eta=0.5)),
        ("galerkin", make_galerkin_heat(4, diffusivity=0.5, noise_scale=0.4, eta=0.5)),
    ]:
        cfg = EulerConfig(1.0, 32)
        bundle = PathBundle(SEED + 5, 4096, 32, 4, cfg.h)
        for p in (2.0, 2.4):
            rep = moment_check(rec.system, np.ones(4), cfg, bundle, p=p)
            ok = ok and rep["moment_ok"] and rep["discrete_ok"] and rep["one_step_stable"]
            details.append(
                "%s p=%.1f est %.3f <= %.3f" % (name, p, rep["moment_est"], rep["moment_bound"])
            )
    _report(7, "moment bounds", ok, "; ".join(details), t0, 120)


# --------------------------------------------------------------- criterion 8


def test_criterion_08_synthesis_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for d in (2, 8):
        rec = make_ou(d, decay=0.5, noise=0.3)
        for steps in (4, 16):
            for paths in (8, 64):
                budget = SynthesisBudget(
                    eps=0.5, delta=0.1, radius=4, steps=steps, paths=paths,
                    cplan=1.0, horizon=1.0,
                )
                cost = make_quadratic_cost(np.ones(d), budget.radius, 1e-4)
                psi, _ = unroll_value_net(
                    rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, SEED
                )
                coeffs = coefficients_from_nets(rec.mu_net, rec.sigma_col_nets)
                xs = rng.uniform(0.0, 1.0, size=(100, d))
                got = realize(psi, xs)[..., 0]
                want = np.array(
                    [mc_reference(rec.system, coeffs, cost, budget, SEED, x) for x in xs]
                )
                worst = max(worst, _max_rel(got, want))
    ok = worst <= 1e-8
    _report(8, "synthesis oracle equivalence", ok, "max rel err %.3e" % worst, t0, 180)


# --------------------------------------------------------------- criterion 9


ETA, KAPPA, TAU, HORIZON = 0.5, 2.0, 2.25, 1.0


def _ou_recipe(d):
    return make_ou(d, decay=0.5, noise=0.1, eta=ETA)


import functools


@functools.lru_cache(maxsize=1)
def _calibrated_cplan():
    return calibrate_cplan(0.25, _ou_recipe(2), ETA, KAPPA, TAU, HORIZON, SEED)


def test_criterion_09_end_to_end_accuracy():
    t0 = time.time()
    eps, d = 0.25, 4
    cplan = _calibrated_cplan()
    rec = _ou_recipe(d)
    budget = plan_budget(
        eps, d, ETA, KAPPA, TAU, HORIZON, beta=rec.system.beta, cplan=cplan
    )
    cost = plan_cost(d, budget, KAPPA)
    psi, _ = unroll_value_net(
        rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, SEED
    )
    est, se = l2_error(
        psi,
        lambda x: rec.exact_value(cost.beta_weights, x, HORIZON),
        512,
        seed=SEED + 7,
    )
    ok = est <= eps
    _report(
        9,
        "end-to-end L2 accuracy",
        ok,
        "L2 err %.4f <= %.2f (N=%d, M=%d, D=%d)" % (est, eps, budget.steps, budget.paths, budget.radius),
        t0,
        300,
    )


# -------------------------------------------------------------- criterion 10


def _fit_r2(logx, logy):
    logx, logy = np.asarray(logx), np.asarray(logy)
    if np.ptp(logy) <= 1e-9:
        return 0.0, 1.0  # flat series: slope 0, perfectly stable
    slope, intercept = np.polyfit(logx, logy, 1)
    pred = slope * logx + intercept
    ss_res = np.sum((logy - pred) ** 2)
    ss_tot = np.sum((logy - np.mean(logy)) ** 2)
    return float(slope), float(1.0 - ss_res / ss_tot)


def test_criterion_10_polynomial_scaling():
    t0 = time.time()
    cplan = _calibrated_cplan()

    def size_for(d, eps):
        rec = _ou_recipe(d)
        budget = plan_budget(
            eps, d, ETA, KAPPA, TAU, HORIZON, beta=rec.system.beta, cplan=cplan
        )
        cost = plan_cost(d, budget, KAPPA)
        psi, report = unroll_value_net(
            rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, SEED
        )
        return psi.size, report

    d_list = [2, 4, 8, 16]
    sizes_d, bounds_d = [], []
    for d in d_list:
        size, report = size_for(d, 0.25)
        sizes_d.append(size)
        bounds_d.append(report["size_bound"])
    slope_d, r2_d = _fit_r2(np.log(d_list), np.log(sizes_d))
    bound_slope, _ = _fit_r2(np.log(d_list), np.log(bounds_d))

    eps_list = [0.4, 0.2, 0.1]
    sizes_e = [size_for(4, e)[0] for e in eps_list]
    slope_e, r2_e = _fit_r2(np.log(1.0 / np.array(eps_list)), np.log(sizes_e))

    ok = (
        np.isfinite(slope_d)
        and r2_d >= 0.95
        and slope_d <= bound_slope + 1e-9
        and np.isfinite(slope_e)
        and r2_e >= 0.95
    )
    _report(
        10,
        "polynomial scaling",
        ok,
        "d-slope %.2f (R2 %.3f, bound slope %.2f); eps-slope %.2f (R2 %.3f)"
        % (slope_d, r2_d, bound_slope, slope_e, r2_e),
        t0,
        600,
    )


# -------------------------------------------------------------- criterion 11


def test_criterion_11_game_equivalence():
    t0 = time.time()
    d = 2
    rec = make_controlled_relu_drift(d, l_mu=0.3, noise_scale=0.1)
    grid = StrategyGrid(
        times=np.array([0.0, 0.5]),
        u1_actions=np.array([[0.0], [1.0]]),
        u2_actions=np.array([[0.0], [0.5]]),
        g=lambda u1, u2: float(np.sum(u1) - np.sum(u2)),
    )
    budget = SynthesisBudget(
        eps=0.5, delta=0.1, radius=4, steps=4, paths=8, cplan=1.0, horizon=1.0
    )
    cost = plan_cost(d, budget, kappa=1.0)
    s1, s2 = enumerate_strategies(grid)
    assert len(s1) * len(s2) == 16
    w_nets = [
        [
            controlled_value_net(a, b, rec, cost, budget, SEED, grid)[0]
            for b in s2
        ]
        for a in s1
    ]
    net = infsup_net(w_nets)
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    for x in rng.uniform(0.0, 1.0, size=(100, d)):
        want = brute_force_game_value(rec, grid, cost, budget, SEED, x)
        worst = max(worst, abs(realize(net, x)[0] - want) / (1.0 + abs(want)))

    # constant-payoff matrix game [[1, 4], [3, 2]] resolves to 3
    payoff = np.array([[1.0, 4.0], [3.0, 2.0]])
    const_nets = [
        [Network([Layer(np.zeros((1, d)), np.array([payoff[i, j]]))] ) for j in range(2)]
        for i in range(2)
    ]
    matrix_val = realize(infsup_net(const_nets), np.zeros(d))[0]
    ok = worst <= 1e-8 and matrix_val == pytest.approx(3.0, abs=1e-12)
    _report(
        11,
        "game equivalence",
        ok,
        "max rel err %.3e; matrix game -> %.1f" % (worst, matrix_val),
        t0,
        120,
    )


# -------------------------------------------------------------- criterion 12


def test_criterion_12_verify_reproducibility(tmp_path):
    t0 = time.time()
    from stiffnet.cli import EXIT_OK, main

    configs = {
        "calculus-check": {"study": "calculus-check", "instances": 2, "points": 200, "seed": SEED},
        "convergence": {
            "study": "convergence", "system": "ou", "d": 2,
            "params": {"decay": 0.5, "noise": 1.0, "sigma_kind": "diag"},
            "paths": 256, "n_list": [8, 16, 32, 64], "seed": SEED,
        },
        "synth": {
            "study": "synth", "system": "ou", "d": 2, "eps": 0.5,
            "params": {"decay": 0.5, "noise": 0.1}, "n_samples": 64, "seed": SEED,
        },
        "game": {
            "study": "game", "d": 2, "eps": 0.5, "steps": 4, "paths": 8,
            "n_interventions": 1, "n_points": 5, "seed": SEED,
        },
        "scaling": {
            "study": "scaling", "d_list": [2, 4], "eps_list": [0.4, 0.2],
            "params": {"decay": 0.5, "noise": 0.1}, "seed": SEED,
        },
    }
    ok = True
    details = []
    for study, cfg in configs.items():
        cfg_path = os.path.join(tmp_path, study + ".json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp_path, study)
        rc_run = main([study, "--config", cfg_path, "--out", out])
        rc1 = main(["verify", "--config", cfg_path, "--out", out, "--threads", "1"])
        rc4 = main(["verify", "--config", cfg_path, "--out", out, "--threads", "4"])
        good = rc_run == EXIT_OK and rc1 == EXIT_OK and rc4 == EXIT_OK
        ok = ok and good
        details.append("%s %s" % (study, "ok" if good else "FAIL"))
    _report(12, "verify reproducibility", ok, ", ".join(details), t0, 600)
