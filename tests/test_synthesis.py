"""Value-network synthesis: planning, unrolling, oracle equivalence."""

import numpy as np
import pytest

from stiffnet import (
    Layer,
    Network,
    SynthesisBudget,
    diffusion_contract_net,
    l2_error,
    make_galerkin_heat,
    make_ou,
    make_quadratic_cost,
    mc_reference,
    plan_budget,
    realize,
    truncation_radius,
    uniform_cube_measure,
    unroll_value_net,
)
from stiffnet.synthesis import (
    BudgetError,
    calibrate_cplan,
    coefficients_from_nets,
    cplan_floor,
    l2_error_values,
    plan_cost,
    unroll_size_bound,
)


# ----------------------------------------------------------------- planning


def test_truncation_radius_example():
    # eta = 1, h = 0.01: ceil(100^(5/14)) = 6
    assert truncation_radius(0.01, 1.0) == 6


def test_plan_budget_basics():
    b = plan_budget(0.5, 2, eta=0.5, kappa=1.0, tau=2.25, horizon=1.0, cplan=100.0)
    assert b.steps >= 8 and (b.steps & (b.steps - 1)) == 0
    assert b.paths >= 8
    assert 0.0 < b.delta <= 0.49
    assert b.radius == truncation_radius(b.h, 0.5)
    # the three planner inequalities hold at the returned budget
    a1 = 6.0 + max(2.25, 2.0)
    a3 = 2.0 + max(2.25 / 2.0, 2.0)
    p_h = 2.0 * 0.5 / (3.0 * 0.5 + 4.0)
    q_h = (0.5 + 4.0) / (3.0 * 0.5 + 4.0)
    budget_sq = 100.0 * 0.25
    assert 2.0**a1 * b.h**p_h <= budget_sq * (1 + 1e-12)
    assert b.delta**2 * 2.0**4 * b.h ** (-q_h) <= budget_sq * (1 + 1e-12)
    assert 2.0**a3 * b.h ** (-q_h) / b.paths <= budget_sq * (1 + 1e-12)


def test_plan_budget_eps_halving_growth_cap():
    # with eta = 1 the step exponent on eps^2 is (3 eta + 4) / (2 eta) per
    # halving, so N grows by at most 2^ceil((3 eta + 4) / eta)
    kw = dict(d=1, eta=1.0, kappa=1.0, tau=2.5, horizon=1.0, cplan=0.08)
    n1 = plan_budget(1.0, **kw).steps
    n2 = plan_budget(0.5, **kw).steps
    assert n2 <= n1 * 2 ** int(np.ceil((3.0 + 4.0) / 1.0))


def test_plan_budget_honors_step_floor():
    from stiffnet.sde import step_floor

    b = plan_budget(1.0, 1, eta=0.5, kappa=1.0, tau=1.0, horizon=1.0, cplan=1e9)
    assert b.steps >= step_floor(1.0, 0.0, 0.5)


def test_plan_budget_rejects_bad_inputs():
    with pytest.raises(ValueError):
        plan_budget(0.0, 2, eta=0.5, kappa=1.0, tau=1.0, horizon=1.0)
    with pytest.raises(ValueError):
        plan_budget(0.5, 2, eta=0.5, kappa=1.0, tau=1.0, horizon=1.0, cplan=0.0)
    with pytest.raises(BudgetError):
        plan_budget(1e-3, 16, eta=0.5, kappa=2.0, tau=2.25, horizon=1.0, cplan=1e-6)


def test_cplan_floor_keeps_step_floor_binding():
    eta, kappa, tau = 0.5, 2.0, 2.25
    c = cplan_floor(0.25, 16, eta, kappa, tau, 1.0)
    for d in (2, 4, 8, 16):
        b = plan_budget(0.25, d, eta, kappa, tau, 1.0, cplan=c)
        assert b.steps == plan_budget(0.25, 2, eta, kappa, tau, 1.0, cplan=c).steps


def test_uniform_cube_measure_moment_certificate():
    eta = 0.5
    m = uniform_cube_measure(eta)
    assert m.tau == pytest.approx(2.0 + eta / 2.0)
    rng = np.random.default_rng(0)
    for d in (2, 5):
        xs = m.sampler(rng, 20000, d)
        assert xs.shape == (20000, d)
        assert np.all((xs >= 0.0) & (xs <= 1.0))
        moment = np.mean(np.sum(xs * xs, axis=1) ** ((4.0 + eta) / 2.0))
        assert moment <= m.tau * d**m.tau


# ------------------------------------------------------- diffusion contract


def test_diffusion_contract_identity_sigma():
    d = 2
    cols = []
    for i in range(d):
        w1 = np.zeros((1, d + 1))
        col = np.eye(d)[:, i]
        cols.append(Network([Layer(w1, np.zeros(1)), Layer(np.zeros((d, 1)), col)]))
    net = diffusion_contract_net(cols, np.array([1.0, 2.0]))
    out = realize(net, np.array([0.3, 1.0, -1.0]))
    assert np.allclose(out, np.array([1.0, 2.0]))
    zero = diffusion_contract_net(cols, np.zeros(d))
    assert np.allclose(realize(zero, np.array([0.3, 1.0, -1.0])), 0.0)
    assert net.size <= d * d * cols[0].size


def test_diffusion_contract_matches_matvec():
    rec = make_galerkin_heat(3, noise_scale=0.4, sigma_kind="diag")
    rng = np.random.default_rng(1)
    b = rng.normal(size=3)
    net = diffusion_contract_net(rec.sigma_col_nets, b)
    for _ in range(100):
        t, x = rng.uniform(), rng.normal(size=3)
        want = rec.system.sigma(t, x) @ b
        got = realize(net, np.concatenate([[t], x]))
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


# ------------------------------------------------------------- unrolling


def _budget(steps, paths, eps=0.5, horizon=1.0):
    return SynthesisBudget(
        eps=eps,
        delta=0.1,
        radius=4,
        steps=steps,
        paths=paths,
        cplan=1.0,
        horizon=horizon,
    )


def test_unroll_zero_dynamics_is_cost_readout():
    d = 2
    rec = make_ou(d, decay=0.0, noise=0.0)
    budget = _budget(4, 4)
    # affine "cost" picking out the first coordinate
    cost_net = Network([Layer(np.array([[1.0, 0.0]]), np.zeros(1))])
    psi, report = unroll_value_net(
        rec.mu_net, rec.sigma_col_nets, cost_net, rec.system, budget, seed=3
    )
    xs = np.random.default_rng(2).normal(size=(50, d))
    got = realize(psi, xs)[..., 0]
    assert np.max(np.abs(got - xs[:, 0])) <= 1e-10


def test_unroll_single_step_hand_sum():
    # A = 0, mu = 0, constant sigma, one step: psi(x) = mean f(x + sigma b_m)
    d = 2
    rec = make_ou(d, decay=0.0, noise=0.5)
    budget = _budget(1, 8)
    cost = make_quadratic_cost(np.ones(d), budget.radius, 1e-6)
    seed = 5
    psi, _ = unroll_value_net(
        rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, seed
    )
    from stiffnet.sde import PathBundle

    bundle = PathBundle(seed, 8, 1, d, budget.h)
    db = bundle.increments(0)
    xs = np.random.default_rng(4).uniform(-1, 1, size=(20, d))
    for x in xs:
        want = float(np.mean(cost.f_tilde(x + 0.5 * db)))
        got = realize(psi, x)[0]
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_unroll_matches_mc_reference():
    for rec, d in [
        (make_ou(2, decay=0.5, noise=0.3), 2),
        (make_galerkin_heat(2, diffusivity=0.5, drift_scale=0.4, noise_scale=0.2), 2),
        (make_ou(3, decay=0.5, noise=0.5, sigma_kind="diag"), 3),
    ]:
        budget = _budget(4, 8)
        cost = make_quadratic_cost(np.ones(d), budget.radius, 1e-4)
        seed = 11
        psi, report = unroll_value_net(
            rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, seed
        )
        coeffs = coefficients_from_nets(rec.mu_net, rec.sigma_col_nets)
        rng = np.random.default_rng(6)
        for x in rng.uniform(0, 1, size=(25, d)):
            want = mc_reference(rec.system, coeffs, cost, budget, seed, x)
            got = realize(psi, x)[0]
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_unroll_draws_each_block_once(monkeypatch):
    from stiffnet.sde import PathBundle

    draws = []
    increments = PathBundle.increments

    def counted(self, n):
        draws.append(n)
        return increments(self, n)

    monkeypatch.setattr(PathBundle, "increments", counted)
    rec = make_ou(2, decay=0.5, noise=0.3)
    budget = _budget(4, 8)
    cost = make_quadratic_cost(np.ones(2), budget.radius, 1e-3)
    unroll_value_net(rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, 7)
    assert draws == [0, 1, 2, 3]


def test_unroll_report_and_size_bound():
    d = 2
    rec = make_ou(d, decay=0.5, noise=0.3)
    budget = _budget(4, 4)
    cost = make_quadratic_cost(np.ones(d), budget.radius, 1e-3)
    psi, report = unroll_value_net(
        rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, seed=7
    )
    assert report["size"] == psi.size
    assert report["bound_ok"]
    assert report["size"] <= report["size_bound"]
    assert report["width_condition_ok"]
    assert report["size_bound"] == unroll_size_bound(
        d, budget.steps, budget.paths, cost.net.size, [c.size for c in rec.sigma_col_nets]
    )


def test_unroll_deterministic_weights():
    d = 2
    rec = make_ou(d, decay=0.5, noise=0.3)
    budget = _budget(2, 4)
    cost = make_quadratic_cost(np.ones(d), budget.radius, 1e-3)
    nets = [
        unroll_value_net(
            rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, seed=9
        )[0]
        for _ in range(2)
    ]
    for a, b in zip(nets[0].layers, nets[1].layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)


def test_mc_reference_constant_cost():
    d = 2
    rec = make_ou(d, decay=0.0, noise=0.0)
    budget = _budget(2, 4)
    const_net = Network([Layer(np.zeros((1, d)), np.array([3.5]))])

    class ConstCost:
        net = const_net

        def f_tilde(self, x):
            return realize(const_net, np.asarray(x, dtype=np.float64))[..., 0]

    val = mc_reference(
        rec.system,
        coefficients_from_nets(rec.mu_net, rec.sigma_col_nets),
        ConstCost(),
        budget,
        seed=1,
        x=np.ones(d),
    )
    assert val == pytest.approx(3.5, abs=1e-14)


def test_mc_reference_batch_equals_single_points():
    for rec in (
        make_ou(2, decay=0.5, noise=0.3),
        make_galerkin_heat(3, diffusivity=0.5, drift_scale=0.4, noise_scale=0.2),
        make_ou(5, decay=0.5, noise=0.5, sigma_kind="diag"),
    ):
        d = rec.d
        cost = make_quadratic_cost(np.ones(d), 4, 1e-4)
        coeffs = coefficients_from_nets(rec.mu_net, rec.sigma_col_nets)
        xs = np.random.default_rng(7).uniform(0, 1, size=(9, d))
        for paths in (1, 8):
            budget = _budget(4, paths)
            batch = mc_reference(rec.system, coeffs, cost, budget, 11, xs)
            singles = [mc_reference(rec.system, coeffs, cost, budget, 11, x) for x in xs]
            assert batch.shape == (9,)
            assert isinstance(singles[0], float)
            assert np.array_equal(batch, singles)


def test_mc_reference_variance_shrinks_with_paths():
    d = 2
    rec = make_ou(d, decay=0.5, noise=0.4)
    cost = make_quadratic_cost(np.ones(d), 4, 1e-4)
    coeffs = coefficients_from_nets(rec.mu_net, rec.sigma_col_nets)
    x = np.ones(d)
    exact = rec.exact_value(cost.beta_weights, x, 1.0)
    errs = []
    for paths in (16, 1024):
        vals = [
            mc_reference(rec.system, coeffs, cost, _budget(16, paths), seed, x)
            for seed in range(30)
        ]
        errs.append(np.std(vals))
    assert errs[1] < errs[0] / 3.0


# ----------------------------------------------------------------- L2 error


def test_l2_error_zero_for_matching_reference():
    net = Network([Layer(np.array([[1.0, 1.0]]), np.zeros(1))])
    m = uniform_cube_measure(0.5)
    est, se = l2_error(net, lambda x: x[..., 0] + x[..., 1], m, 2, 500, seed=3)
    assert est <= 1e-14


def test_l2_error_calls_reference_once_on_the_sample():
    net = Network([Layer(np.array([[2.0, -1.0]]), np.zeros(1))])
    calls = []

    def reference(xs):
        calls.append(xs.shape)
        return xs[..., 0]

    l2_error(net, reference, uniform_cube_measure(0.5), 2, 64, seed=3)
    assert calls == [(64, 2)]


def test_l2_error_constant_offset():
    net = Network([Layer(np.zeros((1, 2)), np.array([2.0]))])
    m = uniform_cube_measure(0.5)
    est, se = l2_error(net, lambda x: 0.0, m, 2, 2000, seed=4)
    assert est == pytest.approx(2.0, abs=1e-12)


def test_l2_error_values_shapes():
    est, se = l2_error_values(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert est == 0.0 and se == 0.0


# ------------------------------------------------------------- calibration


def test_calibrated_budget_reaches_target_on_d2():
    eps, eta, kappa, tau, horizon, seed = 0.25, 0.5, 2.0, 2.25, 1.0, 21

    def recipe_factory(d):
        return make_ou(d, decay=0.5, noise=0.1, eta=eta)

    def cost_factory(d, budget):
        return plan_cost(d, budget, kappa)

    cplan = calibrate_cplan(
        eps, recipe_factory, cost_factory, eta, kappa, tau, horizon, seed
    )
    rec = recipe_factory(2)
    budget = plan_budget(
        eps, 2, eta, kappa, tau, horizon, beta=rec.system.beta, cplan=cplan
    )
    cost = cost_factory(2, budget)
    psi, _ = unroll_value_net(
        rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, seed
    )
    est, se = l2_error(
        psi,
        lambda x: rec.exact_value(cost.beta_weights, x, horizon),
        uniform_cube_measure(eta),
        2,
        256,
        seed=seed ^ 0xCA11,
    )
    assert est <= eps


def test_calibrate_cplan_makes_one_reference_call_per_candidate(monkeypatch):
    import stiffnet.synthesis as synthesis

    eta, kappa, tau = 0.5, 2.0, 2.25
    rec = make_ou(2, decay=0.5, noise=0.1, eta=eta)
    exact_value = rec.exact_value
    unroll = synthesis.unroll_value_net
    calls, unrolls = [], []

    def counted_exact(betaw, xs, horizon):
        calls.append(np.shape(xs))
        return exact_value(betaw, xs, horizon)

    def counted_unroll(*args, **kwargs):
        unrolls.append(1)
        return unroll(*args, **kwargs)

    rec.exact_value = counted_exact
    monkeypatch.setattr(synthesis, "unroll_value_net", counted_unroll)
    calibrate_cplan(
        0.25, lambda d: rec, lambda d, b: plan_cost(d, b, kappa), eta, kappa, tau, 1.0, 21
    )
    assert unrolls
    assert calls == [(256, 2)] * len(unrolls)
