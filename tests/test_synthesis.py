"""Value-network synthesis: planning, unrolling, oracle equivalence."""

import numpy as np
import pytest

from stiffnet import (
    Layer,
    Network,
    SynthesisBudget,
    add_compose,
    combine,
    compose,
    fold_affine,
    identity_net,
    l2_error,
    make_controlled_relu_drift,
    make_galerkin_heat,
    make_ou,
    make_quadratic_cost,
    make_relu_drift_system,
    mc_reference,
    network_to_text,
    plan_budget,
    realize,
    truncation_radius,
    unroll_value_net,
    unstack,
)
from stiffnet.synthesis import (
    BudgetError,
    _as_branch,
    calibrate_cplan,
    coefficients_from_nets,
    cplan_floor,
    cube_tau,
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


def test_plan_budget_slack_first_inequality_does_not_overflow():
    # galerkin_heat's kappa = pi^2 puts h_cap = (budget / d^a1)^5.5 beyond
    # any float; inequality 1 then cannot bind and N comes from the floors
    kw = dict(eta=0.5, kappa=np.pi**2, tau=2.25, horizon=1.0)
    huge = plan_budget(0.5, 3, cplan=1e100, **kw)
    slack = plan_budget(0.5, 3, cplan=1e60, **kw)
    assert (huge.steps, huge.radius) == (slack.steps, slack.radius)


def test_cplan_floor_keeps_step_floor_binding():
    eta, kappa, tau = 0.5, 2.0, 2.25
    c = cplan_floor(0.25, 16, eta, kappa, tau, 1.0)
    for d in (2, 4, 8, 16):
        b = plan_budget(0.25, d, eta, kappa, tau, 1.0, cplan=c)
        assert b.steps == plan_budget(0.25, 2, eta, kappa, tau, 1.0, cplan=c).steps


def test_uniform_cube_measure_moment_certificate():
    # the certificate holds for the sample l2_error draws
    eta = 0.5
    tau = cube_tau(eta)
    assert tau == pytest.approx(2.0 + eta / 2.0)
    for d in (2, 5):
        samples = []
        net = Network([Layer(np.zeros((1, d)), np.zeros(1))])
        l2_error(net, lambda xs: samples.append(xs) or np.zeros(len(xs)), 20000, seed=0)
        xs = samples[0]
        assert xs.shape == (20000, d)
        assert np.all((xs >= 0.0) & (xs <= 1.0))
        moment = np.mean(np.sum(xs * xs, axis=1) ** ((4.0 + eta) / 2.0))
        assert moment <= tau * d**tau


# ------------------------------------------------------- diffusion contract


def _noise_step(cols, t, b):
    """x -> x + sum_j b_j col_j(t, x): the unroll step's diffusion part."""
    d = len(cols)
    return add_compose(identity_net(d, 1), [_as_branch(c, d) for c in cols], [t], b)


def test_diffusion_contract_identity_sigma():
    d = 2
    cols = []
    for i in range(d):
        w1 = np.zeros((1, d + 1))
        col = np.eye(d)[:, i]
        cols.append(Network([Layer(w1, np.zeros(1)), Layer(np.zeros((d, 1)), col)]))
    noise = coefficients_from_nets(cols[0], cols).noise
    t, x = 0.3, np.array([1.0, -1.0])
    sizes = set()
    for b in (np.array([1.0, 2.0]), np.zeros(d)):
        net = _noise_step(cols, t, b)
        out = realize(net, x)
        assert np.array_equal(out, x + noise(t, x, b))
        assert np.array_equal(out, x + b)
        sizes.add(net.size)
    assert len(sizes) == 1  # the noise block moves values, not the architecture


def test_diffusion_contract_matches_matvec():
    rec = make_galerkin_heat(3, noise_scale=0.4, sigma_kind="diag")
    rng = np.random.default_rng(1)
    for _ in range(100):
        t, x, b = rng.uniform(), rng.normal(size=3), rng.normal(size=3)
        want = x + rec.system.noise(t, x, b)
        got = realize(_noise_step(rec.sigma_col_nets, t, b), x)
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


def test_unroll_is_one_weighted_add_compose_per_step(monkeypatch):
    from stiffnet import synthesis

    calls = {"add_compose": 0, "combine": 0}

    def counted(name):
        fn = getattr(synthesis, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(synthesis, name, counted(name))
    rec = make_ou(2, decay=0.5, noise=0.3, sigma_kind="diag")
    budget = _budget(4, 3)
    cost = make_quadratic_cost(np.ones(2), budget.radius, 1e-3)
    unroll_value_net(rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, 7)
    # one weighted step per step for all paths; one combine averages the paths
    assert calls == {"add_compose": 4, "combine": 1}


def _per_path_unroll(mu_net, sigma_col_nets, cost_net, sys, budget, seed, actions=None):
    """Reference: the unroll one path and one step at a time on single networks."""
    from stiffnet.sde import ImplicitFactor, PathBundle

    d, h = sys.d, budget.h
    bundle = PathBundle(seed, budget.paths, budget.steps, d, h)
    inv = ImplicitFactor(sys.A, h).inverse()
    branches = [_as_branch(net, d) for net in [mu_net] + list(sigma_col_nets)]
    blocks = [bundle.increments(n) for n in range(budget.steps)]
    path_nets = []
    for m in range(budget.paths):
        psi = fold_affine(identity_net(d, 1), "post", inv)
        for n in range(budget.steps):
            u = [n * h] + ([] if actions is None else list(actions[n]))
            psi = add_compose(psi, branches, u, [h] + list(blocks[n][m]))
            psi = fold_affine(psi, "post", inv)
        path_nets.append(compose(cost_net, psi))
    return combine([1.0 / budget.paths] * budget.paths, path_nets)


@pytest.mark.parametrize(
    "recipe",
    [
        make_ou(2, decay=0.5, noise=0.3),
        make_ou(3, decay=0.5, noise=0.5, sigma_kind="diag"),
        make_galerkin_heat(3, diffusivity=0.5, drift_scale=0.4, noise_scale=0.2),
        make_relu_drift_system(2, l_mu=0.5, noise_scale=0.1),
    ],
    ids=["ou-const", "ou-diag", "galerkin-heat", "relu-drift"],
)
def test_stacked_unroll_is_the_per_path_unroll_byte_for_byte(recipe):
    d = recipe.system.d
    budget = _budget(4, 5)
    cost = make_quadratic_cost(np.ones(d), budget.radius, 1e-3)
    args = (recipe.mu_net, recipe.sigma_col_nets, cost.net, recipe.system, budget, 3)
    psi, _ = unroll_value_net(*args)
    assert network_to_text(psi) == network_to_text(_per_path_unroll(*args))


def test_stacked_unroll_of_action_plans_is_the_per_plan_unroll_byte_for_byte():
    rec = make_controlled_relu_drift(2, m1=1, m2=2)
    budget = _budget(4, 5)
    cost = make_quadratic_cost(np.ones(2), budget.radius, 1e-3)
    args = (rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, 3)
    # three plans of (u1, u2) per step, one with all actions zero
    plans = np.random.default_rng(2).choice([-0.5, 0.0, 0.25, 1.0], size=(3, 4, 3))
    plans[1] = 0.0
    stack, _ = unroll_value_net(*args, actions=plans)
    assert stack.members == 3
    nets = unstack(stack)
    # one plan must still come as a (1, N, m) stack, with one row per step
    for bad in (plans[0], plans[:, :3]):
        with pytest.raises(ValueError, match="action plans"):
            unroll_value_net(*args, actions=bad)
    for net, plan in zip(nets, plans):
        assert network_to_text(net) == network_to_text(_per_path_unroll(*args, plan))


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


def test_unroll_memory_is_linear_in_paths():
    # d=4, N=8, M=1024: the paper's size metric counts 2.5e9 parameters, so
    # dense layers would hold 20 GB; the stored nonzeros grow linearly in M
    d = 4
    rec = make_ou(d, decay=0.5, noise=0.3)
    cost = make_quadratic_cost(np.ones(d), 4, 1e-3)
    coeffs = coefficients_from_nets(rec.mu_net, rec.sigma_col_nets)
    xs = np.random.default_rng(0).uniform(0.0, 1.0, size=(3, d))
    stored = []
    for paths in (256, 512, 1024):
        budget = _budget(8, paths)
        psi, report = unroll_value_net(
            rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, seed=5
        )
        assert report["bound_ok"]
        stored.append(psi.nbytes)
    assert 8 * psi.size > 19e9
    assert stored[1] <= 2.1 * stored[0] and stored[2] <= 2.1 * stored[1]
    want = mc_reference(rec.system, coeffs, cost, budget, 5, xs)
    got = realize(psi, xs)[:, 0]
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-11


def test_unroll_builds_as_many_layers_at_any_path_count(monkeypatch):
    # the paths are members of one stack, so no layer is built per path
    rec = make_ou(2, decay=0.5, noise=0.3)
    cost = make_quadratic_cost(np.ones(2), 4, 1e-3)
    built = []
    init = Layer.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(Layer, "__init__", counted)
    counts = []
    for paths in (8, 8, 256):  # the first run fills the module caches
        built.clear()
        unroll_value_net(
            rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, _budget(4, paths), 5
        )
        counts.append(len(built))
    assert counts[1] == counts[2]


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
    est, se = l2_error(net, lambda x: x[..., 0] + x[..., 1], 500, seed=3)
    assert est <= 1e-14


def test_l2_error_calls_reference_once_on_the_sample():
    # the sample has one coordinate per network input
    for weights in ([2.0, -1.0], [2.0, -1.0, 0.5]):
        net = Network([Layer(np.array([weights]), np.zeros(1))])
        calls = []

        def reference(xs):
            calls.append(xs.shape)
            return xs[..., 0]

        l2_error(net, reference, 64, seed=3)
        assert calls == [(64, len(weights))]


def test_l2_error_constant_offset():
    net = Network([Layer(np.zeros((1, 2)), np.array([2.0]))])
    est, se = l2_error(net, lambda x: 0.0, 2000, seed=4)
    assert est == pytest.approx(2.0, abs=1e-12)


def test_l2_error_values_shapes():
    est, se = l2_error_values(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert est == 0.0 and se == 0.0


# ------------------------------------------------------------- calibration


def test_calibrated_budget_reaches_target_on_d2():
    eps, eta, kappa, tau, horizon, seed = 0.25, 0.5, 2.0, 2.25, 1.0, 21
    rec = make_ou(2, decay=0.5, noise=0.1, eta=eta)
    cplan = calibrate_cplan(eps, rec, eta, kappa, tau, horizon, seed)
    budget = plan_budget(
        eps, 2, eta, kappa, tau, horizon, beta=rec.system.beta, cplan=cplan
    )
    cost = plan_cost(2, budget, kappa)
    psi, _ = unroll_value_net(
        rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, seed
    )
    est, se = l2_error(
        psi,
        lambda x: rec.exact_value(cost.beta_weights, x, horizon),
        256,
        seed=seed ^ 0xCA11,
    )
    assert est <= eps


def test_calibrate_cplan_makes_one_reference_call_per_candidate(monkeypatch):
    # every candidate is unrolled, with its cost, at the recipe's dimension
    import stiffnet.synthesis as synthesis

    eta, kappa, tau = 0.5, 2.0, 2.25
    unroll = synthesis.unroll_value_net
    for d in (2, 3):
        rec = make_ou(d, decay=0.5, noise=0.1, eta=eta)
        exact_value = rec.exact_value
        calls, unrolls = [], []

        def counted_exact(betaw, xs, horizon):
            calls.append(np.shape(xs))
            return exact_value(betaw, xs, horizon)

        def counted_unroll(mu_net, sigma_col_nets, cost_net, sys, budget, seed):
            unrolls.append((sys.d, cost_net.dim_in))
            return unroll(mu_net, sigma_col_nets, cost_net, sys, budget, seed)

        rec.exact_value = counted_exact
        monkeypatch.setattr(synthesis, "unroll_value_net", counted_unroll)
        calibrate_cplan(0.25, rec, eta, kappa, tau, 1.0, 21)
        assert unrolls and set(unrolls) == {(d, d)}
        assert calls == [(256, d)] * len(unrolls)


@pytest.mark.parametrize("misses", [1, 2, 8])
def test_calibrate_cplan_quarters_the_candidate_per_miss(monkeypatch, misses):
    # each candidate whose measured error is above eps is divided by 4, and
    # after 8 misses calibration fails
    import stiffnet.synthesis as synthesis

    eps, eta, kappa, tau, horizon = 0.5, 0.5, 1.0, cube_tau(0.5), 1.0
    rec = make_ou(2, decay=0.5, noise=0.1, eta=eta)
    measured = []

    def error(estimates, references):
        measured.append(len(estimates))
        return (1.0 if len(measured) <= misses else 0.0), 0.0

    monkeypatch.setattr(synthesis, "l2_error_values", error)
    if misses == 8:
        with pytest.raises(
            BudgetError, match="calibration failed: measured error 1 above target 0.5"
        ):
            calibrate_cplan(eps, rec, eta, kappa, tau, horizon, 5)
        assert len(measured) == 8
        return
    first = synthesis.CALIBRATION_MARGIN * cplan_floor(
        eps, 16, eta, kappa, tau, horizon, beta=rec.system.beta
    )
    assert calibrate_cplan(eps, rec, eta, kappa, tau, horizon, 5) == first / 4**misses
    assert measured == [synthesis.CALIBRATION_SAMPLES] * (misses + 1)
