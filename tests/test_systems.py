"""System and cost generators: hypothesis compliance and exact networks."""

import math

import numpy as np
import pytest

from stiffnet import (
    make_controlled_relu_drift,
    make_galerkin_heat,
    make_ou,
    make_quadratic_cost,
    make_relu_drift_system,
    make_system,
    perturb_coefficients,
    realize,
    validate_system,
)


def _coeff_input(t, x):
    return np.concatenate([[t], np.asarray(x, dtype=np.float64)])


def _sigma(noise, t, x):
    # sigma(t, x) recovered from the noise contraction on the unit vectors
    d = len(x)
    return noise(t, np.broadcast_to(x, (d, d)), np.eye(d)).T


def test_galerkin_spectral_matrix():
    rec = make_galerkin_heat(3, diffusivity=1.0)
    want = np.diag(np.pi**2 * np.array([1.0, 4.0, 9.0]))
    assert np.allclose(rec.system.A, want)
    assert validate_system(rec.system).passed


def test_galerkin_operator_norm_scaling():
    # ||A||_op / d^2 is constant across d: the declared kappa0 covers it
    vals = []
    for d in (4, 8, 16, 32):
        rec = make_galerkin_heat(d, diffusivity=0.7)
        op = np.linalg.norm(rec.system.A, 2)
        assert op <= rec.system.kappa0 * d**rec.system.kappa0
        vals.append(op / d**2)
    assert np.ptp(vals) <= 1e-9


def test_galerkin_psd_probes():
    rec = make_galerkin_heat(5)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(size=5)
        assert x @ rec.system.A @ x >= 0.0


def test_galerkin_drift_net_exact():
    rec = make_galerkin_heat(4, drift_scale=0.5)
    rng = np.random.default_rng(1)
    for _ in range(50):
        t, x = rng.uniform(), rng.normal(size=4)
        got = realize(rec.mu_net, _coeff_input(t, x))
        assert np.max(np.abs(got - rec.system.mu(t, x))) <= 1e-14


def test_galerkin_diag_noise_recipe():
    rec = make_galerkin_heat(4, noise_scale=0.6, sigma_kind="diag")
    rng = np.random.default_rng(2)
    for _ in range(20):
        t, x = rng.uniform(), rng.normal(size=4)
        sig = _sigma(rec.system.noise, t, x)
        assert np.allclose(sig, 0.6 * np.diag(x))
        cols = np.stack(
            [realize(c, _coeff_input(t, x)) for c in rec.sigma_col_nets], axis=1
        )
        assert np.max(np.abs(cols - sig)) <= 1e-14
    assert validate_system(rec.system).passed
    assert not rec.linear


def test_galerkin_rejects_bad_kind():
    with pytest.raises(ValueError):
        make_galerkin_heat(2, sigma_kind="full")


def test_ou_recipe_and_oracle():
    rec = make_ou(3, decay=0.5, noise=0.2)
    assert rec.linear
    x0 = np.array([1.0, 0.5, -0.2])
    betaw = np.ones(3)
    a, s, T = 0.5, 0.2, 1.0
    want = np.exp(-2 * a * T) * np.dot(x0, x0) + 3 * s * s * (
        1 - np.exp(-2 * a * T)
    ) / (2 * a)
    assert rec.exact_value(betaw, x0, T) == pytest.approx(want, rel=1e-9)


def test_ou_diag_noise_recipe():
    rec = make_ou(3, decay=0.5, noise=0.7, sigma_kind="diag")
    assert not rec.linear
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(_sigma(rec.system.noise, 0.0, x), 0.7 * np.diag(x))
    # beta covers the multiplicative-noise monotonicity contribution
    assert rec.system.beta == pytest.approx(0.5 * 1.5 * 0.49)
    assert validate_system(rec.system).passed


def test_ou_exact_value_requires_linear():
    rec = make_ou(2, sigma_kind="diag")
    with pytest.raises(ValueError):
        rec.exact_value(np.ones(2), np.ones(2), 1.0)


def test_coefficient_nets_share_architecture():
    for rec in (
        make_ou(3),
        make_ou(3, sigma_kind="diag"),
        make_galerkin_heat(3, drift_scale=0.4),
        make_galerkin_heat(3, sigma_kind="diag"),
        make_relu_drift_system(3, l_mu=0.5),
    ):
        sigs = {c.dims for c in rec.sigma_col_nets}
        assert len(sigs) == 1


@pytest.mark.parametrize(
    "rec, m, mu_kind, col_kind",
    [
        (make_ou(3), 0, "const", "const"),
        (make_ou(3, sigma_kind="diag"), 0, "const", "diag"),
        (make_galerkin_heat(3, drift_scale=0.4), 0, "relu", "const"),
        (make_galerkin_heat(3, sigma_kind="diag"), 0, "const", "diag"),
        (make_galerkin_heat(3, drift_scale=0.4, sigma_kind="diag"), 0, "relu", "diag"),
        (make_relu_drift_system(3, l_mu=0.5, noise_scale=0.1), 0, "relu", "const"),
        (make_controlled_relu_drift(3), 2, "relu", "const"),
        (make_controlled_relu_drift(3, l_mu=0.0, m2=2), 3, "relu", "const"),
    ],
)
def test_constant_coefficient_nets_have_one_hidden_unit(rec, m, mu_kind, col_kind):
    # a constant needs one unit whatever the other nets' widths; the
    # ReLU drift carries relu(x), relu(u), relu(-u) and a diagonal column
    # the (relu, relu-of-minus) pair of its coordinate
    d = rec.d
    dims = {
        "const": (d + 1 + m, 1, d),
        "relu": (d + 1 + m, d + 2 * m, d),
        "diag": (d + 1 + m, 2, d),
    }
    assert rec.mu_net.dims == dims[mu_kind]
    assert [c.dims for c in rec.sigma_col_nets] == [dims[col_kind]] * d


def test_relu_drift_recipe():
    rec = make_relu_drift_system(2, l_mu=1.0, eta=0.5)
    assert rec.system.beta == pytest.approx(1.0 + 0.5)
    rng = np.random.default_rng(3)
    for _ in range(100):
        t, x = rng.uniform(), rng.normal(size=2)
        got = realize(rec.mu_net, _coeff_input(t, x))
        assert np.max(np.abs(got - rec.system.mu(t, x))) <= 1e-14


def test_relu_drift_zero_lipschitz():
    rec = make_relu_drift_system(2, l_mu=0.0)
    assert rec.system.beta == 0.0
    assert np.allclose(rec.system.mu(0.0, np.ones(2)), 0.0)


def test_controlled_recipe_accepts_action_input():
    rec = make_controlled_relu_drift(2, m1=1, m2=1)
    assert rec.control_dims == (1, 1)
    # coefficient nets take (t, x, u1, u2)
    assert rec.mu_net.dim_in == 2 + 1 + 2
    rng = np.random.default_rng(4)
    t, x, u = 0.3, rng.normal(size=2), rng.normal(size=2)
    inp = np.concatenate([[t], x, u])
    got = realize(rec.mu_net, inp)
    # the default drift l_mu relu(x) + B1 u1 + B2 u2, with l_mu = 0.5, B1 = 1, B2 = -1
    b_all = np.hstack([np.ones((2, 1)), -np.ones((2, 1))])
    want = 0.5 * np.maximum(x, 0.0) + b_all @ u
    assert np.max(np.abs(got - want)) <= 1e-12


def test_controlled_recipe_without_drift_keeps_its_action_channels():
    # l_mu = 0: the envelope has the zero drift, but the nets still carry B u
    b1, b2 = np.array([[1.0], [2.0]]), np.array([[0.5, -1.0], [0.0, 3.0]])
    rec = make_controlled_relu_drift(2, l_mu=0.0, b1=b1, b2=b2)
    assert not rec.linear
    assert rec.control_dims == (1, 2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        t, x, u = rng.uniform(), rng.normal(size=2), rng.normal(size=3)
        inp = np.concatenate([[t], x, u])
        got = realize(rec.mu_net, inp)
        assert np.max(np.abs(got - b1 @ u[:1] - b2 @ u[1:])) <= 1e-14
        cols = np.stack([realize(c, inp) for c in rec.sigma_col_nets], axis=1)
        assert np.array_equal(cols, rec.sigma0)
    assert np.array_equal(rec.system.mu(0.0, np.ones(2)), np.zeros(2))


@pytest.mark.parametrize(
    "recipe, params",
    [
        ("ou", {"decay": True}),
        ("ou", {"noise": np.bool_(False)}),
        ("ou", {"eta": True}),
        ("galerkin_heat", {"diffusivity": True}),
        ("galerkin_heat", {"drift_scale": False}),
        ("galerkin_heat", {"noise_scale": True}),
        ("relu_drift", {"l_mu": True}),
        ("controlled_relu_drift", {"noise_scale": True}),
        ("controlled_relu_drift", {"m1": True}),
        ("controlled_relu_drift", {"b2": [[-1.0], [True]]}),
    ],
)
def test_factories_refuse_bools_as_numbers(recipe, params):
    # JSON true would otherwise build 1.0 through float()
    with pytest.raises(ValueError, match="must be a number"):
        make_system(recipe, 2, **params)


@pytest.mark.parametrize(
    "recipe, params, name",
    [
        ("ou", {"decay": math.inf}, "decay"),
        ("ou", {"noise": -math.inf}, "noise"),
        ("galerkin_heat", {"diffusivity": math.nan}, "diffusivity"),
        ("relu_drift", {"l_mu": np.float64(math.nan)}, "l_mu"),
        ("controlled_relu_drift", {"eta": math.nan}, "eta"),
        ("controlled_relu_drift", {"b1": [[math.nan], [1.0]]}, "b1"),
        ("controlled_relu_drift", {"b2": np.array([[-1.0], [math.inf]])}, "b2"),
    ],
)
def test_factories_refuse_non_finite_numbers(recipe, params, name):
    # Python's json reads NaN and Infinity, and A = inf * I passes validation
    with pytest.raises(ValueError, match="%s must be finite" % name):
        make_system(recipe, 2, **params)


def test_registry_dispatch():
    rec = make_system("ou", 2, decay=0.3)
    assert rec.id == "ou"
    assert np.array_equal(rec.system.A, np.diag([0.3, 0.3]))
    with pytest.raises(KeyError):
        make_system("unknown", 2)


def test_quadratic_cost_pack():
    beta = np.array([1.0, 2.0])
    cost = make_quadratic_cost(beta, 10.0, 1e-3)
    x = np.array([0.5, -0.25])
    # inside the box the truncation is the exact quadratic
    assert cost.f_trunc(x) == pytest.approx(cost.f(x), rel=1e-12)
    assert cost.theta == pytest.approx(2.0 * 2 * 100.0 * 1e-3)


def test_quadratic_cost_outside_box_gap():
    beta = np.array([1.5])
    cost = make_quadratic_cost(beta, 1.0, 1e-2)
    xs = np.linspace(1.0, 4.0, 200)
    for x in xs:
        gap = abs(cost.f(np.array([x])) - cost.f_trunc(np.array([x])))
        assert gap <= 1.5 * x * x + 1e-12


def test_quadratic_cost_theta_matches_grid_sup():
    beta = np.array([2.0])
    D, eps_cost = 2.0, 1e-2
    cost = make_quadratic_cost(beta, D, eps_cost)
    xs = np.linspace(-3.0, 3.0, 4001)[:, None]
    gap = np.abs(cost.f_tilde(xs) - np.array([cost.f_trunc(x) for x in xs]))
    assert np.max(gap) <= cost.theta + 1e-12


def test_perturbation_stays_within_gamma():
    rec = make_ou(3, decay=0.5, noise=0.2)
    gamma = 0.05
    coeffs = perturb_coefficients(rec.system, gamma)
    rng = np.random.default_rng(5)
    for _ in range(200):
        t, x = rng.uniform(), rng.normal(scale=3.0, size=3)
        dmu = np.linalg.norm(coeffs.mu(t, x) - rec.system.mu(t, x))
        dsig = np.linalg.norm(_sigma(coeffs.noise, t, x) - _sigma(rec.system.noise, t, x))
        assert dmu + dsig <= gamma + 1e-12
    assert coeffs.gamma == gamma


def test_recipes_validate_at_construction():
    # each factory runs the hypothesis checker; bad parameters are rejected
    with pytest.raises(ValueError):
        make_galerkin_heat(2, diffusivity=-1.0)
