"""Linear-implicit scheme engine: stability, determinism, statistical bounds."""

import numpy as np
import pytest

from stiffnet import (
    EulerConfig,
    PathBundle,
    StiffSystem,
    coupled_gap_check,
    exact_coefficients,
    make_galerkin_heat,
    make_ou,
    make_quadratic_cost,
    moment_check,
    ou_exact_value,
    perturb_coefficients,
    rate_study,
    simulate,
    step_pes,
    validate_system,
)
from stiffnet.sde import (
    ImplicitFactor,
    alpha_one,
    alpha_p,
    fit_loglog_slope,
    gap_bound,
    moment_bound,
    step_floor,
)


def _zero_system(d, A=None, noise=None, beta=0.0, eta=0.5, sigma_l0=0.0):
    A = np.zeros((d, d)) if A is None else A
    noise = (lambda t, x, db: np.zeros_like(db)) if noise is None else noise
    kappa0 = max(1.0, float(np.linalg.norm(A, 2)))
    return StiffSystem(
        d=d,
        A=A,
        mu=lambda t, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        noise=noise,
        beta=beta,
        eta=eta,
        sigma_l0=sigma_l0,
        kappa0=kappa0,
    )


# ------------------------------------------------------------- validation


def test_validate_trivial_system_passes():
    A = np.diag([1.0, 2.0])
    rep = validate_system(_zero_system(2, A=A), trials=200)
    assert rep.passed
    assert rep.worst_margin >= 0.0


def test_validate_relu_drift_passes():
    d = 2
    sys = StiffSystem(
        d=d,
        A=np.zeros((d, d)),
        mu=lambda t, x: np.maximum(np.asarray(x, dtype=np.float64), 0.0),
        noise=lambda t, x, db: np.zeros_like(db),
        beta=2.0,  # L + eta L^2 with L = 1, eta ~ 1
        eta=0.99,
        mu_l1=1.0,
    )
    assert validate_system(sys, trials=500).passed


def test_validate_catches_violation():
    d = 1
    sys = StiffSystem(
        d=d,
        A=np.zeros((d, d)),
        mu=lambda t, x: 3.0 * np.asarray(x, dtype=np.float64),
        noise=lambda t, x, db: np.zeros_like(db),
        beta=0.0,
        eta=0.99,
        mu_l1=3.0,
    )
    rep = validate_system(sys, trials=500)
    assert not rep.passed
    assert rep.worst_witness is not None


# ---------------------------------------------------------- implicit factor


def test_implicit_factor_scalar():
    f = ImplicitFactor(np.array([[100.0]]), 0.01)
    assert np.allclose(f.solve(np.array([3.0])), np.array([1.5]))


def test_implicit_factor_identity_when_a_zero():
    f = ImplicitFactor(np.zeros((3, 3)), 0.1)
    r = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(f.solve(r), r)


def test_implicit_factor_contraction_probes():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        m = rng.normal(size=(d, d))
        A = m @ m.T  # PSD
        h = float(rng.uniform(0.001, 10.0))
        f = ImplicitFactor(A, h)
        for _ in range(100):
            r = rng.normal(size=d)
            z = f.solve(r)
            assert np.linalg.norm(z) <= np.linalg.norm(r) + 1e-12
            assert np.linalg.norm(h * (A @ z)) <= np.linalg.norm(r) + 1e-12


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_implicit_factor_singular_fails_when_built():
    # I + hA = 0: the inverse is not finite, so neither solve nor fold may see it
    with pytest.raises(np.linalg.LinAlgError):
        ImplicitFactor(-np.eye(2), 1.0)


def test_implicit_factor_inverse_matrix_agrees():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(4, 4))
    A = m @ m.T
    f = ImplicitFactor(A, 0.3)
    r = rng.normal(size=4)
    assert np.max(np.abs(f.inverse() @ r - f.solve(r))) <= 1e-12 * (
        1.0 + np.max(np.abs(r))
    )


# ----------------------------------------------------------------- stepping


def test_step_examples():
    d = 1
    # mu = sigma = 0: pure implicit contraction
    f = ImplicitFactor(np.array([[100.0]]), 0.01)
    coeffs = exact_coefficients(_zero_system(1, A=np.array([[100.0]])))
    assert np.allclose(step_pes(f, coeffs, np.array([1.0]), 0.0, np.zeros(1)), 0.5)
    # A = 0, mu = 0, sigma = I: additive increment
    sys_noise = _zero_system(1, noise=lambda t, x, db: db, sigma_l0=1.0)
    f0 = ImplicitFactor(np.zeros((1, 1)), 0.01)
    got = step_pes(f0, exact_coefficients(sys_noise), np.array([2.0]), 0.0, np.array([0.7]))
    assert np.allclose(got, 2.7)
    # constant drift through the stiff solve: (1 + h mu) / (1 + hA)
    sys_mu = StiffSystem(
        d=1,
        A=np.array([[100.0]]),
        mu=lambda t, x: np.ones_like(np.asarray(x, dtype=np.float64)),
        noise=lambda t, x, db: np.zeros_like(db),
        beta=0.0,
        eta=0.5,
        mu_l0=1.0,
        kappa0=100.0,
    )
    got = step_pes(f, exact_coefficients(sys_mu), np.array([1.0]), 0.0, np.zeros(1))
    assert np.allclose(got, 0.505)


def test_simulate_single_step_brownian():
    sys = _zero_system(2, noise=lambda t, x, db: db, sigma_l0=np.sqrt(2.0))
    cfg = EulerConfig(1.0, 1)
    bundle = PathBundle(3, 16, 1, 2, 1.0)
    end = simulate(sys, exact_coefficients(sys), np.array([1.0, -1.0]), cfg, bundle)
    want = np.array([1.0, -1.0]) + bundle.increments(0)
    assert np.max(np.abs(end - want)) <= 1e-14


def test_simulate_zero_noise_recursion():
    # with zero coefficients the state is (I+hA)^{-1} applied N+1 times
    A = np.diag([2.0, 5.0])
    sys = _zero_system(2, A=A)
    cfg = EulerConfig(1.0, 4)
    bundle = PathBundle(4, 3, 4, 2, cfg.h)

    class ZeroBundle:
        n_paths, n_steps, seed, h = bundle.n_paths, bundle.n_steps, bundle.seed, bundle.h

        def increments(self, n):
            return np.zeros((3, 2))

    x0 = np.array([1.0, 1.0])
    end = simulate(sys, exact_coefficients(sys), x0, cfg, ZeroBundle())
    want = x0 / (1.0 + cfg.h * np.diag(A)) ** 5
    assert np.max(np.abs(end - want)) <= 1e-12


def test_simulate_deterministic_given_seed():
    rec = make_ou(3, decay=0.5, noise=0.3)
    cfg = EulerConfig(1.0, 8)
    x0 = np.ones(3)
    runs = [
        simulate(
            rec.system,
            exact_coefficients(rec.system),
            x0,
            cfg,
            PathBundle(11, 32, 8, 3, cfg.h),
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0], runs[1])


def test_simulate_batch_rows_equal_single_point_runs():
    # row [p, m] of a batched run is start point p driven by path m's noise
    m = np.random.default_rng(3).normal(size=(4, 4))
    # non-diagonal PSD A: no entry of the inverse is zero, so a batch summed
    # in another order than a single run would show in the bits
    dense = _zero_system(4, A=0.5 * m @ m.T, noise=lambda t, x, db: (0.3 * x) * db)
    for sys in (
        make_ou(3, decay=0.5, noise=0.3).system,
        make_ou(16, decay=0.5, noise=0.5, sigma_kind="diag").system,
        make_galerkin_heat(5, diffusivity=0.5, drift_scale=0.4, noise_scale=0.2).system,
        dense,
    ):
        d = sys.d
        cfg = EulerConfig(1.0, 8)
        xs = np.random.default_rng(2).uniform(-1, 1, size=(5, d))
        for paths in (1, 3, 8):
            bundle = PathBundle(11, paths, 8, d, cfg.h)
            coeffs = exact_coefficients(sys)
            batch = simulate(sys, coeffs, xs, cfg, bundle)
            assert batch.shape == (5, paths, d)
            for x, rows in zip(xs, batch):
                assert np.array_equal(rows, simulate(sys, coeffs, x, cfg, bundle))


def _matrix_step_simulate(sys, coeffs, x0, cfg, bundle):
    # the scheme as a dense (M, d, d) diffusion matrix, recovered through the
    # unit vectors, contracted with the increment by einsum
    d, m = sys.d, bundle.n_paths
    factor = ImplicitFactor(sys.A, cfg.h)
    y = factor.solve(np.broadcast_to(x0, (m, d)).copy())
    for n, t in enumerate(cfg.grid()[:-1]):
        sig = coeffs.noise(t, np.broadcast_to(y[:, None, :], (m, d, d)), np.eye(d))
        sig = np.swapaxes(sig, -1, -2)
        noise = np.einsum("...ij,...j->...i", sig, bundle.increments(n))
        y = factor.solve(y + cfg.h * np.asarray(coeffs.mu(t, y)) + noise)
    return y


def test_simulate_noise_term_equals_matrix_contraction():
    from stiffnet import make_controlled_relu_drift
    from stiffnet.synthesis import coefficients_from_nets

    cases = [
        (make_ou(8, decay=0.5, noise=0.5, sigma_kind="diag"), None),
        (make_ou(16, decay=0.5, noise=0.1), None),
        (make_galerkin_heat(5, drift_scale=0.4, noise_scale=0.6, sigma_kind="diag"), None),
    ]
    for d in (2, 8):
        rec = make_controlled_relu_drift(d, noise_scale=0.3)
        extra = np.array([0.5, -0.25])
        cases.append((rec, coefficients_from_nets(rec.mu_net, rec.sigma_col_nets, extra=extra)))
    for rec, coeffs in cases:
        coeffs = exact_coefficients(rec.system) if coeffs is None else coeffs
        cfg = EulerConfig(1.0, 8)
        bundle = PathBundle(21, 64, 8, rec.d, cfg.h)
        x0 = np.random.default_rng(6).uniform(-1, 1, rec.d)
        got = simulate(rec.system, coeffs, x0, cfg, bundle)
        assert np.array_equal(got, _matrix_step_simulate(rec.system, coeffs, x0, cfg, bundle))


def _count_draws(monkeypatch):
    draws = []
    increments = PathBundle.increments

    def counted(self, n):
        draws.append(n)
        return increments(self, n)

    monkeypatch.setattr(PathBundle, "increments", counted)
    return draws


# -------------------------------------------------------------- path bundle


def test_increments_pure_function_of_seed_path_step():
    b1 = PathBundle(5, 8, 16, 3, 0.125)
    b2 = PathBundle(5, 20, 16, 3, 0.125)
    # first 8 rows agree regardless of path count: schedule independence
    assert np.array_equal(b1.increments(7), b2.increments(7)[:8])


def test_increment_statistics():
    b = PathBundle(6, 20000, 2, 2, 0.25)
    db = b.increments(1)
    assert abs(np.mean(db)) < 0.01
    assert abs(np.var(db) - 0.25) < 0.01


# -------------------------------------------------------------- OU oracle


def test_ou_exact_value_brownian_case():
    d = 3
    x0 = np.array([1.0, 2.0, -1.0])
    got = ou_exact_value(np.zeros((d, d)), np.eye(d), np.ones(d), x0, 2.0)
    assert got == pytest.approx(np.dot(x0, x0) + d * 2.0, rel=1e-9)


def test_ou_exact_value_scalar_decay():
    a, T, d = 0.7, 1.5, 2
    x0 = np.array([1.0, -2.0])
    want = np.exp(-2 * a * T) * np.dot(x0, x0) + d * (1 - np.exp(-2 * a * T)) / (2 * a)
    got = ou_exact_value(a * np.eye(d), np.eye(d), np.ones(d), x0, T)
    assert got == pytest.approx(want, rel=1e-9)


def test_ou_exact_value_zero_horizon():
    x0 = np.array([1.0, 3.0])
    beta = np.array([2.0, 0.5])
    got = ou_exact_value(np.eye(2), np.eye(2), beta, x0, 0.0)
    assert got == pytest.approx(2.0 + 4.5, rel=1e-12)


def test_ou_exact_value_batch_equals_single_points(monkeypatch):
    import stiffnet.sde as sde

    exps = []
    expm = sde.expm

    def counted(*args, **kwargs):
        exps.append(1)
        return expm(*args, **kwargs)

    A = np.array([[1.0, 0.3, 0.0], [-0.2, 0.8, 0.1], [0.0, 0.4, 1.5]])
    sigma0 = np.array([[0.5, 0.0, 0.1], [0.2, 0.3, 0.0], [0.0, 0.1, 0.4]])
    betaw = np.array([1.0, 0.5, 2.0])
    xs = np.random.default_rng(3).normal(size=(20, 3))
    singles = [ou_exact_value(A, sigma0, betaw, x, 1.5) for x in xs]
    monkeypatch.setattr(sde, "expm", counted)
    batch = ou_exact_value(A, sigma0, betaw, xs, 1.5)
    assert batch.shape == (20,)
    assert np.array_equal(batch, singles)
    assert len(exps) == 2  # the decay and one block exponential, for all points
    assert isinstance(singles[0], float)


def _quadrature_variances(A, sigma0, T):
    from scipy.integrate import quad_vec
    from scipy.linalg import expm

    q = sigma0 @ sigma0.T

    def integrand(s):
        e = expm(-s * A)
        return e @ q @ e.T

    cov, _ = quad_vec(integrand, 0.0, T, epsabs=1e-13, epsrel=1e-13)
    return np.diag(cov)


def _variances(A, sigma0, T):
    d = len(A)
    return np.array(
        [ou_exact_value(A, sigma0, np.eye(d)[i], np.zeros(d), T) for i in range(d)]
    )


def _nonsymmetric_ou():
    A = np.array([[1.0, 0.3, 0.0], [-0.2, 0.8, 0.1], [0.0, 0.4, 1.5]])
    sigma0 = np.array([[0.5, 0.0, 0.1], [0.2, 0.3, 0.0], [0.0, 0.1, 0.4]])
    return A, sigma0, 1.5


def _stiff_galerkin(d):
    # lambda_max T = pi^2 d^2 > 709 for d >= 9: exp(+TA) would overflow to inf
    recipe = make_galerkin_heat(d)
    return recipe.system.A, recipe.sigma0, 1.0


@pytest.mark.parametrize(
    "case",
    [_nonsymmetric_ou, lambda: _stiff_galerkin(9), lambda: _stiff_galerkin(16)],
    ids=["nonsymmetric", "galerkin_d9", "galerkin_d16"],
)
def test_ou_exact_value_covariance_matches_quadrature(case):
    A, sigma0, T = case()
    got = _variances(A, sigma0, T)
    np.testing.assert_allclose(got, _quadrature_variances(A, sigma0, T), rtol=1e-12, atol=0)


def test_ou_exact_value_stiff_decay_is_finite():
    # decay 3.2e4 at T = 1: the variance is noise^2 (1 - e^(-2aT)) / (2a) per coordinate
    a, s, d = 3.2e4, 0.1, 4
    x0 = np.ones(d)
    got = ou_exact_value(a * np.eye(d), s * np.eye(d), np.ones(d), x0, 1.0)
    assert got == pytest.approx(d * s**2 / (2 * a), rel=1e-12)


def test_ou_exact_value_without_decay_is_exact():
    # A = 0: E|Y_T|^2 = |x0|^2 + T |sigma0|_F^2 with no rounding
    x0 = np.array([1.0, -1.0])
    assert ou_exact_value(np.zeros((2, 2)), np.eye(2), np.ones(2), x0, 1.0) == 4.0
    assert ou_exact_value(np.zeros((2, 2)), np.eye(2), np.ones(2), np.zeros(2), 1.0) == 2.0


def test_cli_import_leaves_out_quadrature():
    import os
    import subprocess
    import sys

    import stiffnet

    src = os.path.dirname(os.path.dirname(os.path.abspath(stiffnet.__file__)))
    code = "import sys, stiffnet.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert out.strip() == "False"


def test_recipe_exact_value_batch_equals_single_points():
    rec = make_ou(4, decay=0.5, noise=0.1)
    betaw = np.arange(1.0, 5.0)
    xs = np.random.default_rng(4).uniform(size=(6, 4))
    singles = [rec.exact_value(betaw, x, 1.0) for x in xs]
    assert np.array_equal(rec.exact_value(betaw, xs, 1.0), singles)


# ------------------------------------------------------------- rate studies


def _strong_cost(d):
    # the quadratic cost the convergence study uses
    return make_quadratic_cost(np.ones(d), 3.0, 1e-3)


def test_strong_rate_zero_system_is_exact():
    sys = _zero_system(2, A=np.diag([1.0, 2.0]))
    res = rate_study(
        sys, exact_coefficients(sys), _strong_cost(2), np.zeros(2), [8, 16], 1.0, 0, 16
    )
    assert all(r["strong_err"] == 0.0 for r in res["rows"])


def test_strong_rate_slope_band_small():
    rec = make_ou(4, decay=0.5, noise=1.0, sigma_kind="diag")
    res = rate_study(
        rec.system,
        exact_coefficients(rec.system),
        _strong_cost(4),
        np.ones(4),
        [8, 16, 32, 64],
        1.0,
        7,
        512,
    )
    assert 0.3 <= res["strong_slope"] <= 0.7


def test_strong_rate_gamma_floor():
    rec = make_ou(2, decay=0.5, noise=0.5, sigma_kind="diag")
    coeffs = perturb_coefficients(rec.system, 0.2)
    res = rate_study(
        rec.system, coeffs, _strong_cost(2), np.ones(2), [16, 32, 64, 128], 1.0, 7, 256
    )
    # a fixed coefficient perturbation leaves an error floor: the finest-grid
    # error stays above a gamma-proportional level instead of h^(1/2) decay
    errs = [r["strong_err"] for r in res["rows"]]
    assert errs[-1] > 0.05
    assert res["strong_slope"] < 0.4


def test_weak_rate_zero_cost():
    rec = make_ou(2, decay=0.5, noise=0.3)
    cost = make_quadratic_cost(np.zeros(2), 3.0, 1e-3)
    res = rate_study(
        rec.system,
        exact_coefficients(rec.system),
        cost,
        np.ones(2),
        [8, 16],
        1.0,
        3,
        64,
        oracle=0.0,
    )
    assert all(r["weak_err"] == 0.0 for r in res["rows"])


def test_weak_rate_against_ou_oracle():
    rec = make_ou(2, decay=0.5, noise=0.3)
    cost = make_quadratic_cost(np.ones(2), 4.0, 1e-4)
    x0 = np.array([0.5, 0.5])
    oracle = rec.exact_value(cost.beta_weights, x0, 1.0)
    res = rate_study(
        rec.system,
        exact_coefficients(rec.system),
        cost,
        x0,
        [64, 128],
        1.0,
        3,
        4096,
        oracle=oracle,
    )
    for r in res["rows"]:
        assert r["weak_err"] <= 0.05 + 3.0 * r["weak_stderr"]


def test_rate_study_brownian_coarse_sums_match_reference():
    # A = 0, mu = 0, sigma = I: every coarse state is x0 plus the summed fine
    # increments, so it meets the reference at each coarse grid point
    d = 2
    sys = _zero_system(d, noise=lambda t, x, db: db, sigma_l0=np.sqrt(d))
    res = rate_study(
        sys, exact_coefficients(sys), _strong_cost(d), np.ones(d), [2, 4, 8], 1.0, 7, 64
    )
    assert all(r["strong_err"] <= 1e-12 for r in res["rows"])


def test_rate_study_draws_each_fine_block_once(monkeypatch):
    draws = _count_draws(monkeypatch)
    rec = make_ou(2, decay=0.5, noise=0.3)
    rate_study(
        rec.system,
        exact_coefficients(rec.system),
        _strong_cost(2),
        np.ones(2),
        [8, 16],
        1.0,
        3,
        8,
    )
    assert draws == list(range(64 * 16))


def test_rate_study_rejects_step_count_off_the_reference_grid(monkeypatch):
    def no_draws(self, n):
        raise AssertionError("drew noise before validating n_list")

    monkeypatch.setattr(PathBundle, "increments", no_draws)
    rec = make_ou(2, decay=0.5, noise=0.3)
    for n_list in ([3, 8], [0, 8], []):
        with pytest.raises(ValueError):
            rate_study(
                rec.system,
                exact_coefficients(rec.system),
                _strong_cost(2),
                np.ones(2),
                n_list,
                1.0,
                3,
                8,
            )


def test_fit_loglog_slope_recovers_power():
    hs = np.array([0.5, 0.25, 0.125, 0.0625])
    errs = 2.0 * hs**0.5
    assert fit_loglog_slope(hs, errs) == pytest.approx(0.5, abs=1e-12)


def test_fit_loglog_discards_preasymptotic_point():
    hs = np.array([0.5, 0.25, 0.125])
    errs = np.array([100.0, 0.5, 0.25])  # coarsest point way above magnitude 1
    slope = fit_loglog_slope(hs, errs, magnitude=1.0)
    assert slope == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------- gap and moments


def test_gap_zero_for_exact_coefficients():
    rec = make_ou(2, decay=0.5, noise=0.3)
    cfg = EulerConfig(1.0, 16)
    bundle = PathBundle(9, 64, 16, 2, cfg.h)
    rep = coupled_gap_check(
        rec.system, exact_coefficients(rec.system), np.ones(2), cfg, bundle
    )
    assert rep["gap"] == 0.0
    assert rep["bound"] == 0.0


def test_gap_check_draws_each_block_once(monkeypatch):
    draws = _count_draws(monkeypatch)
    rec = make_ou(2, decay=0.5, noise=0.3)
    cfg = EulerConfig(1.0, 32)
    bundle = PathBundle(10, 64, 32, 2, cfg.h)
    coeffs = perturb_coefficients(rec.system, 0.01)
    coupled_gap_check(rec.system, coeffs, np.ones(2), cfg, bundle)
    assert draws == list(range(32))


def test_gap_bound_formula():
    sys = _zero_system(2, beta=0.0, eta=0.5)
    want = np.e * 1.0 * 1.5 * 1e-4 / 0.5
    assert gap_bound(sys, 1.0, 0.01) == pytest.approx(want, rel=1e-12)


def test_gap_within_bound_and_quadratic_in_gamma():
    rec = make_ou(2, decay=0.5, noise=0.3)
    cfg = EulerConfig(1.0, 32)
    bundle = PathBundle(10, 2048, 32, 2, cfg.h)
    gaps = {}
    for gamma in (0.01, 0.02):
        coeffs = perturb_coefficients(rec.system, gamma)
        rep = coupled_gap_check(rec.system, coeffs, np.ones(2), cfg, bundle)
        assert rep["gap"] <= rep["bound"] + 3.0 * rep["stderr"]
        gaps[gamma] = rep["gap"]
    # doubling gamma at most quadruples the measured gap (within MC slack)
    assert gaps[0.02] <= 4.0 * gaps[0.01] * 1.5


def test_alpha_formulas():
    sys = _zero_system(2, eta=0.5, sigma_l0=np.sqrt(2.0))
    # alpha_2 = (1+eta)(p-1)/(2(eta+2-p)) sigma_l0^2 at p = 2, mu_l0 = 0
    assert alpha_p(sys, 2.0) == pytest.approx(1.5 / (2 * 0.5) * 2.0, rel=1e-12)
    # alpha_1 = (1+eta)^2 sigma_l0^2 / eta
    assert alpha_one(sys) == pytest.approx(1.5**2 * 2.0 / 0.5, rel=1e-12)
    with pytest.raises(ValueError):
        alpha_p(sys, 2.6)


def test_moment_check_contraction_case():
    sys = _zero_system(2, A=np.diag([1.0, 3.0]))
    cfg = EulerConfig(1.0, 16)
    bundle = PathBundle(11, 256, 16, 2, cfg.h)
    rep = moment_check(sys, np.ones(2), cfg, bundle, p=2.0)
    assert rep["moment_ok"] and rep["discrete_ok"] and rep["one_step_stable"]
    assert rep["moment_est"] <= np.dot(np.ones(2), np.ones(2)) + 1e-12


def test_moment_check_brownian_closed_form():
    # A = 0, mu = 0, sigma = I: E|Y_T|^2 = |x0|^2 + dT, below the explicit bound
    d = 2
    sys = _zero_system(d, noise=lambda t, x, db: db, sigma_l0=np.sqrt(d), eta=0.5)
    cfg = EulerConfig(1.0, 32)
    bundle = PathBundle(12, 4096, 32, d, cfg.h)
    rep = moment_check(sys, np.ones(d), cfg, bundle, p=2.0)
    closed = d + d * 1.0
    assert abs(rep["moment_est"] - closed) <= 5.0 * rep["moment_stderr"] + 0.05
    assert rep["moment_ok"] and rep["discrete_ok"]


def test_moment_check_fractional_p():
    rec = make_ou(3, decay=0.5, noise=0.4, eta=0.5)
    cfg = EulerConfig(1.0, 32)
    bundle = PathBundle(13, 1024, 32, 3, cfg.h)
    rep = moment_check(rec.system, np.ones(3), cfg, bundle, p=2.4)
    assert rep["moment_ok"] and rep["discrete_ok"] and rep["one_step_stable"]


def test_moment_bound_formula_values():
    sys = _zero_system(1, eta=0.5)
    # mu = sigma = 0: alpha_p = 0, bound = |x0|^p e^{p(beta+1/2)T}
    x0 = np.array([2.0])
    assert moment_bound(sys, x0, 1.0, 2.0) == pytest.approx(4.0 * np.e, rel=1e-12)


def test_step_floor_components():
    # the floor majorizes each of its ingredients
    for T, beta, eta in [(1.0, 0.0, 0.5), (2.0, 1.5, 0.25), (0.5, 0.3, 0.9)]:
        f = step_floor(T, beta, eta)
        r = 2.0 ** (1.0 / T)
        assert f >= T * (2.0 * beta + r) / (r - 1.0) - 1e-12
        assert f >= T / eta - 1e-12
        assert f >= 2.0 * T * eta - 1e-12
