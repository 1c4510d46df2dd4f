"""Linear-implicit scheme engine: stability, determinism, statistical bounds."""

import dataclasses
import inspect
import threading
import tracemalloc
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest

from stiffnet import (
    RECIPES,
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
from stiffnet import sde
from stiffnet.sde import (
    _WINDOW,
    ImplicitFactor,
    alpha_one,
    alpha_p,
    drawing_threads,
    fit_loglog_slope,
    gap_bound,
    moment_bound,
    reference_steps,
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


def _relu_system():
    return StiffSystem(
        d=2,
        A=np.zeros((2, 2)),
        mu=lambda t, x: np.maximum(np.asarray(x, dtype=np.float64), 0.0),
        noise=lambda t, x, db: np.zeros_like(db),
        beta=2.0,  # L + eta L^2 with L = 1, eta ~ 1
        eta=0.99,
        mu_l1=1.0,
    )


def _tripled_drift_system():
    return StiffSystem(
        d=1,
        A=np.zeros((1, 1)),
        mu=lambda t, x: 3.0 * np.asarray(x, dtype=np.float64),
        noise=lambda t, x, db: np.zeros_like(db),
        beta=0.0,
        eta=0.99,
        mu_l1=3.0,
    )


def _late_break_system(t_break):
    # zero drift up to t_break, then 3x, which beta = 0 does not cover
    return StiffSystem(
        d=2,
        A=np.zeros((2, 2)),
        mu=lambda t, x: np.where(np.asarray(t) > t_break, 3.0, 0.0) * x,
        noise=lambda t, x, db: np.zeros_like(db),
        beta=0.0,
        eta=0.5,
        mu_l1=3.0,
    )


def _loop_validate(sys):
    """validate_system one (t, x, y) trial at a time, sigma as a d x d matrix.

    The reference the batched validator must match: same sample, same
    checks, same verdict rules.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(sde._VALIDATE_SEED)))
    d = sys.d
    ts = rng.uniform(0.0, sde._VALIDATE_HORIZON, sde._VALIDATE_TRIALS)
    xs = rng.normal(0.0, sde._VALIDATE_SCALE, (sde._VALIDATE_TRIALS, d))
    ys = rng.normal(0.0, sde._VALIDATE_SCALE, (sde._VALIDATE_TRIALS, d))
    eye = np.eye(d)

    def sigma_rows(t, x):
        return sys.noise(t, x[None].repeat(d, axis=0), eye)

    worst, witness, lip_ok = np.inf, None, True
    for t, x, y in zip(ts, xs, ys):
        dmu = np.asarray(sys.mu(t, x)) - np.asarray(sys.mu(t, y))
        ds = sigma_rows(t, x) - sigma_rows(t, y)
        diff = x - y
        fro2 = np.sum(ds * ds)
        lhs = diff @ dmu + sys.eta * dmu @ dmu + 0.5 * (1.0 + sys.eta) * fro2
        margin = sys.beta * diff @ diff + diff @ (sys.A @ diff) - lhs
        if margin < worst:
            worst, witness = margin, (float(t), x.copy(), y.copy())
        dn = np.linalg.norm(diff)
        if np.linalg.norm(dmu) > sys.mu_l1 * dn * (1 + 1e-9) + 1e-12:
            lip_ok = False
        if np.sqrt(fro2) > sys.sigma_l1 * dn * (1 + 1e-9) + 1e-12:
            lip_ok = False
    zero = np.zeros(d)
    t0 = ts[:64]
    disp_mu = max(np.linalg.norm(np.asarray(sys.mu(t, zero))) for t in t0)
    disp_sigma = max(np.sqrt(np.sum(sigma_rows(t, zero) ** 2)) for t in t0)
    psd_ok = all(x @ (sys.A @ x) >= -1e-10 * (x @ x) for x in xs[:100])
    checks = {
        "monotonicity_worst_margin": float(worst),
        "psd_quadratic_form": psd_ok,
        "lipschitz_within_seminorms": lip_ok,
        "mu_displacement": float(disp_mu),
        "mu_displacement_bound": sys.mu_l0,
        "sigma_displacement": float(disp_sigma),
        "sigma_displacement_bound": sys.sigma_l0,
    }
    passed = bool(
        worst >= -1e-9 * max(1.0, abs(worst))
        and psd_ok
        and lip_ok
        and disp_mu <= sys.mu_l0 * (1 + 1e-9) + 1e-12
        and disp_sigma <= sys.sigma_l0 * (1 + 1e-9) + 1e-12
    )
    witness = None if passed else witness
    return sde.ValidationReport(passed, float(worst), witness, checks)


def _assert_same_report(got, want):
    assert got.passed == want.passed
    assert got.checks.keys() == want.checks.keys()
    for key, value in want.checks.items():
        if isinstance(value, bool):
            assert got.checks[key] == value, key
        else:
            # relative, floored at 1 like the validator's own round-off tolerance
            err = abs(got.checks[key] - value)
            assert err <= 1e-12 * max(1.0, abs(value)), key
    assert got.worst_margin == got.checks["monotonicity_worst_margin"]
    if want.passed:
        assert got.worst_witness is None
    else:
        t, x, y = got.worst_witness
        assert t == want.worst_witness[0]
        assert np.array_equal(x, want.worst_witness[1])
        assert np.array_equal(y, want.worst_witness[2])


def _recipe_shapes():
    for recipe_id, factory in RECIPES.items():
        if "sigma_kind" in inspect.signature(factory).parameters:
            yield from ((recipe_id, kind) for kind in ("const", "diag"))
        else:
            yield recipe_id, None


def test_validate_trivial_system_passes():
    A = np.diag([1.0, 2.0])
    rep = validate_system(_zero_system(2, A=A))
    assert rep.passed
    assert rep.worst_margin >= 0.0


def test_validate_relu_drift_passes():
    assert validate_system(_relu_system()).passed


def test_validate_catches_violation():
    rep = validate_system(_tripled_drift_system())
    assert not rep.passed
    assert rep.worst_witness is not None


def test_validate_reads_time_as_a_column():
    # the drift breaks monotonicity only for t > 1/2: the witness lies there,
    # and moving the break past the horizon makes the system pass
    rep = validate_system(_late_break_system(0.5))
    assert not rep.passed
    assert rep.worst_witness[0] > 0.5
    assert validate_system(_late_break_system(sde._VALIDATE_HORIZON + 0.5)).passed


@pytest.mark.parametrize(
    "system",
    [
        lambda: _zero_system(2, A=np.diag([1.0, 2.0])),
        _relu_system,
        _tripled_drift_system,
        lambda: _late_break_system(0.5),
        lambda: _late_break_system(sde._VALIDATE_HORIZON + 0.5),
    ],
    ids=["trivial", "relu", "tripled", "break_inside", "break_past"],
)
def test_validate_matches_loop_reference_on_test_systems(system):
    sys = system()
    _assert_same_report(validate_system(sys), _loop_validate(sys))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16, 32])
@pytest.mark.parametrize("recipe_id, sigma_kind", list(_recipe_shapes()))
def test_validate_matches_loop_reference_on_recipes(recipe_id, sigma_kind, d):
    params = {} if sigma_kind is None else {"sigma_kind": sigma_kind}
    sys = RECIPES[recipe_id](d, **params).system
    # beta lowered by 1 breaks monotonicity wherever A does not cover it,
    # so the failing verdicts and their witnesses are compared too
    for s in (sys, dataclasses.replace(sys, beta=sys.beta - 1.0)):
        _assert_same_report(validate_system(s), _loop_validate(s))


def test_validate_memory_is_linear_in_d():
    sys = make_ou(128, sigma_kind="diag").system
    tracemalloc.start()
    try:
        validate_system(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (1000, 128, 128) array alone would take 131 MB
    assert peak <= 16 * 2**20


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


def test_implicit_factor_singular_fails_when_built():
    # I + hA = 0: the inverse is not finite, so neither solve nor fold may see it
    with pytest.raises(np.linalg.LinAlgError):
        ImplicitFactor(-np.eye(2), 1.0)


def test_implicit_factor_inverse_is_the_lu_inverse_bit_for_bit_on_diagonal_A():
    from scipy.linalg import lu_factor, lu_solve

    rng = np.random.default_rng(8)
    for d in range(1, 65):
        A = np.diag(rng.uniform(0.0, 4.0 * d, d))
        h = float(rng.uniform(0.001, 1.0))
        eye = np.eye(d)
        inv = ImplicitFactor(A, h).inverse()
        assert np.array_equal(inv, lu_solve(lu_factor(eye + h * A), eye))
        # solve multiplies by the transpose, which Fortran order makes C-contiguous
        assert inv.T.flags.c_contiguous


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

    class ZeroBundle(PathBundle):
        def increments(self, n, out=None):
            return np.zeros((3, 2))

    x0 = np.array([1.0, 1.0])
    end = simulate(sys, exact_coefficients(sys), x0, cfg, ZeroBundle(4, 3, 4, 2, cfg.h))
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


@pytest.mark.parametrize(
    "run",
    [
        lambda sys, x0, cfg, b: simulate(sys, exact_coefficients(sys), x0, cfg, b),
        lambda sys, x0, cfg, b: coupled_gap_check(sys, exact_coefficients(sys), x0, cfg, b),
        lambda sys, x0, cfg, b: moment_check(sys, x0, cfg, b),
    ],
)
def test_scheme_refuses_a_bundle_of_another_step_size(run):
    # increments of variance 100 on a grid of step 1/8 would run without error
    rec = make_ou(2, decay=0.5, noise=0.3)
    with pytest.raises(ValueError, match="step size"):
        run(rec.system, np.ones(2), EulerConfig(1.0, 8), PathBundle(1, 16, 8, 2, 100.0))


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
        cases.append((rec, coefficients_from_nets(rec.mu_net, rec.sigma_col_nets, lambda t: extra)))
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

    def counted(self, n, out=None):
        draws.append(n)
        return increments(self, n, out)

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


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("m, d, count", [(1, 1, 3 * _WINDOW + 1), (7, 3, 5), (64, 8, 4 * _WINDOW)])
def test_stream_is_increments_bit_for_bit(threads, m, d, count):
    bundle = PathBundle(11, m, count, d, 0.01)
    before = threading.active_count()
    alive = []
    with drawing_threads(threads):
        for n, block in enumerate(bundle.stream(count)):
            alive.append(threading.active_count())
            assert block.shape == (m, d)
            assert block.tobytes() == bundle.increments(n).tobytes()
    assert n == count - 1
    # a long stream draws on workers, no more than the window holds; a short
    # or inline one starts none
    if threads > 1 and count > _WINDOW:
        assert before < max(alive) <= before + min(threads, _WINDOW)
    else:
        assert max(alive) == before


def test_stream_keeps_order_and_bits_under_fast_thread_switching():
    bundle = PathBundle(16, 32, 8 * _WINDOW, 4, 0.01)
    switch = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        with drawing_threads(8):
            got = [block.tobytes() for block in bundle.stream(8 * _WINDOW)]
    finally:
        setswitchinterval(switch)
    assert got == [bundle.increments(n).tobytes() for n in range(8 * _WINDOW)]


def test_stream_out_buffer_gives_the_same_bits():
    bundle = PathBundle(12, 2048, 4, 8, 0.25)
    out = np.empty((2048, 8))
    assert bundle.increments(3, out=out) is out
    assert out.tobytes() == bundle.increments(3).tobytes()


@pytest.mark.parametrize("k", [0, 1, _WINDOW + 3])
def test_closed_stream_leaves_no_live_thread(k):
    before = threading.active_count()
    with drawing_threads(2):
        stream = PathBundle(13, 16, 4 * _WINDOW, 2, 0.1).stream(4 * _WINDOW)
        for _ in range(k):
            next(stream)
        assert (threading.active_count() > before) == (k > 0)
        stream.close()
    assert threading.active_count() == before


def test_stream_raises_the_drawing_error_without_hanging():
    bad = 2 * _WINDOW + 1

    class Faulty(PathBundle):
        def increments(self, n, out=None):
            if n == bad:
                raise ZeroDivisionError("block %d" % n)
            return super().increments(n, out)

    before = threading.active_count()
    got = []
    with drawing_threads(2), pytest.raises(ZeroDivisionError, match="block %d" % bad):
        for block in Faulty(14, 8, 4 * _WINDOW, 2, 0.1).stream(4 * _WINDOW):
            got.append(block)
    assert len(got) <= bad
    assert threading.active_count() == before


def test_stream_past_the_last_step_raises():
    bundle = PathBundle(15, 4, 2 * _WINDOW, 2, 0.1)
    for threads in (1, 2):
        with drawing_threads(threads), pytest.raises(IndexError):
            list(bundle.stream(2 * _WINDOW + 1))


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


def _synth_benchmark_ou():
    # the shape of the benchmark's synth study: d = 16, diagonal decay 0.5,
    # constant noise 0.1, 256 points at horizon 1
    d = 16
    xs = np.random.default_rng(3).normal(size=(256, d))
    return 0.5 * np.eye(d), 0.1 * np.eye(d), np.linspace(0.5, 2.0, d), xs, 1.0


def _nonsymmetric_batch():
    A, sigma0, T = _nonsymmetric_ou()
    xs = np.random.default_rng(3).normal(size=(20, 3))
    return A, sigma0, np.array([1.0, 0.5, 2.0]), xs, T


def test_ou_exact_value_batch_equals_single_points(monkeypatch):
    import stiffnet.sde as sde

    exps = []
    expm = sde._expm

    def counted(*args, **kwargs):
        exps.append(1)
        return expm(*args, **kwargs)

    for case in (_nonsymmetric_batch, _synth_benchmark_ou):
        A, sigma0, betaw, xs, T = case()
        # the reference: one matrix-vector product and one dot per point
        decay, var = sde._expm(-T * A), _variances(A, sigma0, T)
        loop = [float(betaw @ ((decay @ x) ** 2 + var)) for x in xs]
        singles = [ou_exact_value(A, sigma0, betaw, x, T) for x in xs]
        monkeypatch.setattr(sde, "_expm", counted)
        exps.clear()
        batch = ou_exact_value(A, sigma0, betaw, xs, T)
        monkeypatch.undo()
        assert batch.shape == (len(xs),)
        assert singles == loop, case.__name__
        assert np.array_equal(batch, loop), case.__name__
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


@pytest.mark.parametrize("n_list", [[8.5, 16], [True, 8], [8, np.bool_(True)], [float("inf")], ["8"]])
def test_reference_steps_refuses_fractions_and_bools(n_list):
    with pytest.raises(ValueError, match="integers"):
        reference_steps(n_list)


@pytest.mark.parametrize("n_list", [[8, 8], [8, 8, 16], [16, 8, 16.0]])
def test_reference_steps_refuses_repeated_counts(n_list):
    # a repeated N would weigh one point twice in the rate fit
    with pytest.raises(ValueError, match="distinct"):
        reference_steps(n_list)


def test_reference_steps_takes_integral_counts():
    assert reference_steps([8, 16.0, np.int64(4)]) == 1024


def test_cli_import_leaves_out_quadrature():
    import os
    import subprocess
    import sys

    import stiffnet

    src = os.path.dirname(os.path.dirname(os.path.abspath(stiffnet.__file__)))
    # no scipy module at all: the matrix exponential and realize are numpy's
    code = (
        "import sys, stiffnet.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert out.strip() == "[]"


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
    for threads in (1, 2):
        draws.clear()
        with drawing_threads(threads):
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
        # inline, blocks are drawn in step order; workers draw them side by side
        assert (draws if threads == 1 else sorted(draws)) == list(range(64 * 16))


def test_rate_study_rows_do_not_depend_on_the_thread_count():
    rec = make_ou(3, decay=0.5, noise=0.4, sigma_kind="diag")
    studies = []
    for threads in (1, 2):
        with drawing_threads(threads):
            studies.append(
                rate_study(
                    rec.system,
                    exact_coefficients(rec.system),
                    _strong_cost(3),
                    np.ones(3),
                    [4, 8, 16],
                    1.0,
                    5,
                    32,
                )
            )
    assert studies[0] == studies[1]


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
    for threads in (1, 2):
        draws.clear()
        with drawing_threads(threads):
            coupled_gap_check(rec.system, coeffs, np.ones(2), cfg, bundle)
        assert (draws if threads == 1 else sorted(draws)) == list(range(32))


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
