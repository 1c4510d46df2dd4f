"""Stiff SDE model and linear-implicit Euler machinery.

The systems treated here have the form

    dY_t = (-A Y_t + mu(t, Y_t)) dt + sigma(t, Y_t) dB_t,

where A captures the stiff linear part (positive semidefinite inner
product, operator norm polynomial in d) and (mu, sigma) satisfy a one-sided
monotonicity condition with constants (beta, eta).  The scheme is implicit
only in the linear term:

    (I + hA) Y_{n+1} = Y_n + h mu(t_n, Y_n) + sigma(t_n, Y_n) dB_{n+1},

with the initial state projected once through (I + hA)^{-1}.  That inverse
is formed once per step size (ImplicitFactor) and is the scheme's one
implicit operator: the simulator multiplies by it on every step, and the
unrolled networks fold the same matrix into their layers.  Running the
scheme with network-realized coefficients at sup-distance gamma from the
exact ones is the "perturbed" variant; gamma = 0 recovers the exact scheme.

Brownian increments come from a counter-based generator so the increment of
path m at step n is a pure function of (seed, m, n): step n draws a block
keyed by (seed, n) and path m reads row m.  Path sets are therefore
identical no matter how work is scheduled, which lets PathBundle.stream
draw the blocks of a long run on worker threads ahead of the scheme.
"""

import collections
import contextlib
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import numpy.random  # numpy loads it on first use; load it before any study

__all__ = [
    "StiffSystem",
    "EulerConfig",
    "PathBundle",
    "drawing_threads",
    "PerturbedCoefficients",
    "exact_coefficients",
    "ValidationReport",
    "validate_system",
    "ImplicitFactor",
    "step_pes",
    "simulate",
    "ou_exact_value",
    "alpha_p",
    "alpha_one",
    "moment_bound",
    "discrete_moment_bound",
    "gap_bound",
    "step_floor",
    "reference_steps",
    "rate_study",
    "coupled_gap_check",
    "moment_check",
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class StiffSystem:
    """SDE data plus the constants the error analysis runs on.

    The scheme uses the diffusion only through its product with a Brownian
    increment, so the system carries mu(t, x) and noise(t, x, db) =
    sigma(t, x) db.  Both vectorize over leading axes: x and db of shape
    (..., d) yield (..., d), and t is a scalar or an array that broadcasts
    against x[..., :1].
    """

    d: int
    A: np.ndarray
    mu: Callable
    noise: Callable
    beta: float
    eta: float
    mu_l0: float = 0.0
    mu_l1: float = 0.0
    sigma_l0: float = 0.0
    sigma_l1: float = 0.0
    kappa0: float = 1.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        if A.shape != (self.d, self.d):
            raise ValueError("A must be d x d")
        object.__setattr__(self, "A", A)
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        op = np.linalg.norm(A, 2)
        cap = self.kappa0 * self.d**self.kappa0
        if op > cap * (1.0 + 1e-12):
            raise ValueError(
                "operator norm %.6g exceeds declared kappa0 d^kappa0 = %.6g"
                % (op, cap)
            )


@dataclass(frozen=True)
class EulerConfig:
    horizon: float
    steps: int

    @property
    def h(self):
        return self.horizon / self.steps

    def grid(self):
        return np.linspace(0.0, self.horizon, self.steps + 1)


def step_floor(horizon, beta, eta):
    """Minimal step count for the scheme's stability and rate guarantees."""
    r = 2.0 ** (1.0 / horizon)
    return horizon * max((2.0 * beta + r) / (r - 1.0), 1.0 / eta, 2.0 * eta, 2.0 / eta)


# look-ahead of PathBundle.stream: blocks in the workers' hands beyond the
# chunk the consumer holds, handed out _CHUNK at a time, so at most
# _WINDOW // _CHUNK workers are ever busy and no more are started
_WINDOW = 16
_CHUNK = 4
_threads = None  # set by drawing_threads; None means the CPUs this process may use


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@contextlib.contextmanager
def drawing_threads(threads):
    """Within the block, streams draw on `threads` threads (1 draws inline).

    None, and the default outside any such block, is the number of CPUs
    this process may use.
    """
    global _threads
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    saved, _threads = _threads, threads
    try:
        yield
    finally:
        _threads = saved


class PathBundle:
    """Seeded Brownian increments for M paths and N steps of size h.

    increments(n) returns the (M, d) block for step n; the value in row m
    is a pure function of (seed, m, n, d), independent of M, N and of call
    order, because each step has its own counter-based stream.
    """

    def __init__(self, seed, n_paths, n_steps, d, h):
        self.seed = int(seed)
        self.n_paths = int(n_paths)
        self.n_steps = int(n_steps)
        self.d = int(d)
        self.h = float(h)

    def increments(self, n, out=None):
        """Step n's (M, d) block, written into `out` when one is given."""
        if not 0 <= n < self.n_steps:
            raise IndexError("step %d out of range" % n)
        key = np.array([self.seed, n], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        block = rng.standard_normal((self.n_paths, self.d), out=out)
        return np.multiply(block, np.sqrt(self.h), out=block)

    def stream(self, count):
        """Yield the blocks of steps 0..count-1 in step order.

        Each block is bit for bit increments(n).  With more than one
        drawing thread (see drawing_threads), workers draw up to _WINDOW
        blocks ahead of the consumer, _CHUNK blocks per task, into arrays
        allocated here in the consuming thread; a stream that fits in the
        window is drawn inline.  Closing the stream stops its workers, and
        an error raised while drawing reaches the consumer.
        """
        threads = _threads or _usable_cpus()
        workers = min(threads, _WINDOW // _CHUNK)
        if workers < 2 or count <= _WINDOW:
            for n in range(count):
                yield self.increments(n)
            return
        pool = ThreadPoolExecutor(workers, thread_name_prefix="stiffnet-noise")
        pending = collections.deque()

        def submit(start):
            stop = min(start + _CHUNK, count)
            blocks = [np.empty((self.n_paths, self.d)) for _ in range(start, stop)]
            pending.append((pool.submit(self._fill, start, blocks), blocks))

        try:
            for start in range(0, _WINDOW, _CHUNK):
                submit(start)
            ahead = _WINDOW
            while pending:
                future, blocks = pending.popleft()
                future.result()
                if ahead < count:
                    submit(ahead)
                    ahead += _CHUNK
                yield from blocks
        finally:
            pool.shutdown(cancel_futures=True)

    def _fill(self, start, blocks):
        for n, out in enumerate(blocks, start):
            self.increments(n, out=out)


@dataclass(frozen=True)
class PerturbedCoefficients:
    """Drift and noise callables together with their sup-norm defect gamma."""

    mu: Callable
    noise: Callable
    gamma: float = 0.0


def exact_coefficients(sys):
    return PerturbedCoefficients(mu=sys.mu, noise=sys.noise, gamma=0.0)


@dataclass
class ValidationReport:
    passed: bool
    worst_margin: float
    worst_witness: Optional[tuple] = None
    checks: dict = field(default_factory=dict)


# validate_system's sample: times uniform on [0, horizon], states N(0, scale^2)
_VALIDATE_TRIALS = 1000
_VALIDATE_HORIZON = 1.0
_VALIDATE_SEED = 0
_VALIDATE_SCALE = 2.0


def _dot(a, b):
    """Row-wise dot products of two (n, d) arrays, each a BLAS dot like a @ b."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def validate_system(sys):
    """Spot-check the monotonicity and regularity hypotheses by sampling.

    Draws random (t, x, y) and checks
      <x-y, dmu> + eta|dmu|^2 + (1+eta)/2 |dsigma|_F^2
        <= beta |x-y|^2 + <x-y, A(x-y)>,
    plus the declared Lipschitz/displacement seminorms and <x, Ax> >= 0.
    Returns the worst margin (min of rhs - lhs); any negative margin beyond
    round-off fails the report with a witness triple.  All trials go through
    mu and noise as one batch, t as a (trials, 1) column; the Frobenius
    norms take one noise call per unit vector e_j, so no (trials, d, d)
    array is built.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(_VALIDATE_SEED)))
    ts = rng.uniform(0.0, _VALIDATE_HORIZON, (_VALIDATE_TRIALS, 1))
    xs = rng.normal(0.0, _VALIDATE_SCALE, (_VALIDATE_TRIALS, sys.d))
    ys = rng.normal(0.0, _VALIDATE_SCALE, (_VALIDATE_TRIALS, sys.d))
    t0, zero = ts[:64], np.zeros((64, sys.d))  # displacement probes

    dmu = sys.mu(ts, xs) - sys.mu(ts, ys)
    ds2 = np.zeros(len(ts))  # |sigma(t, x) - sigma(t, y)|_F^2 per trial
    s02 = np.zeros(len(t0))  # |sigma(t, 0)|_F^2 per probe
    for e in np.eye(sys.d):
        db = np.broadcast_to(e, xs.shape)  # sigma(t, .) e_j for every trial
        ds = sys.noise(ts, xs, db) - sys.noise(ts, ys, db)
        ds2 += _dot(ds, ds)
        s0 = sys.noise(t0, zero, db[:64])
        s02 += _dot(s0, s0)
    diff = xs - ys
    lhs = _dot(diff, dmu) + _dot(sys.eta * dmu, dmu) + 0.5 * (1.0 + sys.eta) * ds2
    margins = _dot(sys.beta * diff, diff) + _dot(diff, diff @ sys.A.T) - lhs
    k = int(np.argmin(margins))
    worst = float(margins[k])

    # regularity: spatial increments bounded by the declared seminorms
    dn = np.sqrt(_dot(diff, diff))
    lip_ok = bool(
        np.all(np.sqrt(_dot(dmu, dmu)) <= sys.mu_l1 * dn * (1 + 1e-9) + 1e-12)
        and np.all(np.sqrt(ds2) <= sys.sigma_l1 * dn * (1 + 1e-9) + 1e-12)
    )
    disp_mu = float(np.max(np.linalg.norm(sys.mu(t0, zero), axis=1)))
    disp_sigma = float(np.sqrt(np.max(s02)))
    x = xs[:100]  # quadratic-form probes
    psd_ok = bool(np.all(_dot(x, x @ sys.A.T) >= -1e-10 * _dot(x, x)))

    tol = -1e-9 * max(1.0, abs(worst))
    checks = {
        "monotonicity_worst_margin": worst,
        "psd_quadratic_form": psd_ok,
        "lipschitz_within_seminorms": lip_ok,
        "mu_displacement": disp_mu,
        "mu_displacement_bound": sys.mu_l0,
        "sigma_displacement": disp_sigma,
        "sigma_displacement_bound": sys.sigma_l0,
    }
    passed = (
        worst >= tol
        and psd_ok
        and lip_ok
        and disp_mu <= sys.mu_l0 * (1 + 1e-9) + 1e-12
        and disp_sigma <= sys.sigma_l0 * (1 + 1e-9) + 1e-12
    )
    witness = None if passed else (float(ts[k, 0]), xs[k].copy(), ys[k].copy())
    return ValidationReport(passed, worst, witness, checks)


class ImplicitFactor:
    """The explicit inverse (I + hA)^{-1}, formed once per step size h.

    It is the one implicit operator of the scheme: the simulator applies it
    on every step and the unrolled networks fold the same matrix into their
    layers.  A singular I + hA (A fails <x, Ax> >= 0) raises LinAlgError.
    """

    def __init__(self, A, h):
        A = np.asarray(A, dtype=np.float64)
        self.h = float(h)
        # Fortran order makes the transpose that solve multiplies by C-contiguous
        self._inv = np.asfortranarray(np.linalg.inv(np.eye(len(A)) + self.h * A))
        if not np.all(np.isfinite(self._inv)):
            raise np.linalg.LinAlgError("I + hA is singular; <x, Ax> >= 0 cannot hold")

    def solve(self, r):
        """(I + hA)^{-1} r along the last axis of a vector, (M, d) or (P, M, d)."""
        return np.asarray(r, dtype=np.float64) @ self._inv.T

    def inverse(self):
        """Explicit (I + hA)^{-1}, for folding into network layers."""
        return self._inv


def step_pes(factor, coeffs, y, t_n, db):
    """One scheme step: (I+hA)^{-1}(y + h mu(t,y) + sigma(t,y) db)."""
    h = factor.h
    drift = np.asarray(coeffs.mu(t_n, y), dtype=np.float64)
    out = factor.solve(y + h * drift + coeffs.noise(t_n, y, db))
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("scheme state became nonfinite (blow-up)")
    return out


def _blocks(bundle, cfg):
    """The bundle's stream of cfg.steps blocks, once the bundle is checked against cfg."""
    if bundle.n_steps < cfg.steps:
        raise ValueError("bundle has fewer steps than the configuration")
    if bundle.h != cfg.h:
        raise ValueError(
            "bundle step size %r differs from the configuration's %r" % (bundle.h, cfg.h)
        )
    return bundle.stream(cfg.steps)


def _trajectory(sys, coeffs, x0, cfg, n_paths, noise):
    """Yield the (..., M, d) scheme state at steps 0, 1, ... (0 = after the projection).

    x0 is one start point (d,) or a batch (P, d); every start point steps
    on the M = n_paths paths.  `noise` yields step n's (M, d) block, and
    the run takes one step per block it yields.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim not in (1, 2) or x0.shape[-1] != sys.d:
        raise ValueError("x0 has wrong dimension")
    factor = ImplicitFactor(sys.A, cfg.h)
    start = np.broadcast_to(x0[..., None, :], x0.shape[:-1] + (n_paths, sys.d))
    y = factor.solve(start.copy())
    yield y
    grid = cfg.grid()
    for n, db in enumerate(noise):
        y = step_pes(factor, coeffs, y, grid[n], db)
        yield y


def simulate(sys, coeffs, x0, cfg, bundle):
    """Run the scheme for all paths in the bundle.

    A start point x0 of shape (d,) gives (M, d) endpoints; a batch (P, d)
    gives (P, M, d), row [p, m] driven by path m's noise.
    """
    for y in _trajectory(sys, coeffs, x0, cfg, bundle.n_paths, _blocks(bundle, cfg)):
        pass
    return y


def _expm(a):
    """exp(a) of a square matrix.

    A diagonal matrix gives np.exp of its diagonal.  Otherwise the Taylor
    polynomial of degree 16 is summed by Horner's rule on a / 2^s, where
    |a / 2^s|_1 < 1/2, and squared s times; the truncation error is below
    2^-17 / 17! < 1e-19 of the scaled exponential.
    """
    a = np.asarray(a, dtype=np.float64)
    diag = np.diag(a)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        return np.diag(np.exp(diag))
    squarings = max(0, int(np.frexp(np.linalg.norm(a, 1))[1]) + 1)
    a = a / 2.0**squarings
    eye = np.eye(len(a))
    out = eye
    for k in range(16, 0, -1):
        out = eye + (a @ out) / k
    for _ in range(squarings):
        out = out @ out
    return out


def ou_exact_value(A, sigma0, betaw, x0, horizon):
    """E sum_m beta_m (Y_m)^2 at time T for dY = -AY dt + sigma0 dB.

    Mean is exp(-TA) x0.  The covariance C(T) = int_0^T exp(-sA) Q
    exp(-sA^T) ds, Q = sigma0 sigma0^T, is exp(-hA) times the upper-right
    block of exp(h [[A, Q], [0, -A^T]]) (Van Loan 1978) on a step
    h = T / 2^k with |A|_1 h <= 1, and then k doublings
    C(2h) = C(h) + exp(-hA) C(h) exp(-hA^T).  No factor holds exp(+TA), so
    stiff A does not overflow, and singular A stays in closed form.  A start
    point x0 of shape (d,) gives a float, a batch (P, d) a (P,) array.
    """
    A = np.asarray(A, dtype=np.float64)
    sigma0 = np.asarray(sigma0, dtype=np.float64)
    betaw = np.asarray(betaw, dtype=np.float64).reshape(-1)
    x0 = np.asarray(x0, dtype=np.float64)
    d = len(A)
    decay = _expm(-horizon * A)
    k = int(np.ceil(np.log2(max(horizon * np.linalg.norm(A, 1), 1.0))))
    block = np.block([[A, sigma0 @ sigma0.T], [np.zeros((d, d)), -A.T]])
    F = _expm(horizon / 2**k * block)
    step = F[d:, d:].T  # exp(-hA)
    cov = step @ F[:d, d:]
    for _ in range(k):
        cov = cov + step @ cov @ step.T
        step = step @ step
    # one BLAS product per point, as decay @ x and betaw @ m give, so a batch
    # has each point's bits (a gemm over the batch would not)
    mean = np.matmul(decay, x0.reshape(-1, d, 1))[:, :, 0]
    m2 = mean**2 + np.diag(cov)
    values = _dot(np.broadcast_to(betaw, m2.shape), m2)
    return values if x0.ndim == 2 else float(values[0])


def alpha_p(sys, p):
    """Explicit moment constant for exponents p in [2, 2+eta)."""
    eta = sys.eta
    if not 2.0 <= p < 2.0 + eta:
        raise ValueError("p must lie in [2, 2+eta)")
    gap = eta + 2.0 - p
    return (0.5 + eta * (p - 2.0) / gap) * sys.mu_l0**2 + (
        (1.0 + eta) * (p - 1.0) / (2.0 * gap)
    ) * sys.sigma_l0**2


def alpha_one(sys):
    return (1.0 + sys.eta) ** 2 * (sys.mu_l0**2 + sys.sigma_l0**2) / sys.eta


def moment_bound(sys, x0, horizon, p):
    x0n = float(np.linalg.norm(x0))
    return (
        2.0 ** ((p - 2.0) / 2.0)
        * (alpha_p(sys, p) + x0n**p)
        * np.exp(p * (sys.beta + 0.5) * horizon)
    )


def discrete_moment_bound(sys, x0, horizon):
    x0n2 = float(np.dot(x0, x0))
    return 3.0 * np.exp((2.0 * sys.beta + 1.0) * horizon) * (
        x0n2 + alpha_one(sys) * horizon
    )


def gap_bound(sys, horizon, gamma):
    return (
        np.exp((2.0 * sys.beta + 1.0) * horizon)
        * horizon
        * (1.0 + sys.eta)
        * gamma**2
        / sys.eta
    )


def fit_loglog_slope(hs, errors, magnitude=1.0):
    """Least-squares slope of log error vs log h.

    The coarsest point is discarded when its error exceeds half the state
    magnitude (pre-asymptotic regime guard).  Points with zero error are
    excluded; if fewer than two points remain the slope is NaN.
    """
    hs = np.asarray(hs, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    order = np.argsort(hs)
    hs, errors = hs[order], errors[order]
    if errors[-1] > 0.5 * magnitude and len(hs) > 2:
        hs, errors = hs[:-1], errors[:-1]
    mask = errors > 0.0
    if mask.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(hs[mask]), np.log(errors[mask]), 1)[0]
    return float(slope)


_REF_REFINE = 64


class _GridMax:
    """Running max over grid times of E|.|^2, with the MC stderr at the max."""

    def __init__(self):
        self.value = 0.0
        self.stderr = 0.0

    def fold(self, sq):
        mean_sq = float(np.mean(sq))
        if mean_sq > self.value:
            self.value = mean_sq
            self.stderr = float(np.std(sq) / np.sqrt(len(sq)))


def _step_count(n):
    """int(n) for an integral n; ValueError for a bool or a fraction."""
    try:
        integral = not isinstance(n, (bool, np.bool_)) and int(n) == n
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError("step counts must be integers, got %r" % (n,))
    return int(n)


def reference_steps(n_list):
    """Fine step count 64 max(n_list); every N must divide it, and none may repeat."""
    n_list = [_step_count(n) for n in n_list]
    if not n_list or min(n_list) <= 0 or len(set(n_list)) < len(n_list):
        raise ValueError("n_list must be a non-empty list of distinct positive step counts")
    n_ref = _REF_REFINE * max(n_list)
    bad = [n for n in n_list if n_ref % n]
    if bad:
        raise ValueError(
            "step counts %s do not divide the reference grid of %d steps" % (bad, n_ref)
        )
    return n_ref


def _summed_into(blocks, strides, accs):
    """Yield the fine blocks, each first summed into every coarse increment.

    Fine block j starts coarse increment k afresh when stride k divides j
    and is added to it otherwise.
    """
    for j, db in enumerate(blocks):
        for stride, acc in zip(strides, accs):
            if j % stride == 0:
                np.copyto(acc, db)
            else:
                np.add(acc, db, out=acc)
        yield db


def rate_study(sys, coeffs, cost, x0, n_list, horizon, seed, n_paths, oracle=None):
    """Strong and weak error vs step size against a 64x-refined same-noise run.

    One pass walks the fine grid: each fine Brownian block is drawn once,
    summed into every coarse scheme's increment and then steps the
    exact-coefficient reference, so all runs share one Brownian path per
    sample.  A coarse scheme steps on its summed increment when the
    reference reaches its next grid point.  The strong error per N is max
    over grid times of (E |Y_N - Y_ref|^2)^(1/2); the weak error is
    |E f~_D(Y_N(T)) - oracle|, where `cost` exposes the exact f and the net
    realization f_tilde.  Without a closed-form oracle, the oracle is the
    mean of the untruncated f over the reference endpoints.
    """
    n_ref = reference_steps(n_list)
    n_list = sorted(int(n) for n in n_list)
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    strides = [n_ref // n for n in n_list]
    accs = [np.empty((n_paths, sys.d)) for _ in n_list]
    runs = [
        _trajectory(sys, coeffs, x0, EulerConfig(horizon, n), n_paths, itertools.repeat(acc))
        for n, acc in zip(n_list, accs)
    ]
    errs = [_GridMax() for _ in n_list]
    ends = [None] * len(n_list)
    ref_cfg = EulerConfig(horizon, n_ref)
    fine = PathBundle(seed, n_paths, n_ref, sys.d, ref_cfg.h)
    ref_coeffs = exact_coefficients(sys)
    # no local holds the reference run or its noise, so an error raised in
    # the loop closes them and the stream stops its workers
    for j, y_ref in enumerate(
        _trajectory(
            sys, ref_coeffs, x0, ref_cfg, n_paths, _summed_into(_blocks(fine, ref_cfg), strides, accs)
        )
    ):
        for k, stride in enumerate(strides):
            if j % stride == 0:
                ends[k] = next(runs[k])
                errs[k].fold(np.sum((ends[k] - y_ref) ** 2, axis=1))

    magnitude = float(np.sqrt(np.mean(y_ref**2) * sys.d))
    if oracle is None:
        oracle = float(np.mean(cost.f(y_ref)))
    rows = []
    for n, grid_max, end in zip(n_list, errs, ends):
        err = np.sqrt(grid_max.value)
        if grid_max.value == 0.0:
            stderr = 0.0
        else:
            stderr = grid_max.stderr / (2.0 * max(err, 1e-300))
        vals = cost.f_tilde(end)
        rows.append(
            {
                "N": n,
                "h": horizon / n,
                "strong_err": err,
                "stderr": stderr,
                "weak_err": abs(float(np.mean(vals)) - oracle),
                "weak_stderr": float(np.std(vals) / np.sqrt(len(vals))),
            }
        )
    hs = [r["h"] for r in rows]
    return {
        "rows": rows,
        "strong_slope": fit_loglog_slope(hs, [r["strong_err"] for r in rows], magnitude),
        "weak_slope": fit_loglog_slope(hs, [r["weak_err"] for r in rows]),
    }


def coupled_gap_check(sys, coeffs, x0, cfg, bundle):
    """Exact-vs-perturbed scheme gap on shared noise, with its bound.

    Reports max over grid times of E |Y_n - Y~_n|^2, the closed-form bound
    exp((2 beta + 1) T) T (1+eta) gamma^2 / eta, and the MC stderr at the
    maximizing time.
    """
    gap = _GridMax()
    # the two runs share each block, drawn once
    noise = itertools.tee(_blocks(bundle, cfg))
    exact = _trajectory(sys, exact_coefficients(sys), x0, cfg, bundle.n_paths, noise[0])
    perturbed = _trajectory(sys, coeffs, x0, cfg, bundle.n_paths, noise[1])
    for y, y_pert in zip(exact, perturbed):
        gap.fold(np.sum((y - y_pert) ** 2, axis=1))
    return {
        "gap": gap.value,
        "stderr": gap.stderr,
        "bound": gap_bound(sys, cfg.horizon, coeffs.gamma),
        "gamma": coeffs.gamma,
    }


def moment_check(sys, x0, cfg, bundle, p=2.0):
    """One-sided MC checks of the explicit moment estimates.

    Continuous-time bound at T (via the fine scheme as proxy), the discrete
    max-over-grid second-moment bound, and a two-chain one-step stability
    probe.  Each estimate must sit below bound + 3 stderr.
    """
    second = _GridMax()
    for end in _trajectory(
        sys, exact_coefficients(sys), x0, cfg, bundle.n_paths, _blocks(bundle, cfg)
    ):
        second.fold(np.sum(end**2, axis=1))
    bound2 = float(discrete_moment_bound(sys, x0, cfg.horizon))

    norms_p = np.sum(end**2, axis=1) ** (p / 2.0)
    est_p = float(np.mean(norms_p))
    se_p = float(np.std(norms_p) / np.sqrt(len(norms_p)))
    bound_p = float(moment_bound(sys, x0, cfg.horizon, p))

    # one-step stability: for h <= 2 eta two coupled chains satisfy
    #   E[|dz|^2 + 2h <dz, A dz>] <= E[(1+2 beta h)|dy|^2 + 2h <dy, A dy>]
    stable_ok = True
    if cfg.h <= 2.0 * sys.eta:
        factor = ImplicitFactor(sys.A, cfg.h)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(bundle.seed ^ 0x5A17)))
        y1 = rng.normal(0.0, 1.0, (bundle.n_paths, sys.d))
        y2 = rng.normal(0.0, 1.0, (bundle.n_paths, sys.d))
        db = bundle.increments(0)
        z1 = step_pes(factor, exact_coefficients(sys), y1, 0.0, db)
        z2 = step_pes(factor, exact_coefficients(sys), y2, 0.0, db)
        zd = z1 - z2
        yd = y1 - y2
        lhs = np.sum(zd**2, axis=1) + 2.0 * cfg.h * np.einsum(
            "ij,ij->i", zd, zd @ sys.A.T
        )
        rhs = (1.0 + 2.0 * sys.beta * cfg.h) * np.sum(yd**2, axis=1) + (
            2.0 * cfg.h
        ) * np.einsum("ij,ij->i", yd, yd @ sys.A.T)
        diff = lhs - rhs
        se = float(np.std(diff) / np.sqrt(len(diff)))
        stable_ok = float(np.mean(diff)) <= 3.0 * se + 1e-12

    return {
        "p": p,
        "moment_est": est_p,
        "moment_stderr": se_p,
        "moment_bound": bound_p,
        "moment_ok": est_p <= bound_p + 3.0 * se_p,
        "discrete_est": second.value,
        "discrete_stderr": second.stderr,
        "discrete_bound": bound2,
        "discrete_ok": second.value <= bound2 + 3.0 * second.stderr,
        "one_step_stable": stable_ok,
    }
