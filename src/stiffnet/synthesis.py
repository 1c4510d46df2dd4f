"""Value-function network synthesis.

Pipeline: plan a budget (accuracy targets and discretization/sampling
sizes), fix one Brownian realization, unroll the implicit Euler recursion
into a deep ReLU network per sample path, compose with the truncated cost
network, and Monte-Carlo-average the paths with a single linear
combination.  Because every calculus step is exact, the realization of the
synthesized network equals the direct scheme-plus-cost simulation with the
same seed to floating-point accuracy; `mc_reference` provides that oracle.

Budget planning solves the three inequalities

    d^(6k + max(tau, 2k)) h^(2 eta/(3 eta+4))            <= Cplan eps^2
    delta^2 d^(4k) h^(-(eta+4) k/(3 eta+4))              <= Cplan eps^2
    d^(2k + max(tau/2, 2k)) h^(-(eta+4)/(3 eta+4)) / M   <= Cplan eps^2

for the smallest admissible (N, delta, M), where h = T/N, k is the
coefficient-complexity exponent and tau certifies the sampling measure's
moment growth.  The proportionality constant is not explicit in the
analysis, so Cplan is calibrated empirically (see calibrate_cplan) and then
frozen.
"""

import math
from dataclasses import dataclass

import numpy as np

from .calculus import add_compose, combine, compose, identity_net
from .network import fold_affine, realize
from .sde import (
    EulerConfig,
    ImplicitFactor,
    PathBundle,
    PerturbedCoefficients,
    simulate,
    step_floor,
)
from .systems import make_quadratic_cost

__all__ = [
    "SynthesisBudget",
    "Measure",
    "uniform_cube_measure",
    "truncation_radius",
    "plan_budget",
    "cplan_floor",
    "calibrate_cplan",
    "BudgetError",
    "diffusion_contract_net",
    "coefficients_from_nets",
    "unroll_value_net",
    "unroll_size_bound",
    "mc_reference",
    "l2_error",
]

# guardrail minimums: the inequalities only bound N from below very weakly
# once Cplan is large, but a handful of steps and paths keeps the sampling
# noise of the synthesized estimator well under the target accuracy
MIN_STEPS = 8
MIN_PATHS = 8
MAX_STEPS = 1 << 20
MAX_PATHS = 1 << 20
# calibration measures the d=2 error on this many points, starting from this
# multiple of the step-floor planner constant
CALIBRATION_SAMPLES = 256
CALIBRATION_MARGIN = 2.0


class BudgetError(RuntimeError):
    """Planned budget exceeds the configured desk-scale caps."""


@dataclass(frozen=True)
class SynthesisBudget:
    eps: float
    delta: float
    radius: int  # truncation radius D
    steps: int  # N
    paths: int  # M
    cplan: float
    horizon: float

    @property
    def h(self):
        return self.horizon / self.steps


@dataclass(frozen=True)
class Measure:
    """Sampling measure with a declared moment certificate exponent tau."""

    sampler: object  # callable (rng, n, d) -> (n, d)
    tau: float


def uniform_cube_measure(eta):
    """Uniform measure on [0,1]^d; moment certificate holds with 2+eta/2."""

    def sampler(rng, n, d):
        return rng.uniform(0.0, 1.0, (n, d))

    return Measure(sampler=sampler, tau=2.0 + eta / 2.0)


def truncation_radius(h, eta):
    """D = ceil(h^(-(eta+4)/(6 eta+8)))."""
    return int(math.ceil(h ** (-(eta + 4.0) / (6.0 * eta + 8.0))))


def _next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


def plan_budget(eps, d, eta, kappa, tau, horizon, beta=0.0, cplan=1.0):
    """Smallest admissible budget for target accuracy eps.

    N is the smallest power of two satisfying the first inequality, the
    strong-rate step-count floor, and the MIN_STEPS guardrail; D follows
    from h; delta and M come from the remaining two inequalities (delta
    additionally capped below 1/2 so it is a valid network accuracy).
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if cplan <= 0.0:
        raise ValueError("cplan must be positive")
    budget_sq = cplan * eps * eps
    a1 = 6.0 * kappa + max(tau, 2.0 * kappa)
    a2 = 4.0 * kappa
    a3 = 2.0 * kappa + max(tau / 2.0, 2.0 * kappa)
    p_h = 2.0 * eta / (3.0 * eta + 4.0)
    q_h = (eta + 4.0) / (3.0 * eta + 4.0)

    # inequality 1: d^a1 h^p_h <= budget_sq
    ratio = budget_sq / d**a1
    try:
        h_cap = ratio ** (1.0 / p_h)
    except OverflowError:  # ratio > 1, so no finite horizon makes it bind
        h_cap = math.inf
    n_ineq = math.ceil(horizon / h_cap) if h_cap < horizon else 1
    n_min = max(n_ineq, math.ceil(step_floor(horizon, beta, eta)), MIN_STEPS)
    steps = _next_pow2(n_min)
    if steps > MAX_STEPS:
        raise BudgetError(
            "planned step count %d exceeds the desk-scale cap; "
            "increase cplan or eps" % steps
        )
    h = horizon / steps

    radius = truncation_radius(h, eta)

    # inequality 2: delta^2 d^a2 h^(-q_h kappa) <= budget_sq
    delta = math.sqrt(budget_sq / (d**a2 * h ** (-q_h * kappa)))
    delta = min(delta, 0.49)

    # inequality 3: d^a3 h^(-q_h) / M <= budget_sq
    paths = max(math.ceil(d**a3 * h**(-q_h) / budget_sq), MIN_PATHS)
    if paths > MAX_PATHS:
        raise BudgetError(
            "planned path count %d exceeds the desk-scale cap; "
            "increase cplan or eps" % paths
        )
    return SynthesisBudget(
        eps=float(eps),
        delta=float(delta),
        radius=radius,
        steps=steps,
        paths=paths,
        cplan=float(cplan),
        horizon=float(horizon),
    )


def cplan_floor(eps, d, eta, kappa, tau, horizon, beta=0.0):
    """Smallest Cplan for which the step floor (not inequality 1) binds.

    Useful before a cross-dimensional study: evaluating at the largest d
    keeps the planned N at the floor across the whole sweep.
    """
    a1 = 6.0 * kappa + max(tau, 2.0 * kappa)
    p_h = 2.0 * eta / (3.0 * eta + 4.0)
    n_floor = max(math.ceil(step_floor(horizon, beta, eta)), MIN_STEPS)
    h_floor = horizon / _next_pow2(n_floor)
    # tiny headroom so round-off in the planner's root cannot push the
    # implied step count past the floor's power of two
    return d**a1 * h_floor**p_h / (eps * eps) * (1.0 + 1e-9)


def calibrate_cplan(
    eps,
    recipe_factory,
    cost_factory,
    eta,
    kappa,
    tau,
    horizon,
    seed,
    d_max=16,
):
    """Calibrate the planner constant on a d=2 instance, then freeze it.

    The candidate starts at CALIBRATION_MARGIN times the value that keeps
    inequality 1 slack up to d_max (so subsequent sweeps stay desk-scale)
    and is verified by synthesizing the d=2 value network and measuring its
    L2 error on CALIBRATION_SAMPLES points against the recipe's closed-form
    value; candidates are reduced geometrically until the measured error is
    within eps.
    """
    recipe = recipe_factory(2)
    beta = recipe.system.beta
    cand = CALIBRATION_MARGIN * cplan_floor(
        eps, d_max, eta, kappa, tau, horizon, beta=beta
    )
    measure = uniform_cube_measure(eta)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ 0xCA11)))
    for _ in range(8):
        budget = plan_budget(eps, 2, eta, kappa, tau, horizon, beta=beta, cplan=cand)
        cost = cost_factory(2, budget)
        psi, _ = unroll_value_net(
            recipe.mu_net, recipe.sigma_col_nets, cost.net, recipe.system, budget, seed
        )
        xs = measure.sampler(rng, CALIBRATION_SAMPLES, 2)
        ref = recipe.exact_value(cost.beta_weights, xs, horizon)
        est, _ = l2_error_values(realize(psi, xs)[..., 0], ref)
        if est <= eps:
            return cand
        cand /= 4.0
    raise BudgetError(
        "calibration failed: measured error %.4g above target %.4g" % (est, eps)
    )


def plan_cost(d, budget, kappa, beta_weights=None):
    """Quadratic cost sized to the budget's accuracy slots.

    The cost network's internal accuracy is chosen so its sup defect theta
    stays within the delta-scaled slot delta * kappa d^kappa D^kappa and
    under eps^2/8 (so the cost defect cannot eat the overall target; the
    quadratic allocation keeps the sawtooth stage count strictly increasing
    under each halving of eps at only logarithmic size cost).
    """
    if beta_weights is None:
        beta_weights = np.ones(d)
    beta_weights = np.asarray(beta_weights, dtype=np.float64).reshape(-1)
    bmax = float(np.max(np.abs(beta_weights)))
    radius = budget.radius
    denom = bmax * d * radius * radius
    slot = budget.delta * kappa * d**kappa * radius**kappa / denom
    eps_cost = min(slot, budget.eps * budget.eps / (8.0 * denom), 0.49)
    return make_quadratic_cost(beta_weights, radius, eps_cost)


def diffusion_contract_net(sigma_col_nets, b):
    """Network realizing (t, x) -> sigma(t, x) b for a fixed vector b.

    The product of the matrix with b is the b-weighted sum of the columns,
    so this is a linear combination of the (same-architecture) column
    networks; size <= d^2 C(column).
    """
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if len(b) != len(sigma_col_nets):
        raise ValueError("need one coefficient per column network")
    return combine(b, sigma_col_nets)


def coefficients_from_nets(mu_net, sigma_col_nets, gamma=0.0, extra=None):
    """Drift and noise callables evaluating the coefficient networks.

    The networks take (t, x) (optionally followed by a fixed action vector
    `extra`); the callables take (t, x) with x batched over paths.  The
    noise sum_j col_j(t, x) db_j is summed left to right, the sum
    diffusion_contract_net builds into the unrolled network.
    """

    def augment(t, x):
        x = np.asarray(x, dtype=np.float64)
        cols = [np.full(x.shape[:-1] + (1,), t), x]
        if extra is not None:
            cols.append(np.broadcast_to(extra, x.shape[:-1] + (len(extra),)))
        return np.concatenate(cols, axis=-1)

    def mu(t, x):
        return realize(mu_net, augment(t, x))

    def noise(t, x, db):
        z = augment(t, x)
        return sum(realize(net, z) * db[..., j, None] for j, net in enumerate(sigma_col_nets))

    return PerturbedCoefficients(mu=mu, noise=noise, gamma=gamma)


def _as_branch(coeff_net, d, out_scale=None):
    """Reorder a coefficient net's (t, x[, u]) input to (x, t[, u]).

    The unrolling binds everything after the state to constants, so the
    time (and action) columns are moved behind the state block; optionally
    the output is rescaled (used for the h * drift branch).
    """
    n_in = coeff_net.dim_in
    # input k of the net reads entry order[k] of (x, t[, u])
    order = [d] + list(range(d)) + list(range(d + 1, n_in))
    net = fold_affine(coeff_net, "pre", np.eye(n_in)[order])
    if out_scale is not None:
        net = fold_affine(net, "post", out_scale * np.eye(coeff_net.dim_out))
    return net


def unroll_value_net(
    mu_net,
    sigma_col_nets,
    cost_net,
    sys,
    budget,
    seed,
    action_schedule=None,
    output_shift=0.0,
):
    """Build the single network realizing the fixed-noise MC value estimate.

    Per path: start from the implicit projection of the identity, and for
    each step add-compose the current state network with the (scaled) drift
    branch and the noise-contracted diffusion branch, then post-fold
    (I+hA)^{-1}.  Compose with the cost network, then average the paths
    with one linear combination.

    `action_schedule`, when given, maps a step index to the action vector
    appended to (t_n) as branch constants (the controlled variant).
    `output_shift` is added to the final output bias.

    Returns (network, report); the report carries the size, the conservative
    size bound, and the last-hidden-width audit of every unroll step.
    """
    d = sys.d
    h = budget.h
    n_steps = budget.steps
    n_paths = budget.paths
    bundle = PathBundle(seed, n_paths, n_steps, d, h)
    factor = ImplicitFactor(sys.A, h)
    inv = factor.inverse()

    mu_branch = _as_branch(mu_net, d, out_scale=h)
    expected_width = 2 * d + mu_net.dims[-2] + sum(
        net.dims[-2] for net in sigma_col_nets
    )
    width_ok = True

    blocks = [bundle.increments(n) for n in range(n_steps)]
    path_nets = []
    for m in range(n_paths):
        psi = fold_affine(identity_net(d, 1), "post", inv)
        for n in range(n_steps):
            sigma_branch = _as_branch(
                diffusion_contract_net(sigma_col_nets, blocks[n][m]), d
            )
            u = [n * h]
            if action_schedule is not None:
                u = list(u) + list(action_schedule(n))
            psi = add_compose(psi, [mu_branch, sigma_branch], u)
            if psi.dims[-2] != expected_width:
                width_ok = False
            psi = fold_affine(psi, "post", inv)
        path_nets.append(compose(cost_net, psi))

    psi_all = combine([1.0 / n_paths] * n_paths, path_nets)
    if output_shift:
        psi_all = fold_affine(
            psi_all, "post", np.eye(psi_all.dim_out), np.full(psi_all.dim_out, output_shift)
        )

    bound = unroll_size_bound(
        d, n_steps, n_paths, cost_net.size, [net.size for net in sigma_col_nets]
    )
    report = {
        "size": psi_all.size,
        "size_bound": bound,
        "bound_ok": psi_all.size <= bound,
        "width_condition_ok": width_ok,
    }
    return psi_all, report


def unroll_size_bound(d, n_steps, n_paths, cost_size, sigma_col_sizes):
    """Conservative size bound for the synthesized network.

    M^2 * 2 (C(cost) + C(id_1) + 4 (d * sum C(sigma cols) + C(id_2))^3 (N+1))
    with id_1, id_2 the depth-1 and depth-2 identity networks on R^d.
    """
    id1 = d * d + d
    id2 = 4 * d * d + 3 * d
    inner = id1 + 4 * (d * sum(sigma_col_sizes) + id2) ** 3 * (n_steps + 1)
    return n_paths**2 * 2 * (cost_size + inner)


def mc_reference(sys, coeffs, cost, budget, seed, x):
    """Direct simulation oracle for the synthesized network.

    Runs the scheme once with the same seed convention as unroll_value_net
    and averages the cost network's realization over the endpoint cloud.
    A start point x of shape (d,) gives a float, a batch (P, d) a (P,)
    array.
    """
    bundle = PathBundle(seed, budget.paths, budget.steps, sys.d, budget.h)
    cfg = EulerConfig(budget.horizon, budget.steps)
    end = simulate(sys, coeffs, x, cfg, bundle)
    values = np.mean(cost.f_tilde(end), axis=-1)
    return values if values.ndim else float(values)


def l2_error_values(estimates, references):
    """RMS gap between two value arrays, with a standard error."""
    sq = (np.asarray(estimates) - np.asarray(references)) ** 2
    mean_sq = float(np.mean(sq))
    est = math.sqrt(mean_sq)
    se_mean = float(np.std(sq) / np.sqrt(len(sq)))
    stderr = 0.0 if est == 0.0 else se_mean / (2.0 * est)
    return est, stderr


def l2_error(psi, reference, measure, d, n_samples, seed):
    """L2(nu) distance between the network and a reference value function.

    `reference` maps the (n_samples, d) sample to its reference values.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    xs = measure.sampler(rng, n_samples, d)
    vals = realize(psi, xs)[..., 0]
    return l2_error_values(vals, reference(xs))
