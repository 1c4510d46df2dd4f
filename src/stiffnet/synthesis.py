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
coefficient-complexity exponent and tau certifies the moment growth of the
sampling measure, uniform on [0,1]^d (see cube_tau).  The proportionality
constant is not explicit in the analysis, so Cplan is calibrated
empirically (see calibrate_cplan) and then frozen.
"""

import math
from dataclasses import dataclass

import numpy as np

from .calculus import add_compose, combine, compose, identity_net
from .network import fold_affine, realize, unstack
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
    "cube_tau",
    "truncation_radius",
    "plan_budget",
    "cplan_floor",
    "calibrate_cplan",
    "BudgetError",
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
# calibration measures the error on this many points, starting from this
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


def cube_tau(eta):
    """Moment certificate exponent of the uniform measure on [0,1]^d: 2 + eta/2."""
    return 2.0 + eta / 2.0


def truncation_radius(h, eta):
    """D = ceil(h^(-(eta+4)/(6 eta+8)))."""
    return int(math.ceil(h ** (-(eta + 4.0) / (6.0 * eta + 8.0))))


def _next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


def _inequality_one(eta, kappa, tau, horizon, beta):
    """Exponents (a1, p_h) of inequality 1, d^a1 h^p_h <= budget, and the floor N.

    The floor is the strong-rate step floor or MIN_STEPS, whichever is larger.
    """
    a1 = 6.0 * kappa + max(tau, 2.0 * kappa)
    p_h = 2.0 * eta / (3.0 * eta + 4.0)
    n_floor = max(math.ceil(step_floor(horizon, beta, eta)), MIN_STEPS)
    return a1, p_h, n_floor


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
    a1, p_h, n_floor = _inequality_one(eta, kappa, tau, horizon, beta)
    a2 = 4.0 * kappa
    a3 = 2.0 * kappa + max(tau / 2.0, 2.0 * kappa)
    q_h = (eta + 4.0) / (3.0 * eta + 4.0)

    # inequality 1: d^a1 h^p_h <= budget_sq
    ratio = budget_sq / d**a1
    try:
        h_cap = ratio ** (1.0 / p_h)
    except OverflowError:  # ratio > 1, so no finite horizon makes it bind
        h_cap = math.inf
    n_ineq = math.ceil(horizon / h_cap) if h_cap < horizon else 1
    steps = _next_pow2(max(n_ineq, n_floor))
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
    a1, p_h, n_floor = _inequality_one(eta, kappa, tau, horizon, beta)
    h_floor = horizon / _next_pow2(n_floor)
    # tiny headroom so round-off in the planner's root cannot push the
    # implied step count past the floor's power of two
    return d**a1 * h_floor**p_h / (eps * eps) * (1.0 + 1e-9)


def calibrate_cplan(eps, recipe, eta, kappa, tau, horizon, seed, d_max=16):
    """Calibrate the planner constant on the recipe's instance, then freeze it.

    The candidate starts at CALIBRATION_MARGIN times the value that keeps
    inequality 1 slack up to d_max (so subsequent sweeps stay desk-scale)
    and is verified by synthesizing the recipe's value network, with the
    cost plan_cost sizes, and measuring its L2 error on CALIBRATION_SAMPLES
    points against the recipe's closed-form value; candidates are reduced
    geometrically until the measured error is within eps.
    """
    d = recipe.d
    beta = recipe.system.beta
    cand = CALIBRATION_MARGIN * cplan_floor(
        eps, d_max, eta, kappa, tau, horizon, beta=beta
    )
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ 0xCA11)))
    for _ in range(8):
        budget = plan_budget(eps, d, eta, kappa, tau, horizon, beta=beta, cplan=cand)
        cost = plan_cost(d, budget, kappa)
        psi, _ = unroll_value_net(
            recipe.mu_net, recipe.sigma_col_nets, cost.net, recipe.system, budget, seed
        )
        xs = rng.uniform(0.0, 1.0, (CALIBRATION_SAMPLES, d))
        ref = recipe.exact_value(cost.beta_weights, xs, horizon)
        est, _ = l2_error_values(realize(psi, xs)[..., 0], ref)
        if est <= eps:
            return cand
        cand /= 4.0
    raise BudgetError(
        "calibration failed: measured error %.4g above target %.4g" % (est, eps)
    )


def plan_cost(d, budget, kappa):
    """Unit-weight quadratic cost sum x_m^2 sized to the budget's accuracy slots.

    The cost network's internal accuracy is chosen so its sup defect theta
    stays within the delta-scaled slot delta * kappa d^kappa D^kappa and
    under eps^2/8 (so the cost defect cannot eat the overall target; the
    quadratic allocation keeps the sawtooth stage count strictly increasing
    under each halving of eps at only logarithmic size cost).
    """
    radius = budget.radius
    denom = d * radius * radius
    slot = budget.delta * kappa * d**kappa * radius**kappa / denom
    cap = budget.eps * budget.eps / (8.0 * denom)
    if not cap > 0.0:
        raise ValueError(
            "eps %r is too small: the cost accuracy eps^2/(8 d D^2) is 0" % budget.eps
        )
    eps_cost = min(slot, cap, 0.49)
    return make_quadratic_cost(np.ones(d), radius, eps_cost)


def coefficients_from_nets(mu_net, sigma_col_nets, action=None):
    """Drift and noise callables evaluating the coefficient networks.

    The networks take (t, x), followed by the actions `action(t)` when
    `action` is given; the callables take (t, x) with x batched over
    paths.  The actions broadcast against x: one (m,) vector for every
    path, or an array such as (P, 1, m) with one row per start point of an
    x of shape (P, M, d).  The noise sum_j col_j(t, x) db_j is summed left
    to right.
    """

    def augment(t, x):
        x = np.asarray(x, dtype=np.float64)
        cols = [np.full(x.shape[:-1] + (1,), t), x]
        if action is not None:
            u = np.asarray(action(t), dtype=np.float64)
            cols.append(np.broadcast_to(u, x.shape[:-1] + u.shape[-1:]))
        return np.concatenate(cols, axis=-1)

    def mu(t, x):
        return realize(mu_net, augment(t, x))

    def noise(t, x, db):
        z = augment(t, x)
        return sum(realize(net, z) * db[..., j, None] for j, net in enumerate(sigma_col_nets))

    return PerturbedCoefficients(mu=mu, noise=noise)


def _as_branch(coeff_net, d):
    """Reorder a coefficient net's (t, x[, u]) input to (x, t[, u]).

    The unrolling binds everything after the state to constants, so the
    time (and action) columns are moved behind the state block.
    """
    n_in = coeff_net.dim_in
    # input k of the net reads entry order[k] of (x, t[, u])
    order = [d] + list(range(d)) + list(range(d + 1, n_in))
    return fold_affine(coeff_net, "pre", np.eye(n_in)[order])


def unroll_value_net(
    mu_net,
    sigma_col_nets,
    cost_net,
    sys,
    budget,
    seed,
    actions=None,
):
    """Build the single network realizing the fixed-noise MC value estimate.

    Per path: start from the implicit projection of the identity, and for
    each step add-compose the current state network with the drift branch
    weighted by h and the diffusion column branches weighted by the noise
    block, then post-fold (I+hA)^{-1}.  Compose with the cost network, then
    average the paths with one linear combination.  All paths share one
    architecture and one sparsity pattern, so they are built as one stack:
    each step is one add_compose and one fold for every path at once, and
    the average is one combine over the stack's member axis.

    `actions`, when given, is a (P, N, m) array of P action plans: row n
    of plan p is appended to (t_n) as branch constants (the controlled
    variant).  The P plans share the paths' noise and join the stack, and
    the result is then the stack of their P networks, member p for plan p.

    Returns (network, report), or (stack, report) when `actions` is given;
    the report carries the size, the conservative size bound, and the
    last-hidden-width audit of every unroll step.
    """
    d = sys.d
    h = budget.h
    n_steps = budget.steps
    n_paths = budget.paths
    if actions is not None:
        actions = np.asarray(actions, dtype=np.float64)
        if actions.ndim != 3 or actions.shape[1] != n_steps:
            raise ValueError(
                "actions must be a (P, N, m) array of action plans with N = %d" % n_steps
            )
    n_plans = 1 if actions is None else len(actions)
    bundle = PathBundle(seed, n_paths, n_steps, d, h)
    factor = ImplicitFactor(sys.A, h)
    inv = factor.inverse()

    branches = [_as_branch(net, d) for net in [mu_net] + list(sigma_col_nets)]
    # add_compose_bound's width condition; add_compose drops inert units
    max_width = 2 * d + mu_net.dims[-2] + sum(net.dims[-2] for net in sigma_col_nets)
    widths = []

    # member m * n_plans + p is path m under plan p, so each path's members
    # form one block of the stack and the average combines the blocks
    psi = fold_affine(identity_net(d, 1), "post", inv)
    for n in range(n_steps):
        # one scheme step: psi + h mu(t_n, psi) + sum_j db_j sigma_j(t_n, psi)
        weights = np.hstack([np.full((n_paths, 1), h), bundle.increments(n)])
        u = np.full((n_paths * n_plans, 1), n * h)
        if actions is not None:
            u = np.hstack([u, np.tile(actions[:, n], (n_paths, 1))])
        psi = add_compose(psi, branches, u, np.repeat(weights, n_plans, axis=0))
        widths.append(psi.dims[-2])
        psi = fold_affine(psi, "post", inv)
    psi = compose(cost_net, psi)
    # the paths are the stack's n_paths blocks of n_plans members
    psi = combine([1.0 / n_paths] * n_paths, psi)

    bound = unroll_size_bound(
        d, n_steps, n_paths, cost_net.size, [net.size for net in sigma_col_nets]
    )
    size = psi.size
    report = {
        "size": size,
        "size_bound": bound,
        "bound_ok": size <= bound,
        "width_condition_ok": max(widths, default=0) <= max_width,
    }
    return (unstack(psi)[0] if actions is None else psi), report


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


def l2_error(psi, reference, n_samples, seed):
    """L2 distance, under the uniform measure on [0,1]^d, from a reference value.

    `reference` maps the (n_samples, d) sample, d = psi.dim_in, to its
    reference values.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    xs = rng.uniform(0.0, 1.0, (n_samples, psi.dim_in))
    vals = realize(psi, xs)[..., 0]
    return l2_error_values(vals, reference(xs))
