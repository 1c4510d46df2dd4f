"""Zero-sum game extension: controlled schemes and the inf-sup network.

Two players pick piecewise-constant deterministic strategies on a finite
grid of intervention times (a subset of the Euler grid), each drawn from a
finite action set.  For every strategy pair a value network is synthesized
by the same unrolling as the uncontrolled case, with the active actions
frozen into branch biases per step and the control cost folded into the
output bias; all pairs share one architecture and one Brownian realization.
The game value network is then a min-tree over player-1 strategies of
max-trees over player-2 strategies, which is exact, so it must agree with
brute-force enumeration to floating point.
"""

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .calculus import max_tree, min_tree, pad_to_pow2
from .network import fold_affine
from .sde import PerturbedCoefficients
from .synthesis import coefficients_from_nets, mc_reference, unroll_value_net

__all__ = [
    "StrategyGrid",
    "enumerate_strategies",
    "controlled_value_net",
    "infsup_net",
    "brute_force_game_value",
    "game_delta",
]

DEFAULT_PAIR_CAP = 4096


@dataclass
class StrategyGrid:
    """Intervention times plus per-player finite action sets.

    times must be a subset of the Euler grid used for synthesis (the
    discrete-time analysis only covers coefficients that switch on grid
    points); actions are rows of u1_actions / u2_actions; g is the control
    cost g(u1_seq, u2_seq) added to the terminal payoff.
    """

    times: np.ndarray
    u1_actions: np.ndarray
    u2_actions: np.ndarray
    g: Callable = field(default=lambda u1, u2: 0.0)
    pair_cap: int = DEFAULT_PAIR_CAP

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64).reshape(-1)
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("intervention times must start at 0")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("intervention times must be strictly increasing")
        self.u1_actions = np.atleast_2d(np.asarray(self.u1_actions, dtype=np.float64))
        self.u2_actions = np.atleast_2d(np.asarray(self.u2_actions, dtype=np.float64))

    @property
    def n_interventions(self):
        return len(self.times)

    def check_on_grid(self, horizon, steps):
        h = horizon / steps
        idx = self.times / h
        if not np.allclose(idx, np.round(idx), atol=1e-9):
            raise ValueError(
                "intervention times must lie on the Euler grid (h=%g)" % h
            )

    def interval_index(self, t):
        return int(np.searchsorted(self.times, t + 1e-12, side="right") - 1)


def enumerate_strategies(grid):
    """All action-index sequences per player, in lexicographic order.

    Refuses when the number of strategy pairs exceeds the grid's cap.
    """
    m = grid.n_interventions
    n1 = len(grid.u1_actions) ** m
    n2 = len(grid.u2_actions) ** m
    if n1 * n2 > grid.pair_cap:
        raise ValueError(
            "strategy enumeration needs %d pairs, above the cap %d"
            % (n1 * n2, grid.pair_cap)
        )
    s1 = list(itertools.product(range(len(grid.u1_actions)), repeat=m))
    s2 = list(itertools.product(range(len(grid.u2_actions)), repeat=m))
    return s1, s2


def _schedule(grid, budget, strat1, strat2):
    """Map a step index to the frozen (u1, u2) vector for that step."""
    h = budget.h

    def action(n):
        k = grid.interval_index(n * h)
        u1 = grid.u1_actions[strat1[k]]
        u2 = grid.u2_actions[strat2[k]]
        return np.concatenate([u1, u2])

    return action


def _control_cost(grid, strat1, strat2):
    """g(u1_seq, u2_seq) for one strategy pair."""
    return float(grid.g(grid.u1_actions[list(strat1)], grid.u2_actions[list(strat2)]))


def controlled_value_net(strat1, strat2, recipe, cost, budget, seed, grid):
    """Value network for one strategy pair (shared noise, shared arch).

    Identical to the uncontrolled unrolling except the active action vector
    joins the per-step branch constants and the control cost g is folded
    into the output bias.  The resulting architecture does not depend on
    the chosen strategies.
    """
    grid.check_on_grid(budget.horizon, budget.steps)
    psi, report = unroll_value_net(
        recipe.mu_net,
        recipe.sigma_col_nets,
        cost.net,
        recipe.system,
        budget,
        seed,
        action_schedule=_schedule(grid, budget, strat1, strat2),
    )
    shift = _control_cost(grid, strat1, strat2)
    # a zero cost leaves the output bias untouched
    if shift:
        psi = fold_affine(psi, "post", np.eye(psi.dim_out), np.full(psi.dim_out, shift))
    return psi, report


def infsup_net(w_nets):
    """min over rows of max over columns of a 2-D grid of value networks.

    w_nets is a list (player-1 strategies) of lists (player-2 strategies)
    of same-architecture scalar networks; groups are padded to powers of
    two by repeating the last element, which maximum/minimum ignore.
    """
    row_nets = [max_tree(pad_to_pow2(row)) for row in w_nets]
    return min_tree(pad_to_pow2(row_nets))


def _controlled_coeffs(recipe, grid, budget, strat1, strat2):
    """Piecewise-constant-in-time coefficient callables from the nets.

    The per-step coefficients are built once; a call at time t uses the
    ones of the step t falls on.
    """
    schedule = _schedule(grid, budget, strat1, strat2)
    h = budget.h
    steps = [
        coefficients_from_nets(recipe.mu_net, recipe.sigma_col_nets, extra=schedule(n))
        for n in range(budget.steps)
    ]

    def mu(t, x):
        return steps[int(round(t / h))].mu(t, x)

    def noise(t, x, db):
        return steps[int(round(t / h))].noise(t, x, db)

    return PerturbedCoefficients(mu=mu, noise=noise, gamma=recipe.gamma)


def brute_force_game_value(recipe, grid, cost, budget, seed, x):
    """inf over u1 of sup over u2 of the simulated value, shared seed.

    One simulation per strategy pair covers every start point: a point x of
    shape (d,) gives a float, a batch (P, d) a (P,) array.
    """
    s1, s2 = enumerate_strategies(grid)

    def value(strat1, strat2):
        coeffs = _controlled_coeffs(recipe, grid, budget, strat1, strat2)
        direct = mc_reference(recipe.system, coeffs, cost, budget, seed, x)
        return direct + _control_cost(grid, strat1, strat2)

    values = np.array([[value(strat1, strat2) for strat2 in s2] for strat1 in s1])
    best = values.max(axis=1).min(axis=0)
    return best if best.ndim else float(best)


def game_delta(eps, d, kappa0, n_interventions):
    """Per-strategy accuracy budget eps * (kappa0 d^kappa0)^(-M/2)."""
    if n_interventions == 0:
        return float(eps)
    return float(eps * (kappa0 * d**kappa0) ** (-n_interventions / 2.0))
