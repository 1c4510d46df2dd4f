"""Zero-sum game extension: controlled schemes and the inf-sup network.

Two players pick piecewise-constant deterministic strategies on a finite
grid of intervention times (a subset of the Euler grid), each drawn from a
finite action set.  Each strategy pair is resolved once to the array of
action pairs its Euler steps apply; the unrolling and the brute-force
oracle both read that array.  For every pair a value network is
synthesized by the same unrolling as the uncontrolled case, with each
step's actions frozen into branch biases and the control cost folded into
the output bias.  All pairs share one architecture, one sparsity pattern
and one Brownian realization, so one stacked unroll builds them all.
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
from .synthesis import coefficients_from_nets, mc_reference, unroll_value_net

__all__ = [
    "StrategyGrid",
    "enumerate_strategies",
    "controlled_value_net",
    "pair_value_nets",
    "infsup_net",
    "brute_force_game_value",
    "game_delta",
]

# enumerate_strategies refuses grids with more strategy pairs than this
PAIR_CAP = 4096


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
        """Step indices of the intervention times; ValueError off the Euler grid."""
        h = horizon / steps
        idx = self.times / h
        on_grid = np.round(idx)
        if not np.allclose(idx, on_grid, atol=1e-9):
            raise ValueError(
                "intervention times must lie on the Euler grid (h=%g)" % h
            )
        return on_grid.astype(np.int64)


def enumerate_strategies(grid):
    """All action-index sequences per player, in lexicographic order.

    Refuses when the number of strategy pairs exceeds PAIR_CAP.
    """
    m = grid.n_interventions
    n1 = len(grid.u1_actions) ** m
    n2 = len(grid.u2_actions) ** m
    if n1 * n2 > PAIR_CAP:
        raise ValueError(
            "strategy enumeration needs %d pairs, above the cap %d"
            % (n1 * n2, PAIR_CAP)
        )
    s1 = list(itertools.product(range(len(grid.u1_actions)), repeat=m))
    s2 = list(itertools.product(range(len(grid.u2_actions)), repeat=m))
    return s1, s2


def _step_actions(grid, budget, strat1, strat2):
    """(N, m1+m2) array whose row n is the (u1, u2) pair applied at step n.

    Step n lies in the interval of the last intervention at or before it;
    an intervention time off the Euler grid raises ValueError.
    """
    starts = grid.check_on_grid(budget.horizon, budget.steps)
    pairs = np.hstack([grid.u1_actions[list(strat1)], grid.u2_actions[list(strat2)]])
    interval = np.searchsorted(starts, np.arange(budget.steps), side="right") - 1
    return pairs[interval]


def _control_cost(grid, strat1, strat2):
    """g(u1_seq, u2_seq) for one strategy pair."""
    return float(grid.g(grid.u1_actions[list(strat1)], grid.u2_actions[list(strat2)]))


def pair_value_nets(strats1, strats2, recipe, cost, budget, seed, grid):
    """Value networks of every strategy pair (shared noise, shared arch).

    Rows follow strats1 and columns strats2.  One stacked unroll builds
    all pairs: it is the uncontrolled unrolling with each pair's active
    action vector joining the per-step branch constants.  Each pair's
    control cost g is then folded into its own output bias.  Returns the
    rows of networks and the unroll report.
    """
    pairs = list(itertools.product(strats1, strats2))
    actions = np.array([_step_actions(grid, budget, a, b) for a, b in pairs])
    nets, report = unroll_value_net(
        recipe.mu_net,
        recipe.sigma_col_nets,
        cost.net,
        recipe.system,
        budget,
        seed,
        actions=actions,
    )
    for i, (strat1, strat2) in enumerate(pairs):
        shift = _control_cost(grid, strat1, strat2)
        # a zero cost leaves the output bias untouched
        if shift:
            psi = nets[i]
            nets[i] = fold_affine(
                psi, "post", np.eye(psi.dim_out), np.full(psi.dim_out, shift)
            )
    n2 = len(strats2)
    return [nets[i : i + n2] for i in range(0, len(nets), n2)], report


def controlled_value_net(strat1, strat2, recipe, cost, budget, seed, grid):
    """Value network for one strategy pair: pair_value_nets' one-pair case.

    The resulting architecture does not depend on the chosen strategies.
    """
    rows, report = pair_value_nets([strat1], [strat2], recipe, cost, budget, seed, grid)
    return rows[0][0], report


def infsup_net(w_nets):
    """min over rows of max over columns of a 2-D grid of value networks.

    w_nets is a list (player-1 strategies) of lists (player-2 strategies)
    of same-architecture scalar networks; groups are padded to powers of
    two by repeating the last element, which maximum/minimum ignore.
    """
    row_nets = [max_tree(pad_to_pow2(row)) for row in w_nets]
    return min_tree(pad_to_pow2(row_nets))


def brute_force_game_value(recipe, grid, cost, budget, seed, x):
    """inf over u1 of sup over u2 of the simulated value, shared seed.

    One simulation per strategy pair covers every start point: a point x of
    shape (d,) gives a float, a batch (P, d) a (P,) array.
    """
    s1, s2 = enumerate_strategies(grid)

    def value(strat1, strat2):
        actions = _step_actions(grid, budget, strat1, strat2)
        # the scheme calls the coefficients at grid times t = n h only
        action = lambda t: actions[int(round(t / budget.h))]
        coeffs = coefficients_from_nets(recipe.mu_net, recipe.sigma_col_nets, action)
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
