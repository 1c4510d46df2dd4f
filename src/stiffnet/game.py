"""Zero-sum game extension: controlled schemes and the inf-sup network.

Two players pick piecewise-constant deterministic strategies on a finite
grid of intervention times (a subset of the Euler grid), each drawn from a
finite action set.  The strategy pairs are resolved once, in row-major
order, to one array of the action pairs their Euler steps apply; the
unrolling and the brute-force oracle both read that array.  For every
pair a value network is synthesized by the same unrolling as the
uncontrolled case, with each step's actions frozen into branch biases and
the control cost added to the output bias.  All pairs share one
architecture, one sparsity pattern and one Brownian realization, so one
stacked unroll builds them all as the members of one stack.  The game
value network is then a min-tree over player-1 strategies of max-trees
over player-2 strategies, built level by level on that stack by the
calculus' infsup_net (re-exported here).  It is exact, so it must agree
with brute-force enumeration to floating point.  The oracle is one direct
simulation of the scheme: every start point under every pair on the same
paths, with no value network read.
"""

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .calculus import infsup_net
from .network import Layer, Network, unstack
from .synthesis import coefficients_from_nets, mc_reference, unroll_value_net

__all__ = [
    "StrategyGrid",
    "check_pair_cap",
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
        # round-off only: a relative 1e-5 passes off-grid times past 1e5 steps
        if not np.allclose(idx, on_grid, rtol=1e-9, atol=1e-9):
            raise ValueError(
                "intervention times must lie on the Euler grid (h=%g)" % h
            )
        if np.any(np.abs(on_grid) >= 2.0**63):
            raise ValueError("step indices up to %d overflow int64" % on_grid.max())
        return on_grid.astype(np.int64)


def check_pair_cap(n_actions1, n_actions2, n_interventions):
    """ValueError when the strategy pairs would exceed PAIR_CAP; lists none."""
    base = n_actions1 * n_actions2
    # any base > 1 passes the cap within PAIR_CAP.bit_length() interventions
    if base ** min(n_interventions, PAIR_CAP.bit_length()) > PAIR_CAP:
        raise ValueError(
            "strategy enumeration needs %d**%d pairs, above the cap %d"
            % (base, n_interventions, PAIR_CAP)
        )


def enumerate_strategies(grid):
    """All action-index sequences per player, in lexicographic order.

    Refuses when the number of strategy pairs exceeds PAIR_CAP.
    """
    m = grid.n_interventions
    check_pair_cap(len(grid.u1_actions), len(grid.u2_actions), m)
    s1 = list(itertools.product(range(len(grid.u1_actions)), repeat=m))
    s2 = list(itertools.product(range(len(grid.u2_actions)), repeat=m))
    return s1, s2


def _resolve_pairs(grid, budget, strats1, strats2):
    """Every strategy pair's per-step actions and control cost, row-major.

    Pair p = i * len(strats2) + j is (strats1[i], strats2[j]).  Returns the
    (P, N, m1+m2) array whose row n of plan p is the (u1, u2) pair applied
    at step n, and the (P,) costs g(u1_seq, u2_seq).  Step n lies in the
    interval of the last intervention at or before it; an intervention
    time off the Euler grid raises ValueError.
    """
    starts = grid.check_on_grid(budget.horizon, budget.steps)
    interval = np.searchsorted(starts, np.arange(budget.steps), side="right") - 1
    pairs = list(itertools.product(strats1, strats2))
    u1 = grid.u1_actions[np.array([a for a, _ in pairs])]
    u2 = grid.u2_actions[np.array([b for _, b in pairs])]
    costs = np.array([float(grid.g(a, b)) for a, b in zip(u1, u2)])
    return np.concatenate([u1, u2], axis=-1)[:, interval], costs


def pair_value_nets(strats1, strats2, recipe, cost, budget, seed, grid):
    """Value networks of every strategy pair (shared noise, shared arch).

    One stacked unroll builds all pairs: it is the uncontrolled unrolling
    with each pair's active action vector joining the per-step branch
    constants.  Each pair's control cost g is then added to its own output
    bias, for all pairs in one array operation.  Returns the stack of the
    pair networks, member i * len(strats2) + j for the pair
    (strats1[i], strats2[j]), and the unroll report.
    """
    actions, costs = _resolve_pairs(grid, budget, strats1, strats2)
    stack, report = unroll_value_net(
        recipe.mu_net,
        recipe.sigma_col_nets,
        cost.net,
        recipe.system,
        budget,
        seed,
        actions=actions,
    )
    last = stack.layers[-1]
    # adding a zero cost keeps the bias: the average's sums start at +0.0,
    # so no output bias is -0.0
    bias = last.bias + costs[:, None]
    return Network(stack.layers[:-1] + (Layer(last, bias),)), report


def controlled_value_net(strat1, strat2, recipe, cost, budget, seed, grid):
    """Value network for one strategy pair: pair_value_nets' one-pair case.

    The resulting architecture does not depend on the chosen strategies.
    """
    stack, report = pair_value_nets([strat1], [strat2], recipe, cost, budget, seed, grid)
    return unstack(stack)[0], report


def brute_force_game_value(recipe, grid, cost, budget, seed, x):
    """inf over u1 of sup over u2 of the simulated value, shared seed.

    A direct simulation of the scheme that reads no value network.  One
    simulation steps every start point under every strategy pair on the
    same paths: start point k under pair p is row k * P + p, and its
    coefficient nets read that pair's action row of the current step.  A
    point x of shape (d,) gives a float, a batch (X, d) an (X,) array.
    """
    s1, s2 = enumerate_strategies(grid)
    plans, costs = _resolve_pairs(grid, budget, s1, s2)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("x must be one start point (d,) or a batch (X, d)")
    points = x.reshape(-1, x.shape[-1])
    starts = np.repeat(points, len(plans), axis=0)
    plans = np.tile(plans, (len(points), 1, 1))
    # the scheme calls the coefficients at grid times t = n h only
    action = lambda t: plans[:, int(round(t / budget.h)), None]
    coeffs = coefficients_from_nets(recipe.mu_net, recipe.sigma_col_nets, action)
    direct = mc_reference(recipe.system, coeffs, cost, budget, seed, starts)
    values = direct.reshape(len(points), -1) + costs
    best = values.reshape(len(points), len(s1), len(s2)).max(axis=2).min(axis=1)
    return best if x.ndim == 2 else float(best[0])


def game_delta(eps, d, kappa0, n_interventions):
    """Per-strategy accuracy budget eps * (kappa0 d^kappa0)^(-M/2)."""
    if n_interventions == 0:
        return float(eps)
    return float(eps * (kappa0 * d**kappa0) ** (-n_interventions / 2.0))
