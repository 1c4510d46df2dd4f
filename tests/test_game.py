"""Zero-sum game synthesis: strategies, inf-sup network, brute-force oracle."""

import itertools

import numpy as np
import pytest

from stiffnet import (
    Layer,
    Network,
    StrategyGrid,
    SynthesisBudget,
    brute_force_game_value,
    compose,
    controlled_value_net,
    enumerate_strategies,
    fold_affine,
    game_delta,
    infsup_net,
    make_controlled_relu_drift,
    make_system,
    network_to_text,
    pair_value_nets,
    parallel_shared,
    psi_max_net,
    realize,
    truncation_radius,
    unroll_value_net,
    unstack,
)
from stiffnet.game import check_pair_cap
from stiffnet.sde import PathBundle
from stiffnet.synthesis import coefficients_from_nets, mc_reference, plan_cost


def _grid(n_times=2, g=None):
    times = np.array([0.0, 0.5])[:n_times]
    kwargs = {} if g is None else {"g": g}
    return StrategyGrid(
        times=times,
        u1_actions=np.array([[0.0], [1.0]]),
        u2_actions=np.array([[0.0], [0.5]]),
        **kwargs,
    )


def _budget(steps=4, paths=8):
    return SynthesisBudget(
        eps=0.5, delta=0.1, radius=4, steps=steps, paths=paths, cplan=1.0, horizon=1.0
    )


# ---------------------------------------------------------------- strategies


def test_enumerate_counts_and_order():
    grid = _grid(2)
    s1, s2 = enumerate_strategies(grid)
    assert len(s1) == 4 and len(s2) == 4
    assert s1[0] == (0, 0)
    grid1 = StrategyGrid(
        times=[0.0],
        u1_actions=np.array([[0.0]]),
        u2_actions=np.array([[0.0], [1.0], [2.0]]),
    )
    a, b = enumerate_strategies(grid1)
    assert len(a) == 1 and len(b) == 3


def test_enumerate_lexicographic_three_actions():
    grid = StrategyGrid(
        times=[0.0, 0.3, 0.6],
        u1_actions=np.array([[0.0], [1.0], [2.0]]),
        u2_actions=np.array([[0.0]]),
    )
    s1, _ = enumerate_strategies(grid)
    assert len(s1) == 27
    assert s1[0] == (0, 0, 0)


def test_enumerate_refuses_above_cap():
    grid = StrategyGrid(
        times=np.linspace(0.0, 0.9, 10),
        u1_actions=np.array([[0.0], [1.0]]),
        u2_actions=np.array([[0.0], [1.0]]),
    )
    with pytest.raises(ValueError):
        enumerate_strategies(grid)


@pytest.mark.parametrize(
    "n1, n2, m, refused",
    [
        (2, 2, 6, False),  # 4096 pairs, the cap itself
        (2, 2, 7, True),
        (4096, 1, 1, False),
        (4097, 1, 1, True),
        (1, 1, 2**64, False),
        (2, 1, 2**64, True),  # refused without forming 2**(2**64)
    ],
)
def test_pair_cap_is_checked_from_the_counts_alone(n1, n2, m, refused):
    if refused:
        with pytest.raises(ValueError, match="above the cap 4096"):
            check_pair_cap(n1, n2, m)
    else:
        check_pair_cap(n1, n2, m)


def test_grid_validation():
    with pytest.raises(ValueError):
        StrategyGrid(times=[0.5], u1_actions=[[0.0]], u2_actions=[[0.0]])
    with pytest.raises(ValueError):
        StrategyGrid(times=[0.0, 0.0], u1_actions=[[0.0]], u2_actions=[[0.0]])
    grid = _grid(2)
    # 0.5 lies on the 4-step grid, at step 2
    assert grid.check_on_grid(1.0, 4).tolist() == [0, 2]
    with pytest.raises(ValueError):
        grid.check_on_grid(1.0, 3)


def test_off_grid_times_are_refused_at_large_step_counts():
    grid = StrategyGrid(times=[0.0, 1 / 3, 2 / 3], u1_actions=[[0.0]], u2_actions=[[0.0]])
    # 1/3 lies 1/3 of a step off the grid, within a relative 1e-5 of step 100000
    for steps in (300_001, 3_000_001):
        with pytest.raises(ValueError, match="Euler grid"):
            grid.check_on_grid(1.0, steps)
    fifths = StrategyGrid(
        times=[k * 3.0 / 5 for k in range(5)], u1_actions=[[0.0]], u2_actions=[[0.0]]
    )
    assert fifths.check_on_grid(3.0, 5 * 10**7).tolist() == [k * 10**7 for k in range(5)]


def test_step_indices_beyond_int64_are_refused():
    grid = _grid(2)
    # 0.5 of 2**64 steps is step 2**63, one past the largest int64
    assert grid.check_on_grid(1.0, 2**63).tolist() == [0, 2**62]
    for steps in (2**64, 2**70):
        with pytest.raises(ValueError, match="overflow int64"):
            grid.check_on_grid(1.0, steps)


def test_step_actions_row_is_the_action_of_the_interval_holding_the_step():
    from stiffnet.game import _resolve_pairs

    times = [0.0, 0.25, 0.625]
    grid = StrategyGrid(
        times=times,
        u1_actions=np.array([[0.0, 1.0], [2.0, 3.0]]),
        u2_actions=np.array([[-1.0], [-2.0], [-3.0]]),
        g=lambda u1, u2: float(np.sum(u1) - 10.0 * np.sum(u2)),
    )
    budget = _budget(steps=8)
    s1, s2 = enumerate_strategies(grid)
    plans, costs = _resolve_pairs(grid, budget, s1, s2)
    assert plans.shape == (len(s1) * len(s2), 8, 3)
    # pair i * len(s2) + j is (s1[i], s2[j])
    for (strat1, strat2), actions, g in zip(itertools.product(s1, s2), plans, costs):
        u1, u2 = grid.u1_actions[list(strat1)], grid.u2_actions[list(strat2)]
        assert g == grid.g(u1, u2)
        for n in range(8):
            k = max(i for i, t in enumerate(times) if t <= n * budget.h)
            assert np.array_equal(actions[n], np.concatenate([u1[k], u2[k]]))


def test_game_delta_examples():
    assert game_delta(0.1, 1, 1.0, 2) == pytest.approx(0.1)
    assert game_delta(0.1, 1, 1.0, 0) == pytest.approx(0.1)
    assert game_delta(0.1, 4, 1.0, 2) == pytest.approx(0.025)


# ------------------------------------------------------------- inf-sup trees


def _const_net(c):
    return Network([Layer(np.zeros((1, 2)), np.array([float(c)]))])


def test_infsup_constant_matrix_game():
    # payoff [[1, 4], [3, 2]]: min over rows of max over columns = 3
    w = [[_const_net(1), _const_net(4)], [_const_net(3), _const_net(2)]]
    net = infsup_net(w)
    xs = np.random.default_rng(0).normal(size=(50, 2))
    assert np.max(np.abs(realize(net, xs)[..., 0] - 3.0)) <= 1e-12


def test_infsup_single_group():
    w = [[_const_net(3), _const_net(5)]]
    net = infsup_net(w)
    assert realize(net, np.zeros(2))[0] == pytest.approx(5.0)


def test_infsup_all_identical():
    w = [[_const_net(2.5)] * 2] * 2
    net = infsup_net(w)
    assert realize(net, np.ones(2))[0] == pytest.approx(2.5)


def test_infsup_padding_neutrality():
    rng = np.random.default_rng(1)

    def rand_net():
        return Network(
            [
                Layer(rng.normal(size=(3, 2)), rng.normal(size=3)),
                Layer(rng.normal(size=(1, 3)), rng.normal(size=1)),
            ]
        )

    rows = [
        [rand_net(), rand_net(), rand_net()],
        [rand_net(), rand_net(), rand_net()],
    ]
    net = infsup_net(rows)
    xs = rng.normal(size=(100, 2))
    vals = [
        np.max(np.stack([realize(n, xs)[..., 0] for n in row]), axis=0)
        for row in rows
    ]
    want = np.min(np.stack(vals), axis=0)
    got = realize(net, xs)[..., 0]
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def test_infsup_lipschitz_aggregation():
    # |infsup f - infsup g| <= sup over pairs |f - g| pointwise
    rng = np.random.default_rng(2)

    def rand_net(shift=0.0):
        w = rng.normal(size=(1, 2))
        return Network([Layer(w, np.array([shift]))]), w

    f_nets, g_nets, gaps = [], [], []
    for _ in range(2):
        f_row, g_row = [], []
        for _ in range(2):
            shift = rng.normal()
            net, w = rand_net(shift)
            bump = rng.uniform(-0.3, 0.3)
            f_row.append(net)
            g_row.append(Network([Layer(w, np.array([shift + bump]))]))
            gaps.append(abs(bump))
        f_nets.append(f_row)
        g_nets.append(g_row)
    f = infsup_net(f_nets)
    g = infsup_net(g_nets)
    xs = rng.normal(size=(200, 2))
    diff = np.abs(realize(f, xs)[..., 0] - realize(g, xs)[..., 0])
    assert np.max(diff) <= max(gaps) + 1e-12


def test_infsup_realizes_discrete_hamiltonian_of_affine_forms():
    # min-max over affine forms is exactly representable
    rng = np.random.default_rng(3)
    ws = rng.normal(size=(2, 2, 2))
    bs = rng.normal(size=(2, 2))
    nets = [
        [Network([Layer(ws[i, j][None, :], np.array([bs[i, j]]))]) for j in range(2)]
        for i in range(2)
    ]
    net = infsup_net(nets)
    xs = rng.normal(size=(300, 2))
    direct = np.min(
        np.max(np.einsum("ijk,nk->nij", ws, xs) + bs, axis=2), axis=1
    )
    assert np.max(np.abs(realize(net, xs)[..., 0] - direct)) <= 1e-12 * (
        1.0 + np.max(np.abs(direct))
    )


def _recursive_max(nets):
    """Reference: max_tree as the recursion over halves of single networks."""
    if len(nets) == 1:
        return nets[0]
    half = len(nets) // 2
    pair = parallel_shared(_recursive_max(nets[:half]), _recursive_max(nets[half:]))
    return compose(psi_max_net(), pair)


def _padded(nets):
    """The list padded to a power-of-two length with its last entry."""
    width = 1 << (len(nets) - 1).bit_length()
    return nets + [nets[-1]] * (width - len(nets))


def _recursive_min(nets):
    neg = np.array([[-1.0]])
    flipped = [fold_affine(net, "post", neg) for net in nets]
    return fold_affine(_recursive_max(flipped), "post", neg)


@pytest.mark.parametrize(
    "times, u1",
    [([0.0, 0.5], [[0.5], [-0.5]]), ([0.0], [[0.5], [0.0], [-0.5]])],
    ids=["4x9 pairs", "3x3 pairs"],
)
def test_stacked_infsup_is_the_per_row_tree_construction_byte_for_byte(times, u1):
    spec = dict(d=2, steps=4, paths=4, times=times, u1=u1, u2=[[0.25], [0.0], [-0.25]])
    rec, budget, cost, grid = _pair_game(spec)
    s1, s2 = enumerate_strategies(grid)
    stack, _ = pair_value_nets(s1, s2, rec, cost, budget, 4321, grid)
    nets = unstack(stack)
    rows = [nets[i : i + len(s2)] for i in range(0, len(nets), len(s2))]
    want = network_to_text(
        _recursive_min(_padded([_recursive_max(_padded(row)) for row in rows]))
    )
    assert network_to_text(infsup_net(stack, len(s2))) == want
    assert network_to_text(infsup_net(rows)) == want


# ------------------------------------------------------ controlled unrolling


def test_controlled_value_matches_brute_force():
    d = 2
    rec = make_controlled_relu_drift(d, l_mu=0.3, noise_scale=0.1)
    grid = _grid(2, g=lambda u1, u2: float(np.sum(u1) - np.sum(u2)))
    budget = _budget(4, 8)
    cost = plan_cost(d, budget, kappa=1.0)
    seed = 13
    s1, s2 = enumerate_strategies(grid)
    w_nets = []
    arch = None
    for strat1 in s1:
        row = []
        for strat2 in s2:
            psi, _ = controlled_value_net(strat1, strat2, rec, cost, budget, seed, grid)
            if arch is None:
                arch = psi.dims
            assert psi.dims == arch  # architecture independent of strategies
            row.append(psi)
        w_nets.append(row)
    net = infsup_net(w_nets)
    xs = np.random.default_rng(4).uniform(0.0, 1.0, size=(20, d))
    singles = []
    for x in xs:
        want = brute_force_game_value(rec, grid, cost, budget, seed, x)
        got = realize(net, x)[0]
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))
        singles.append(got)
    # a batch gives the bits of its points one at a time
    assert np.array_equal(realize(net, xs)[:, 0], singles)


PAIR_GRIDS = {
    # the game study's default grid
    "default": dict(
        d=2, steps=4, paths=8, seed=1234, times=[0.0, 0.5],
        u1=[[0.5], [-0.5]], u2=[[0.25], [-0.25]],
    ),
    "three player-2 actions": dict(
        d=2, steps=8, paths=4, seed=4321, times=[0.0, 0.375, 0.625],
        u1=[[0.5], [-0.5]], u2=[[0.25], [0.0], [-0.25]],
    ),
    "2-D player-1 actions": dict(
        d=3, steps=8, paths=8, seed=7, times=[0.0],
        u1=[[0.5, 0.0], [0.0, -0.5], [0.25, 0.25]], u2=[[0.25], [-0.25]],
    ),
}  # fmt: skip


def _pair_game(spec):
    """(recipe, budget, cost, grid) of one PAIR_GRIDS entry, as the game study has them."""
    d = spec["d"]
    u1, u2 = np.array(spec["u1"]), np.array(spec["u2"])
    rec = make_controlled_relu_drift(d, m1=u1.shape[1], m2=u2.shape[1])
    kappa0 = rec.system.kappa0
    budget = SynthesisBudget(
        eps=0.25,
        delta=game_delta(0.25, d, kappa0, len(spec["times"])),
        radius=truncation_radius(1.0 / spec["steps"], rec.system.eta),
        steps=spec["steps"],
        paths=spec["paths"],
        cplan=1.0,
        horizon=1.0,
    )
    cost = plan_cost(d, budget, kappa0)
    grid = StrategyGrid(
        times=spec["times"], u1_actions=u1, u2_actions=u2,
        g=lambda a, b: float(np.sum(a**2) - np.sum(b**2)),
    )  # fmt: skip
    return rec, budget, cost, grid


@pytest.mark.parametrize("name", list(PAIR_GRIDS))
def test_pair_value_nets_are_the_per_pair_nets_byte_for_byte(name):
    spec = PAIR_GRIDS[name]
    rec, budget, cost, grid = _pair_game(spec)
    s1, s2 = enumerate_strategies(grid)
    stack, report = pair_value_nets(s1, s2, rec, cost, budget, spec["seed"], grid)
    nets = unstack(stack)
    assert len(nets) == len(s1) * len(s2)
    # member i * len(s2) + j is the pair (s1[i], s2[j])
    for net, (strat1, strat2) in zip(nets, itertools.product(s1, s2)):
        one, one_report = controlled_value_net(
            strat1, strat2, rec, cost, budget, spec["seed"], grid
        )
        assert network_to_text(net) == network_to_text(one)
        assert one_report == report


def test_default_pair_stack_is_as_wide_as_its_coefficient_nets(monkeypatch):
    # each step's last hidden layer carries the state pair (2d) and the
    # drift net's relu(x) (d): 6 units at d = 2.  The drift net's relu(u)
    # and relu(-u) are constants, folded into the output bias, and nothing
    # reads the constant noise columns' units
    import stiffnet.synthesis as synthesis

    widths = []
    add_compose = synthesis.add_compose

    def watched(*args):
        psi = add_compose(*args)
        widths.append((psi.members, psi.dims[-2]))
        return psi

    monkeypatch.setattr(synthesis, "add_compose", watched)
    spec = PAIR_GRIDS["default"]
    rec, budget, cost, grid = _pair_game(spec)
    s1, s2 = enumerate_strategies(grid)
    _, report = pair_value_nets(s1, s2, rec, cost, budget, spec["seed"], grid)
    d, m = spec["d"], sum(rec.control_dims)
    members = spec["paths"] * len(s1) * len(s2)
    assert 2 * d + d == 6 < 2 * d + (d + 2 * m) + d
    assert widths == [(members, 6)] * spec["steps"]
    assert report["width_condition_ok"]


def _inert_rows(net):
    """Hidden rows that store no weight, or whose column the next layer leaves empty."""
    inert = 0
    for layer, nxt in zip(net.layers, net.layers[1:]):
        weightless = np.diff(layer.indptr) == 0
        unread = ~np.isin(np.arange(layer.fan_out), nxt.indices)
        inert += int(np.count_nonzero(weightless | unread))
    return inert


@pytest.mark.parametrize(
    "system, params",
    [
        ("ou", {}),
        ("ou", {"sigma_kind": "diag"}),
        ("galerkin_heat", {"drift_scale": 0.4}),
        ("galerkin_heat", {"sigma_kind": "diag"}),
        ("relu_drift", {"noise_scale": 0.1}),
        ("controlled_relu_drift", {}),
        ("controlled_relu_drift", {"l_mu": 0.0}),
    ],
    ids=["ou", "ou-diag", "heat", "heat-diag", "relu_drift", "game", "game-l_mu-0"],
)
def test_no_hidden_unit_is_constant_or_unread(system, params):
    # a branch unit that reads no state is a constant in the next layer's
    # bias, and a unit that nothing reads is not built
    spec = PAIR_GRIDS["default"]
    _, budget, cost, grid = _pair_game(spec)
    rec = make_system(system, spec["d"], **params)
    if rec.control_dims is None:
        net, _ = unroll_value_net(
            rec.mu_net, rec.sigma_col_nets, cost.net, rec.system, budget, 5
        )
        nets = [net]
    else:
        s1, s2 = enumerate_strategies(grid)
        stack, _ = pair_value_nets(s1, s2, rec, cost, budget, spec["seed"], grid)
        nets = [stack, infsup_net(stack, len(s2))] + unstack(stack)
    assert [_inert_rows(net) for net in nets] == [0] * len(nets)


def test_brute_force_batch_equals_single_points_in_one_simulation(monkeypatch):
    import stiffnet.game as game

    d = 2
    rec = make_controlled_relu_drift(d, l_mu=0.3, noise_scale=0.1)
    grid = _grid(2, g=lambda u1, u2: float(np.sum(u1) - np.sum(u2)))
    budget = _budget(4, 8)
    cost = plan_cost(d, budget, kappa=1.0)
    xs = np.random.default_rng(4).uniform(0.0, 1.0, size=(20, d))
    singles = [brute_force_game_value(rec, grid, cost, budget, 13, x) for x in xs]

    calls = []
    mc_reference = game.mc_reference

    def counted(*args):
        calls.append(1)
        return mc_reference(*args)

    monkeypatch.setattr(game, "mc_reference", counted)
    batch = brute_force_game_value(rec, grid, cost, budget, 13, xs)
    assert len(calls) == 1  # 4 x 4 strategy pairs and all 20 points in one call
    assert batch.shape == (20,)
    assert isinstance(singles[0], float)
    assert np.array_equal(batch, singles)


def _per_pair_oracle(recipe, grid, cost, budget, seed, x):
    """Reference: the brute-force oracle with one simulation per strategy pair."""
    from stiffnet.game import _resolve_pairs

    s1, s2 = enumerate_strategies(grid)

    def value(strat1, strat2):
        plans, costs = _resolve_pairs(grid, budget, [strat1], [strat2])
        action = lambda t: plans[0, int(round(t / budget.h))]
        coeffs = coefficients_from_nets(recipe.mu_net, recipe.sigma_col_nets, action)
        direct = mc_reference(recipe.system, coeffs, cost, budget, seed, x)
        return direct + costs[0]

    values = np.array([[value(strat1, strat2) for strat2 in s2] for strat1 in s1])
    best = values.max(axis=1).min(axis=0)
    return best if best.ndim else float(best)


@pytest.mark.parametrize("name", ["default", "three player-2 actions"])
def test_brute_force_is_the_per_pair_oracle_bit_for_bit(name, monkeypatch):
    spec = PAIR_GRIDS[name]
    rec, budget, cost, grid = _pair_game(spec)
    xs = np.random.default_rng(6).uniform(0.0, 1.0, size=(20, spec["d"]))
    want = _per_pair_oracle(rec, grid, cost, budget, spec["seed"], xs)

    draws = []
    increments = PathBundle.increments

    def counted(self, *args, **kwargs):
        draws.append(1)
        return increments(self, *args, **kwargs)

    monkeypatch.setattr(PathBundle, "increments", counted)
    got = brute_force_game_value(rec, grid, cost, budget, spec["seed"], xs)
    assert len(draws) == budget.steps  # each Brownian block drawn once
    assert np.array_equal(got, want)


def test_off_grid_times_raise_in_the_net_and_in_the_oracle():
    d = 2
    rec = make_controlled_relu_drift(d, l_mu=0.3, noise_scale=0.1)
    grid = _grid(2)  # 0.5 is off the 3-step grid
    budget = _budget(3, 8)
    cost = plan_cost(d, budget, kappa=1.0)
    with pytest.raises(ValueError, match="Euler grid"):
        controlled_value_net((0, 0), (0, 0), rec, cost, budget, 13, grid)
    with pytest.raises(ValueError, match="Euler grid"):
        brute_force_game_value(rec, grid, cost, budget, 13, np.zeros(d))


def test_controlled_singleton_reduces_to_uncontrolled_plus_g():
    d = 2
    rec = make_controlled_relu_drift(d, l_mu=0.3, noise_scale=0.1)
    grid = StrategyGrid(
        times=[0.0],
        u1_actions=np.array([[0.0]]),
        u2_actions=np.array([[0.0]]),
        g=lambda u1, u2: 1.25,
    )
    budget = _budget(4, 8)
    cost = plan_cost(d, budget, kappa=1.0)
    seed = 17
    psi, _ = controlled_value_net((0,), (0,), rec, cost, budget, seed, grid)
    val = brute_force_game_value(rec, grid, cost, budget, seed, np.ones(d))
    assert abs(realize(psi, np.ones(d))[0] - val) <= 1e-8 * (1.0 + abs(val))


def test_controlled_g_shift_moves_realization():
    d = 2
    rec = make_controlled_relu_drift(d, l_mu=0.3, noise_scale=0.1)
    budget = _budget(2, 4)
    cost = plan_cost(d, budget, kappa=1.0)
    seed = 19
    base_grid = _grid(1)
    shift_grid = StrategyGrid(
        times=[0.0],
        u1_actions=base_grid.u1_actions,
        u2_actions=base_grid.u2_actions,
        g=lambda u1, u2: 1.0,
    )
    a, _ = controlled_value_net((0,), (0,), rec, cost, budget, seed, base_grid)
    b, _ = controlled_value_net((0,), (0,), rec, cost, budget, seed, shift_grid)
    xs = np.random.default_rng(5).uniform(size=(30, d))
    diff = realize(b, xs)[..., 0] - realize(a, xs)[..., 0]
    assert np.max(np.abs(diff - 1.0)) <= 1e-10


def test_zero_dynamics_matrix_game():
    # dynamics ignored by a constant cost: the game value is min-max of g
    d = 2
    rec = make_controlled_relu_drift(d, l_mu=0.0, noise_scale=0.0)
    payoff = np.array([[1.0, 4.0], [3.0, 2.0]])

    def g(u1, u2):
        return float(payoff[int(u1[0][0]), int(u2[0][0] * 2)])

    grid = StrategyGrid(
        times=[0.0],
        u1_actions=np.array([[0.0], [1.0]]),
        u2_actions=np.array([[0.0], [0.5]]),
        g=g,
    )
    budget = _budget(2, 4)
    zero_cost_net = Network([Layer(np.zeros((1, d)), np.zeros(1))])

    class ZeroCost:
        net = zero_cost_net

        def f_tilde(self, x):
            return realize(zero_cost_net, np.asarray(x, dtype=np.float64))[..., 0]

    val = brute_force_game_value(rec, grid, ZeroCost(), budget, 3, np.ones(d))
    assert val == pytest.approx(3.0, abs=1e-12)
