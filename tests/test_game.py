"""Zero-sum game synthesis: strategies, inf-sup network, brute-force oracle."""

import numpy as np
import pytest

from stiffnet import (
    Layer,
    Network,
    StrategyGrid,
    SynthesisBudget,
    brute_force_game_value,
    controlled_value_net,
    enumerate_strategies,
    game_delta,
    infsup_net,
    make_controlled_relu_drift,
    realize,
)
from stiffnet.synthesis import plan_cost


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
        pair_cap=4096,
    )
    with pytest.raises(ValueError):
        enumerate_strategies(grid)


def test_grid_validation():
    with pytest.raises(ValueError):
        StrategyGrid(times=[0.5], u1_actions=[[0.0]], u2_actions=[[0.0]])
    with pytest.raises(ValueError):
        StrategyGrid(times=[0.0, 0.0], u1_actions=[[0.0]], u2_actions=[[0.0]])
    grid = _grid(2)
    grid.check_on_grid(1.0, 4)  # 0.5 lies on the 4-step grid
    with pytest.raises(ValueError):
        grid.check_on_grid(1.0, 3)


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
    rng = np.random.default_rng(4)
    for x in rng.uniform(0.0, 1.0, size=(20, d)):
        want = brute_force_game_value(rec, grid, cost, budget, seed, x)
        got = realize(net, x)[0]
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_brute_force_batch_equals_single_points_one_simulation_per_pair(monkeypatch):
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
    assert len(calls) == 16  # 4 x 4 strategy pairs, all 20 points per call
    assert batch.shape == (20,)
    assert isinstance(singles[0], float)
    assert np.array_equal(batch, singles)


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
