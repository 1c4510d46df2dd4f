"""Constructive operations: exactness and complexity-bound inequalities."""

from fractions import Fraction

import numpy as np
import pytest

from stiffnet import (
    Layer,
    Network,
    add_compose,
    combine,
    compose,
    extend_depth,
    identity_net,
    max_tree,
    min_tree,
    network_to_text,
    parallel_shared,
    psi_max_net,
    realize,
    square_unit_net,
    unstack,
    weighted_square_net,
    widen_layer,
)
from stiffnet.calculus import (
    add_compose_bound,
    max_tree_bound,
    weighted_square_bound,
)
from stiffnet.network import NetworkShapeError

TOL = 1e-12


def _random_net(rng, dims):
    layers = []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        layers.append(Layer(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out)))
    return Network(layers)


def _assert_exact(got, want):
    mag = 1.0 + np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= TOL * mag


# ---------------------------------------------------------------- identity


def test_identity_realizes_identity():
    for d, L in [(1, 1), (1, 3), (3, 2), (4, 5)]:
        net = identity_net(d, L)
        xs = np.random.default_rng(d * 10 + L).normal(size=(100, d))
        _assert_exact(realize(net, xs), xs)
        assert net.depth == L


def test_identity_scalar_example():
    assert realize(identity_net(1, 3), np.array([-5.0]))[0] == -5.0


def test_identity_dims_and_sizes():
    assert identity_net(2, 1).dims == (2, 2)
    assert identity_net(2, 1).size == 6
    assert identity_net(3, 2).size == 45
    assert identity_net(3, 4).dims == (3, 6, 6, 6, 3)
    for d in (1, 2, 5):
        assert identity_net(d, 1).size == d * d + d
        assert identity_net(d, 2).size == 4 * d * d + 3 * d


# ------------------------------------------------------------ extend_depth


def test_extend_depth_preserves_realization():
    net = identity_net(2, 1)
    ext = extend_depth(net, 4)
    assert ext.depth == 4
    xs = np.random.default_rng(5).normal(size=(100, 2))
    _assert_exact(realize(ext, xs), xs)


def test_extend_depth_size_bound():
    rng = np.random.default_rng(6)
    for dims, L in [((2, 5, 1), 5), ((3, 3, 3), 4), ((1, 8, 8, 1), 7)]:
        net = _random_net(rng, dims)
        ext = extend_depth(net, L)
        id_net = identity_net(net.dim_out, L - net.depth)
        assert ext.size <= 2 * (id_net.size + net.size)
        xs = rng.normal(size=(200, dims[0]))
        _assert_exact(realize(ext, xs), realize(net, xs))


def test_extend_psi_max_zero_case():
    ext = extend_depth(psi_max_net(), 5)
    assert realize(ext, np.zeros(2))[0] == 0.0
    assert ext.depth == 5


def test_extend_depth_rejects_non_increase():
    with pytest.raises(ValueError):
        extend_depth(identity_net(2, 3), 3)


# ------------------------------------------------------------- widen_layer


def test_widen_preserves_realization():
    net = psi_max_net()
    wide = widen_layer(net, 1)
    assert realize(wide, np.array([3.0, 1.0]))[0] == 3.0
    xs = np.random.default_rng(7).normal(size=(100, 2))
    _assert_exact(realize(wide, xs), realize(net, xs))


def test_widen_dims_and_size_delta():
    net = psi_max_net()  # dims (2, 4, 1)
    assert net.dims == (2, 4, 1)
    wide = widen_layer(net, 1)
    assert wide.dims == (2, 5, 1)
    # exactly one extra row in layer 1 and one extra column in layer 2
    assert wide.size - net.size == net.dims[0] + 1 + net.dims[2]


def test_widen_rejects_out_of_range():
    with pytest.raises(ValueError):
        widen_layer(psi_max_net(), 0)
    with pytest.raises(ValueError):
        widen_layer(psi_max_net(), 2)


# ----------------------------------------------------------------- compose


def test_compose_example_and_depth():
    net = compose(identity_net(1, 1), psi_max_net())
    assert realize(net, np.array([3.0, 1.0]))[0] == 3.0
    assert compose(identity_net(1, 2), identity_net(1, 3)).depth == 5


def test_compose_rejects_dim_mismatch():
    with pytest.raises(NetworkShapeError):
        compose(psi_max_net(), identity_net(1, 1))


def test_compose_exactness_and_bound():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d0, d1, d2 = rng.integers(1, 5, size=3)
        inner = _random_net(rng, (d0, int(rng.integers(1, 6)), d1))
        outer = _random_net(rng, (d1, int(rng.integers(1, 6)), d2))
        net = compose(outer, inner)
        assert net.depth == inner.depth + outer.depth
        assert net.size <= 2 * (inner.size + outer.size)
        xs = rng.normal(size=(500, d0))
        want = realize(outer, realize(inner, xs))
        _assert_exact(realize(net, xs), want)


# ----------------------------------------------------------------- combine


def test_combine_linearity_examples():
    two = combine([1.0, 1.0], [psi_max_net(), psi_max_net()])
    assert realize(two, np.array([3.0, 1.0]))[0] == 6.0
    neg = combine([-1.0], [psi_max_net()])
    assert realize(neg, np.array([3.0, 1.0]))[0] == -3.0


def test_combine_monte_carlo_average():
    rng = np.random.default_rng(9)
    nets = [_random_net(rng, (2, 4, 1)) for _ in range(4)]
    avg = combine([0.25] * 4, nets)
    xs = rng.normal(size=(300, 2))
    want = sum(realize(n, xs) for n in nets) / 4.0
    _assert_exact(realize(avg, xs), want)


def test_combine_sums_output_biases_left_to_right():
    # past 8 terms numpy's pairwise summation would group the sum differently
    rng = np.random.default_rng(13)
    nets = [_random_net(rng, (2, 3, 1)) for _ in range(24)]
    coeffs = rng.normal(size=24)
    want = sum(c * n.layers[-1].bias for c, n in zip(coeffs, nets))
    assert np.array_equal(combine(coeffs, nets).layers[-1].bias, want)


def test_combine_dims_and_size_bound():
    rng = np.random.default_rng(10)
    nets = [_random_net(rng, (3, 5, 2, 1)) for _ in range(3)]
    net = combine([1.0, 2.0, -0.5], nets)
    assert net.dims == (3, 15, 6, 1)
    assert net.size <= 9 * nets[0].size


def test_combine_rejects_arch_mismatch():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        combine([1.0, 1.0], [_random_net(rng, (2, 3, 1)), _random_net(rng, (2, 4, 1))])


def test_combine_refuses_an_empty_coefficient_list():
    rng = np.random.default_rng(11)
    net = _random_net(rng, (2, 3, 1))
    stack = _stack_net(rng, (2, 3, 1), 2)
    for nets in ([net], [], stack):
        with pytest.raises(ValueError, match="nonempty"):
            combine([], nets)


def test_combine_parallel_and_trees_of_one_network_repeated():
    # every operand is the same object, so all of its layers are shared
    rng = np.random.default_rng(12)
    net = _random_net(rng, (2, 4, 1))
    xs = rng.normal(size=(200, 2))
    f = realize(net, xs)
    _assert_exact(realize(combine([0.5, 0.25, 0.25], [net] * 3), xs), f)
    _assert_exact(realize(parallel_shared(net, net), xs), np.hstack([f, f]))
    _assert_exact(realize(max_tree([net] * 4), xs), f)
    _assert_exact(realize(min_tree([net] * 2), xs), f)


# --------------------------------------------------------- parallel_shared


def test_parallel_shared_stacks_outputs():
    a, b = identity_net(1, 2), identity_net(1, 2)
    net = parallel_shared(a, b)
    out = realize(net, np.array([7.0]))
    assert np.array_equal(out, np.array([7.0, 7.0]))
    assert net.dims == (1, 4, 2)
    assert net.size <= 2 * (a.size + b.size)


def test_parallel_shared_random():
    rng = np.random.default_rng(12)
    for _ in range(10):
        dims = (3, int(rng.integers(1, 6)), 2)
        a, b = _random_net(rng, dims), _random_net(rng, dims)
        net = parallel_shared(a, b)
        xs = rng.normal(size=(200, 3))
        want = np.concatenate([realize(a, xs), realize(b, xs)], axis=-1)
        _assert_exact(realize(net, xs), want)
        assert net.size <= 2 * (a.size + b.size)


# --------------------------------------------------------------- add_compose


def test_add_compose_zero_branches():
    rng = np.random.default_rng(13)
    base = _random_net(rng, (2, 4, 2))
    zero = Network(
        [Layer(np.zeros((3, 3)), np.zeros(3)), Layer(np.zeros((2, 3)), np.zeros(2))]
    )
    net = add_compose(base, [zero], np.array([0.5]))
    xs = rng.normal(size=(200, 2))
    _assert_exact(realize(net, xs), realize(base, xs))


def test_add_compose_shift_example():
    # one branch realizing (x, u) -> u turns the base into x + 5
    base = identity_net(1, 2)
    branch = Network(
        [
            Layer(np.array([[0.0, 1.0], [0.0, -1.0]]), np.zeros(2)),
            Layer(np.array([[1.0, -1.0]]), np.zeros(1)),
        ]
    )
    net = add_compose(base, [branch], np.array([5.0]))
    for x in (-2.0, 0.0, 3.5):
        assert abs(realize(net, np.array([x]))[0] - (x + 5.0)) <= TOL * 10


def test_add_compose_depth_and_last_hidden_width():
    rng = np.random.default_rng(14)
    d = 2
    base = identity_net(d, 2)
    branches = [_random_net(rng, (d + 1, 3, d)) for _ in range(2)]
    net = add_compose(base, branches, np.array([0.3]))
    assert net.depth == base.depth + branches[0].depth - 1
    # last hidden width is 2d + sum of branch last-hidden widths
    assert net.dims[-2] == 2 * d + sum(b.dims[-2] for b in branches)


def test_add_compose_exactness_depth_one_and_deeper():
    rng = np.random.default_rng(15)
    for branch_depth in (1, 2, 3):
        d, du = 3, 2
        base = _random_net(rng, (d, 5, d))
        dims = (d + du,) + tuple(
            int(rng.integers(2, 5)) for _ in range(branch_depth - 1)
        ) + (d,)
        branches = [_random_net(rng, dims) for _ in range(2)]
        u = rng.normal(size=du)
        xs = rng.normal(size=(300, d))
        mid = realize(base, xs)
        aug = np.concatenate([mid, np.broadcast_to(u, xs.shape[:-1] + (du,))], axis=-1)
        for coeffs in (None, [rng.normal(), 0.0]):
            net = add_compose(base, branches, u, coeffs)
            weights = [1.0] * len(branches) if coeffs is None else coeffs
            want = mid + sum(c * realize(b, aug) for c, b in zip(weights, branches))
            _assert_exact(realize(net, xs), want)


def test_add_compose_default_weights_are_ones_and_leave_the_size():
    rng = np.random.default_rng(19)
    d = 2
    base = _random_net(rng, (d, 4, d))
    for dims in ((d + 1, d), (d + 1, 3, d), (d + 1, 3, 2, d)):
        branches = [_random_net(rng, dims) for _ in range(3)]
        u = rng.normal(size=1)
        plain = add_compose(base, branches, u)
        ones = add_compose(base, branches, u, [1.0, 1.0, 1.0])
        weighted = add_compose(base, branches, u, [0.5, 0.0, -3.0])
        for a, b in zip(plain.layers, ones.layers):
            assert a.weight.tobytes() == b.weight.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()
        assert weighted.dims == plain.dims and weighted.size == plain.size
        with pytest.raises(ValueError):
            add_compose(base, branches, u, [1.0, 1.0])


def test_add_compose_size_bound():
    rng = np.random.default_rng(16)
    d = 2
    base = identity_net(d, 1)
    branches = [_random_net(rng, (d + 1, 3, d)) for _ in range(3)]
    net = add_compose(base, branches, np.array([0.1]))
    assert net.size <= add_compose_bound(base, branches)


def test_add_compose_rejects_depth_mismatch():
    rng = np.random.default_rng(17)
    base = identity_net(2, 2)
    b1 = _random_net(rng, (3, 4, 2))
    b2 = _random_net(rng, (3, 4, 4, 2))
    with pytest.raises(ValueError):
        add_compose(base, [b1, b2], np.array([0.0]))


# ---------------------------------------------------------- max / min trees


def test_psi_max_is_binary_max():
    rng = np.random.default_rng(18)
    xy = rng.normal(size=(1000, 2))
    want = np.max(xy, axis=1)
    _assert_exact(realize(psi_max_net(), xy)[..., 0], want)


def test_max_tree_single_net_unchanged():
    net = psi_max_net()
    assert max_tree([net]) is net


def test_max_tree_absolute_value():
    pos = Network([Layer(np.array([[1.0]]), np.zeros(1))])
    neg = Network([Layer(np.array([[-1.0]]), np.zeros(1))])
    net = max_tree([pos, neg])
    xs = np.random.default_rng(19).normal(size=(500, 1))
    _assert_exact(realize(net, xs)[..., 0], np.abs(xs[..., 0]))


def test_max_tree_bound_example():
    assert max_tree_bound(17, 1) == pytest.approx(8 * (17 + 34 / 7) - 34 / 7)
    assert max_tree_bound(17, 1) == pytest.approx(170.0)


def test_max_tree_bound_is_an_exact_int():
    for n_levels in range(41):
        for leaf_size in (1, 17, 1_000_003):
            bound = max_tree_bound(leaf_size, n_levels)
            exact = 8**n_levels * (leaf_size + Fraction(34, 7)) - Fraction(34, 7)
            assert type(bound) is int and bound == exact


def test_max_min_tree_random_and_bounds():
    rng = np.random.default_rng(20)
    for n_levels in (1, 2, 3):
        count = 2**n_levels
        nets = [_random_net(rng, (2, 3, 1)) for _ in range(count)]
        mx = max_tree(nets)
        mn = min_tree(nets)
        xs = rng.normal(size=(300, 2))
        stack = np.stack([realize(n, xs)[..., 0] for n in nets])
        _assert_exact(realize(mx, xs)[..., 0], np.max(stack, axis=0))
        _assert_exact(realize(mn, xs)[..., 0], np.min(stack, axis=0))
        assert mx.size <= max_tree_bound(nets[0].size, n_levels)
        assert mn.size <= max_tree_bound(nets[0].size, n_levels)


def _stack_net(rng, dims, members):
    """A random stack whose every layer is stacked."""
    return Network(
        [
            Layer(rng.normal(size=(members, n_out, n_in)), rng.normal(size=(members, n_out)))
            for n_in, n_out in zip(dims[:-1], dims[1:])
        ]
    )


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("count", [3, 5, 6])
@pytest.mark.parametrize("tree", [max_tree, min_tree])
def test_trees_of_any_count_are_the_trees_padded_with_the_last_leaf(tree, count, stacked):
    rng = np.random.default_rng(21)
    if stacked:
        nets = [_stack_net(rng, (2, 3, 1), 2) for _ in range(count)]
    else:
        nets = [_random_net(rng, (2, 3, 1)) for _ in range(count)]
    width = 1 << (count - 1).bit_length()
    padded = nets + [nets[-1]] * (width - count)
    members = unstack(tree(nets))
    got = [network_to_text(n) for n in members]
    assert got == [network_to_text(n) for n in unstack(tree(padded))]
    # and the tree is the pointwise extreme of the leaves, member by member
    xs = rng.normal(size=(200, 2))
    extreme = np.max if tree is max_tree else np.min
    leaves = np.array([[realize(m, xs)[..., 0] for m in unstack(n)] for n in nets])
    for s, member in enumerate(members):
        _assert_exact(realize(member, xs)[..., 0], extreme(leaves[:, s], axis=0))
        assert member.size <= max_tree_bound(nets[0].size, (count - 1).bit_length())


def test_trees_refuse_zero_leaves():
    for tree in (max_tree, min_tree):
        with pytest.raises(ValueError, match="at least one network"):
            tree([])


# ------------------------------------------------------------- square nets


def test_square_unit_dyadic_nodes_exact():
    for eps, S in [(1.0 / 16.0, 1), (1e-2, 3), (1e-3, 4)]:
        net = square_unit_net(eps)
        nodes = np.arange(2**S + 1) / 2.0**S
        got = realize(net, nodes[:, None])[..., 0]
        assert np.max(np.abs(got - nodes**2)) == 0.0


def test_square_unit_point_examples():
    net = square_unit_net(1.0 / 16.0)
    assert realize(net, np.array([0.5]))[0] == 0.25
    assert realize(net, np.array([2.0]))[0] == 2.0
    assert realize(net, np.array([0.0]))[0] == 0.0
    assert abs(realize(net, np.array([0.25]))[0] - 0.0625) == pytest.approx(
        0.0625, abs=1e-15
    )


def test_square_unit_error_profile():
    for eps in (0.25, 1e-1, 1e-2, 1e-3, 1e-4):
        net = square_unit_net(eps)
        xs = np.linspace(0.0, 1.0, 10001)
        err = np.abs(realize(net, xs[:, None])[..., 0] - xs**2)
        assert np.max(err) <= eps
        outside = np.concatenate([np.linspace(-3, -1e-9, 50), np.linspace(1 + 1e-9, 3, 50)])
        got = realize(net, outside[:, None])[..., 0]
        assert np.max(np.abs(got - outside)) <= TOL * 4


def test_square_unit_max_error_between_nodes():
    # with S sawtooth stages the worst-case error is exactly 4^-(S+1)
    eps = 1.0 / 16.0  # S = 1
    net = square_unit_net(eps)
    xs = np.linspace(0.0, 1.0, 20001)
    err = np.abs(realize(net, xs[:, None])[..., 0] - xs**2)
    assert np.max(err) == pytest.approx(4.0 ** (-2), abs=1e-12)


def _dead_rows(net):
    """Hidden rows with no weight and bias <= 0: their ReLU outputs 0 on every input."""
    return sum(
        int(np.sum(~np.any(l.weight != 0.0, axis=1) & (l.bias <= 0.0)))
        for l in net.layers[:-1]
    )


def test_square_nets_have_no_always_zero_unit():
    # the first layer has no tooth to sum yet, so it carries five channels
    assert square_unit_net(1e-2).dims == (1, 5, 6, 6, 1)
    rng = np.random.default_rng(5)
    for eps in (0.4, 1e-1, 1e-2, 1e-4):
        assert _dead_rows(square_unit_net(eps)) == 0
        for d in (1, 2, 3):
            _, net = weighted_square_net(rng.uniform(0.5, 2.0, size=d), 3.0, eps)
            assert _dead_rows(net) == 0


def test_square_unit_rejects_bad_eps():
    for eps in (0.0, 0.5, 1.0, -0.1):
        with pytest.raises(ValueError):
            square_unit_net(eps)


def test_weighted_square_examples():
    target, net = weighted_square_net(np.array([1.0, 1.0]), 1.0, 1e-3)
    assert target(np.array([2.0, 0.0])) == pytest.approx(2.0)
    assert target(np.array([0.5, 0.5])) == pytest.approx(0.5)


def test_weighted_square_accuracy_grid():
    beta = np.array([3.0])
    target, net = weighted_square_net(beta, 2.0, 1e-3)
    xs = np.linspace(-2.0, 2.0, 10001)
    got = realize(net, xs[:, None])[..., 0]
    assert np.max(np.abs(3.0 * xs**2 - got)) <= 3.0 * 1.0 * 4.0 * 1e-3


def test_weighted_square_error_and_size_bounds():
    rng = np.random.default_rng(23)
    for d, D, eps in [(1, 1.0, 1e-2), (3, 2.0, 1e-3), (5, 0.5, 1e-1)]:
        beta = rng.uniform(0.5, 2.0, size=d)
        target, net = weighted_square_net(beta, D, eps)
        xs = rng.uniform(-2 * D, 2 * D, size=(2000, d))
        got = realize(net, xs)[..., 0]
        want = np.array([target(x) for x in xs])
        assert np.max(np.abs(got - want)) <= np.max(beta) * d * D * D * eps
        assert net.size <= weighted_square_bound(d, eps)


def test_weighted_square_truncation_structure():
    # outside the box the target grows linearly: f = D * |x| per coordinate
    target, _ = weighted_square_net(np.array([2.0]), 1.5, 1e-2)
    assert target(np.array([3.0])) == pytest.approx(2.0 * 1.5 * 3.0)
    assert target(np.array([1.0])) == pytest.approx(2.0 * 1.0)


# ------------------------------------------------------------ arch signature


def test_arch_signature_equality():
    # two networks are interchangeable in the calculus iff their dims match
    rng = np.random.default_rng(24)
    a = _random_net(rng, (2, 3, 1))
    b = _random_net(rng, (2, 3, 1))
    c = _random_net(rng, (2, 4, 1))
    assert a.dims == b.dims
    assert a.dims != c.dims
    combine([1.0, 1.0], [a, b])
    with pytest.raises(NetworkShapeError, match="identical architectures"):
        combine([1.0, 1.0], [a, c])
