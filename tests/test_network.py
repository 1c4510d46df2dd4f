"""Core network container: realization, metrics, folding, serialization."""

import os

import numpy as np
import pytest

from stiffnet import (
    Layer,
    Network,
    NetworkShapeError,
    fold_affine,
    identity_net,
    load_network,
    network_from_text,
    network_to_text,
    psi_max_net,
    realize,
    save_network,
)


def _random_net(rng, dims):
    layers = []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        layers.append(Layer(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out)))
    return Network(layers)


def test_size_counts_zero_entries():
    net = Network(
        [Layer(np.zeros((4, 3)), np.zeros(4)), Layer(np.zeros((1, 4)), np.zeros(1))]
    )
    # size is sum N_l (N_{l-1}+1) regardless of sparsity
    assert net.size == 4 * 4 + 1 * 5
    assert net.depth == 2
    assert net.dims == (3, 4, 1)


def test_identity_sizes():
    assert identity_net(3, 1).size == 3 * 3 + 3
    assert identity_net(3, 2).size == 4 * 9 + 3 * 3
    assert psi_max_net().size == 17


def test_metrics_match_shape_formula():
    rng = np.random.default_rng(0)
    for dims in [(1, 1), (2, 5, 3), (4, 4, 4, 4), (3, 7, 2, 9, 1)]:
        net = _random_net(rng, dims)
        expect = sum(b * (a + 1) for a, b in zip(dims[:-1], dims[1:]))
        assert net.size == expect
        assert net.dims == dims


def test_realize_is_piecewise_affine():
    # away from kinks, finite differences match a local affine map
    rng = np.random.default_rng(1)
    net = _random_net(rng, (3, 8, 8, 1))
    x = rng.normal(size=3)
    eps = 1e-7
    grad = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = eps
        grad[i] = (realize(net, x + e)[0] - realize(net, x - e)[0]) / (2 * eps)
    # the local affine piece predicts nearby values through the gradient
    dx = 1e-5 * rng.normal(size=3)
    pred = realize(net, x)[0] + grad @ dx
    assert abs(realize(net, x + dx)[0] - pred) < 1e-8


def test_realize_batched_matches_loop():
    rng = np.random.default_rng(2)
    net = _random_net(rng, (4, 6, 2))
    xs = rng.normal(size=(50, 4))
    batched = realize(net, xs)
    for i in range(50):
        single = realize(net, xs[i])
        # batched matmul may round differently in the last ulp
        assert np.max(np.abs(batched[i] - single)) <= 1e-13 * (
            1.0 + np.max(np.abs(single))
        )


def test_layer_shape_validation():
    with pytest.raises(NetworkShapeError):
        Network(
            [Layer(np.zeros((3, 2)), np.zeros(3)), Layer(np.zeros((1, 4)), np.zeros(1))]
        )
    with pytest.raises(NetworkShapeError):
        Layer(np.zeros((3, 2)), np.zeros(4))


def test_fold_post_scales_output():
    net = identity_net(2, 2)
    folded = fold_affine(net, "post", 2.0 * np.eye(2))
    x = np.array([1.5, -2.0])
    assert np.allclose(realize(folded, x), 2.0 * x)
    # dims unchanged except possibly the output row count (same here)
    assert folded.dims == net.dims
    assert folded.size == net.size


def test_fold_pre_implicit_projection():
    # (I + hA)^{-1} with A=diag(100), h=0.01 halves the input
    net = identity_net(1, 1)
    mat = np.array([[1.0 / (1.0 + 0.01 * 100.0)]])
    folded = fold_affine(net, "pre", mat)
    assert np.allclose(realize(folded, np.array([3.0])), np.array([1.5]))


def test_fold_commutes_with_realization():
    rng = np.random.default_rng(3)
    net = _random_net(rng, (3, 5, 4))
    mat = rng.normal(size=(3, 3))
    vec = rng.normal(size=3)
    pre = fold_affine(net, "pre", mat, vec)
    mat_o = rng.normal(size=(2, 4))
    vec_o = rng.normal(size=2)
    post = fold_affine(net, "post", mat_o, vec_o)
    xs = rng.normal(size=(200, 3))
    want_pre = realize(net, xs @ mat.T + vec)
    got_pre = realize(pre, xs)
    mag = 1.0 + np.max(np.abs(want_pre))
    assert np.max(np.abs(got_pre - want_pre)) <= 1e-12 * mag
    want_post = realize(net, xs) @ mat_o.T + vec_o
    got_post = realize(post, xs)
    mag = 1.0 + np.max(np.abs(want_post))
    assert np.max(np.abs(got_post - want_post)) <= 1e-12 * mag


def test_fold_shape_mismatch_rejected():
    net = identity_net(2, 2)
    with pytest.raises(NetworkShapeError):
        fold_affine(net, "pre", np.eye(3))
    with pytest.raises(NetworkShapeError):
        fold_affine(net, "post", np.eye(3))


def test_serialization_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    net = _random_net(rng, (3, 7, 7, 2))
    path = os.path.join(tmp_path, "net.txt")
    save_network(net, path)
    back = load_network(path)
    assert back.dims == net.dims
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)


def test_serialization_text_round_trip_extreme_values():
    net = Network(
        [
            Layer(
                np.array([[1e-308, -1e300], [np.pi, -0.0]]),
                np.array([1.0 / 3.0, 5e-324]),
            )
        ]
    )
    back = network_from_text(network_to_text(net))
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)


def test_network_from_text_rejects_truncated_file():
    text = network_to_text(identity_net(2, 2))
    cut = "\n".join(text.splitlines()[:-2]) + "\n"  # drop the last layer's bias
    with pytest.raises(ValueError, match="truncated"):
        network_from_text(cut)


def test_network_from_text_rejects_trailing_lines():
    text = network_to_text(identity_net(2, 2)) + "0x1.0p+0 0x1.0p+0\n\n"
    with pytest.raises(ValueError, match="trailing"):
        network_from_text(text)


def test_networks_are_immutable():
    net = identity_net(2, 2)
    with pytest.raises((ValueError, AttributeError)):
        net.layers[0].weight[0, 0] = 5.0
