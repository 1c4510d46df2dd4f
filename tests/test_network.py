"""Core network container: realization, metrics, folding, serialization."""

import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from stiffnet import (
    Layer,
    Network,
    NetworkShapeError,
    add_compose,
    fold_affine,
    identity_net,
    load_network,
    network_from_text,
    network_to_text,
    psi_max_net,
    realize,
    save_network,
    unstack,
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
        # each output sums its row's terms in one order, batched or not
        assert realize(net, xs[i]).tobytes() == batched[i].tobytes()


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


def _csr_product(layer, x):
    """The layer at the points x as scipy's CSR product plus the bias."""
    csr = sp.csr_array((layer.data, layer.indices, layer.indptr), shape=layer.shape)
    return (csr @ np.asarray(x).T + layer.bias[:, None]).T


def test_layer_stores_canonical_csr_and_a_dense_view():
    w = np.array([[0.0, 2.0, -0.0], [1.0, 0.0, 3.0]])
    layer = Layer(w, np.array([-0.0, 0.5]))
    assert layer.data.tolist() == [2.0, 1.0, 3.0]  # no stored zeros
    assert layer.indices.tolist() == [1, 0, 2]  # sorted within each row
    assert layer.indptr.tolist() == [0, 1, 3]
    assert np.array_equal(layer.weight, w)
    # the arrays are a canonical CSR matrix, and realize computes its product
    x = np.array([[1.0, -0.0, 2.0], [-1.0, 0.25, 0.0]])
    csr = sp.csr_array((layer.data, layer.indices, layer.indptr), shape=layer.shape)
    assert csr.has_canonical_format and csr.nnz == 3 and csr.shape == (2, 3)
    got = realize(Network([layer]), x)
    assert got.tobytes() == _csr_product(layer, x).tobytes()
    assert not np.signbit(got[0, 0])  # -0.0 * 2.0 plus the bias -0.0 is +0.0
    with pytest.raises(ValueError):
        layer.data[0] = 5.0


def test_nnz_and_nbytes_count_what_is_stored():
    net = Network(
        [
            Layer(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, -2.0]]), np.array([0.0, 0.5, 0.0])),
            Layer(np.array([[0.0, 4.0, 0.0]]), np.zeros(1)),
        ]
    )
    assert net.nnz == 2 + 1 + 1  # weight nonzeros plus nonzero biases
    # 8-byte values, 4-byte indices and row pointers, 8-byte biases
    assert net.nbytes == (2 * 12 + 4 * 4 + 3 * 8) + (1 * 12 + 2 * 4 + 1 * 8)
    assert net.size == 3 * 3 + 1 * 4


def test_text_is_version_2_and_lists_only_nonzeros():
    net = Network([Layer(np.array([[0.0, 1.5], [0.0, 0.0]]), np.array([0.0, -1.0]))])
    text = network_to_text(net)
    assert text == (
        "STIFFNET-NET v2\nlayers 1\nlayer 2 2 1\n1 0\n1\n0x1.8000000000000p+0\n"
        "bias\n0x0.0p+0 -0x1.0000000000000p+0\n"
    )
    # the same network in the dense v1 text is refused
    v1 = (
        "STIFFNET-NET v1\nlayers 1\nlayer 2 2\n0x0.0p+0 0x1.8p+0\n0x0.0p+0 0x0.0p+0\n"
        "bias\n0x0.0p+0 -0x1.0p+0\n"
    )
    with pytest.raises(ValueError, match="unsupported serialization version"):
        network_from_text(v1)


@pytest.mark.parametrize("dims", ["3000000000 1", "100000000 100000000"])
def test_a_header_the_text_cannot_back_raises_value_error(dims):
    # the counts alone would ask for up to 71 PiB; nothing is allocated
    text = "STIFFNET-NET v2\nlayers 1\nlayer %s 0\n" % dims
    with pytest.raises(ValueError):
        network_from_text(text)
    with pytest.raises(ValueError):
        network_from_text(text + "0 1\n0x1.0p+0\nbias\n0x0.0p+0\n")


def test_a_stack_fails_loudly_outside_the_builders(tmp_path):
    # two members on one pattern: member 1 stores a zero and a -0.0
    w = np.array([[[1.0, 2.0], [0.0, 3.0]], [[0.0, -0.0], [0.0, 4.0]]])
    b = np.array([[0.5, -0.0], [0.0, 1.0]])
    stack = Network([Layer(w, b), Layer(np.array([[1.0, -1.0]]), np.zeros(1))])
    assert stack.members == 2 and stack.layers[1].members is None
    assert stack.layers[0].data.shape == (2, 3)
    # the dense view works on a stack, and a stored zero reads as +0.0
    dense = stack.layers[0].weight
    assert dense.shape == (2, 2, 2)
    assert np.array_equal(dense, w) and not np.signbit(dense[1, 0, 1])
    for call in (
        lambda: realize(stack, np.zeros(2)),
        lambda: realize(Network(stack.layers[:1]), np.zeros(2)),
        lambda: network_to_text(stack),
        lambda: save_network(stack, os.path.join(tmp_path, "stack.txt")),
    ):
        with pytest.raises(NetworkShapeError, match="stack"):
            call()
    # each member on its own is a canonical single network
    one, two = unstack(stack)
    want = Network([Layer(w[0], b[0]), stack.layers[1]])
    assert network_to_text(one) == network_to_text(want)
    assert two.layers[0].data.tolist() == [4.0] and two.layers[1] is stack.layers[1]
    np.testing.assert_array_equal(realize(two, np.ones(2)), [-5.0])
    # each member's layer computes its CSR product, bit for bit
    x = np.array([[1.0, 2.0], [-0.0, 0.5]])
    for member in (one, two):
        first = member.layers[0]
        assert realize(Network([first]), x).tobytes() == _csr_product(first, x).tobytes()


def test_realize_takes_an_empty_batch_and_a_layer_without_rows():
    net = Network([Layer(np.array([[1.0, 0.0], [0.0, -2.0], [0.0, 0.0]]), np.ones(3))])
    for x in (np.zeros((0, 2)), np.zeros((4, 0, 2))):
        assert realize(net, x).shape == x.shape[:-1] + (3,)
    # a layer of no rows gives no outputs, and the next layer reads no inputs
    empty = Layer(np.zeros((0, 2)), np.zeros(0))
    x = np.array([[1.0, -3.0], [0.5, 2.0]])
    assert realize(Network([empty]), x).shape == (2, 0)
    after = Layer(np.zeros((2, 0)), np.array([-0.0, 1.5]))
    got = realize(Network([empty, after]), x)
    assert got.tobytes() == _csr_product(after, np.zeros((2, 0))).tobytes()
    assert not np.signbit(got).any()  # the bias -0.0 plus a sum of no terms is +0.0


def test_a_layer_shared_by_two_networks_realizes_in_each():
    # the first layers rank their rows differently; each network gives its
    # CSR product, in any call order
    shared = Layer(np.array([[1.0, 0.0, -2.0, 0.5], [0.0, 3.0, 0.0, 0.0]]), [0.25, -1.0])
    firsts = [
        Layer(np.array([[1.0, 0.0], [2.0, -1.0], [0.0, 0.0], [0.5, 4.0]]), np.zeros(4)),
        Layer(np.array([[1.5, -1.0], [0.0, 0.0], [0.0, 2.0], [-3.0, 1.0]]), np.ones(4)),
    ]
    nets = [Network([first, shared]) for first in firsts]
    x = np.random.default_rng(6).normal(size=(5, 2))
    for net in nets + nets + nets[::-1]:
        first = net.layers[0]
        want = _csr_product(shared, np.maximum(_csr_product(first, x), 0.0))
        assert realize(net, x).tobytes() == want.tobytes()


def test_realize_holds_about_one_output_of_temporaries():
    # 2048 rows of 8 terms at 4096 points: gathering every term of the layer
    # at once would take 8 outputs; realize stays below 3
    rng = np.random.default_rng(3)
    rows, fan_in, terms, points = 2048, 64, 8, 4096
    cols = np.sort(rng.random((rows, fan_in)).argsort(axis=1)[:, :terms], axis=1)
    weight = np.zeros((rows, fan_in))
    np.put_along_axis(weight, cols, rng.normal(size=(rows, terms)), axis=1)
    net = Network([Layer(weight, rng.normal(size=rows))])
    x = rng.normal(size=(points, fan_in))
    tracemalloc.start()
    try:
        out = realize(net, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (points, rows)
    assert peak < 3 * out.nbytes


def test_stacked_parts_must_agree_on_the_member_count():
    with pytest.raises(NetworkShapeError, match="member count"):
        Layer(np.zeros((2, 1, 1)), np.zeros((3, 1)))
    with pytest.raises(NetworkShapeError, match="member count"):
        Network([Layer(np.ones((2, 1, 1)), np.zeros(1)), Layer(np.ones((3, 1, 1)), [0.0])])
    # one member per row of u and coeffs, and as many rows as the base has members
    base = Network([Layer(np.ones((2, 1, 1)), np.zeros(1))])
    branch = Network([Layer(np.ones((1, 2)), np.zeros(1))])
    with pytest.raises(NetworkShapeError, match="member count"):
        add_compose(base, [branch], np.zeros((3, 1)))
    with pytest.raises(NetworkShapeError, match="member count"):
        add_compose(base, [branch], np.zeros(1), np.ones((3, 1)))
