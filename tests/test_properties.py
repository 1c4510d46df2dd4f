"""Property tests: serialization round-trips, hostile text, affine folding."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stiffnet import Layer, Network, fold_affine, network_from_text, network_to_text, realize

# fixed derandomized settings keep the suite deterministic run to run
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
SMALL_FLOAT = st.floats(min_value=-2.0, max_value=2.0)
# characters a mutation may write: the format's own alphabet plus a stranger
TEXT_CHARS = list("0123456789abcdefxp+-. \nZ")


@st.composite
def networks(draw, elements=ANY_FLOAT, max_depth=4, max_width=5):
    dims = draw(st.lists(st.integers(1, max_width), min_size=2, max_size=max_depth + 1))
    layers = [
        Layer(
            draw(arrays(np.float64, (n_out, n_in), elements=elements)),
            draw(arrays(np.float64, (n_out,), elements=elements)),
        )
        for n_in, n_out in zip(dims[:-1], dims[1:])
    ]
    return Network(layers)


def _parses_or_value_error(text):
    try:
        network_from_text(text)
    except ValueError:
        pass


@PROPERTY
@given(networks())
def test_text_round_trip_is_bit_exact(net):
    back = network_from_text(network_to_text(net))
    assert back.dims == net.dims
    for a, b in zip(net.layers, back.layers):
        assert a.weight.tobytes() == b.weight.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()


@PROPERTY
@given(networks(), st.data())
def test_text_missing_lines_raises_value_error(net, data):
    lines = network_to_text(net).splitlines()
    keep = data.draw(st.integers(0, len(lines) - 1))
    text = "\n".join(lines[:keep])
    try:
        network_from_text(text)
    except ValueError:
        return
    raise AssertionError("a file cut to %d of %d lines parsed" % (keep, len(lines)))


@PROPERTY
@given(networks(), st.data())
def test_text_cut_anywhere_raises_only_value_error(net, data):
    text = network_to_text(net)
    _parses_or_value_error(text[: data.draw(st.integers(0, len(text) - 1))])


@PROPERTY
@given(networks(), st.data())
def test_text_mutated_raises_only_value_error(net, data):
    text = list(network_to_text(net))
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(text) - 1))
        text[pos] = data.draw(st.sampled_from(TEXT_CHARS))
    _parses_or_value_error("".join(text))


@PROPERTY
@given(networks(elements=SMALL_FLOAT), st.data())
def test_fold_affine_commutes_with_realize(net, data):
    d_in, d_out = net.dim_in, net.dim_out
    xs = data.draw(arrays(np.float64, (8, d_in), elements=SMALL_FLOAT))
    pre_mat = data.draw(arrays(np.float64, (d_in, d_in), elements=SMALL_FLOAT))
    pre_vec = data.draw(arrays(np.float64, (d_in,), elements=SMALL_FLOAT))
    post_mat = data.draw(arrays(np.float64, (3, d_out), elements=SMALL_FLOAT))
    post_vec = data.draw(arrays(np.float64, (3,), elements=SMALL_FLOAT))

    pre = realize(fold_affine(net, "pre", pre_mat, pre_vec), xs)
    want_pre = realize(net, xs @ pre_mat.T + pre_vec)
    post = realize(fold_affine(net, "post", post_mat, post_vec), xs)
    want_post = realize(net, xs) @ post_mat.T + post_vec
    for got, want in ((pre, want_pre), (post, want_post)):
        assert np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))
