"""Property tests: serialization round-trips, the row writers against
``float.hex`` and ``str``, hostile text, affine folding,
realize against a CSR product, every calculus construction against its
pointwise formula, and stacks against their members built one at a time."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stiffnet import (
    Layer,
    Network,
    add_compose,
    combine,
    compose,
    fold_affine,
    max_tree,
    min_tree,
    network_from_text,
    network_to_text,
    parallel_shared,
    realize,
    square_unit_net,
    unstack,
    weighted_square_net,
)
from stiffnet.calculus import _stacked_layers
from stiffnet.network import _dense, _hex_row, _int_row, _parse_ints

# fixed derandomized settings keep the suite deterministic run to run
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
SMALL_FLOAT = st.floats(min_value=-2.0, max_value=2.0)
# characters a mutation may write: the format's own alphabet plus a stranger
TEXT_CHARS = list("0123456789abcdefxp+-. \nZ")


def _net_of(draw, dims, elements=SMALL_FLOAT):
    layers = [
        Layer(
            draw(arrays(np.float64, (n_out, n_in), elements=elements)),
            draw(arrays(np.float64, (n_out,), elements=elements)),
        )
        for n_in, n_out in zip(dims[:-1], dims[1:])
    ]
    return Network(layers)


def _dims(draw, max_depth=4, max_width=5):
    return draw(st.lists(st.integers(1, max_width), min_size=2, max_size=max_depth + 1))


@st.composite
def networks(draw, elements=ANY_FLOAT, max_depth=4, max_width=5):
    return _net_of(draw, _dims(draw, max_depth=max_depth, max_width=max_width), elements)


def _parses_or_value_error(text):
    try:
        network_from_text(text)
    except ValueError:
        pass


@PROPERTY
@given(networks())
def test_text_round_trip_is_bit_exact(net):
    text = network_to_text(net)
    back = network_from_text(text)
    assert text.startswith("STIFFNET-NET v2\n")
    assert network_to_text(back) == text  # one text per network
    assert back.dims == net.dims
    for a, b in zip(net.layers, back.layers):
        assert a.weight.tobytes() == b.weight.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()


# the ends of each float64 range: signed zeros, the smallest and largest
# subnormal, the smallest normal and the largest finite value
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308]
FLOAT_EDGES += [1.7976931348623157e308, -1.7976931348623157e308]
FLOAT_BITS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(np.float64))),
    st.sampled_from(FLOAT_EDGES),
).filter(np.isfinite)
INT64_EDGES = [0, 9, 10, 99, 100, 10**4, 10**6, 10**7 - 1, 10**18, 2**63 - 1]


def test_row_writers_write_an_empty_row_as_nothing():
    assert _hex_row(np.zeros(0)) == ""
    assert _int_row(np.zeros(0, dtype=np.int32)) == ""


@PROPERTY
@given(st.lists(FLOAT_BITS, max_size=40))
def test_hex_row_is_float_hex_joined(values):
    assert _hex_row(np.array(values, dtype=np.float64)) == " ".join(map(float.hex, values))


def test_hex_row_writes_the_range_ends_as_float_hex():
    for values in [FLOAT_EDGES] + [[v] for v in FLOAT_EDGES]:
        assert _hex_row(np.array(values)) == " ".join(map(float.hex, values))


@PROPERTY
@given(
    st.lists(
        st.one_of(
            st.integers(0, 2**63 - 1),
            st.integers(10**4, 10**7 - 1),  # column indices of the paper-scale nets
            st.integers(0, 99),
            st.sampled_from(INT64_EDGES),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_int_row_is_str_joined_and_reads_back(values):
    want = " ".join(map(str, values))
    assert _int_row(np.array(values, dtype=np.int64)) == want
    assert _parse_ints(want, len(values), "ints").tolist() == values
    if max(values) < 2**31:  # the index arrays of a layer are int32
        assert _int_row(np.array(values, dtype=np.int32)) == want


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
@given(networks(), st.data())
def test_text_with_a_non_finite_value_raises_value_error(net, data):
    lines = network_to_text(net).splitlines()
    rows = [i for i, ln in enumerate(lines) if ln.startswith(("0x", "-0x"))]
    i = data.draw(st.sampled_from(rows))
    values = lines[i].split()
    values[data.draw(st.integers(0, len(values) - 1))] = data.draw(
        st.sampled_from(["inf", "-inf", "nan"])
    )
    lines[i] = " ".join(values)
    with pytest.raises(ValueError):
        network_from_text("\n".join(lines))


def _nonzero_layer_heads(lines):
    """Line numbers of the headers of layers that store nonzeros."""
    heads, i = [], 2
    while i < len(lines):
        nnz = int(lines[i].split()[3])
        if nnz:
            heads.append(i)
        # header, row counts, [columns, values,] bias marker, bias
        i += 4 + 2 * (nnz > 0)
    return heads


V2_BREAKS = [
    "column out of range",
    "columns unsorted",
    "column repeated",
    "stored zero",
    "nnz mismatch",
    "row count mismatch",
]


@pytest.mark.parametrize("kind", V2_BREAKS)
@PROPERTY
@given(net=networks(elements=SMALL_FLOAT), data=st.data())
def test_v2_text_breaking_the_csr_rules_raises_value_error(kind, net, data):
    lines = network_to_text(net).splitlines()
    heads = _nonzero_layer_heads(lines)
    assume(heads)
    head = data.draw(st.sampled_from(heads))
    rows, cols, nnz = (int(v) for v in lines[head].split()[1:])
    counts = [int(v) for v in lines[head + 1].split()]
    columns = [int(v) for v in lines[head + 2].split()]
    values = lines[head + 3].split()
    starts = np.cumsum([0] + counts)
    k = data.draw(st.integers(0, nnz - 1))
    if kind == "column out of range":
        columns[k] = data.draw(st.sampled_from([-1, cols]))
    elif kind in ("columns unsorted", "column repeated"):
        pairs = [i for r in range(rows) for i in range(starts[r], starts[r + 1] - 1)]
        assume(pairs)
        i = data.draw(st.sampled_from(pairs))
        if kind == "columns unsorted":
            columns[i], columns[i + 1] = columns[i + 1], columns[i]
        else:
            columns[i + 1] = columns[i]
    elif kind == "stored zero":
        values[k] = data.draw(st.sampled_from(["0x0.0p+0", "-0x0.0p+0"]))
    elif kind == "nnz mismatch":
        nnz += data.draw(st.sampled_from([-1, 1]))
        lines[head] = "layer %d %d %d" % (rows, cols, nnz)
    else:
        counts[data.draw(st.integers(0, rows - 1))] += 1
    lines[head + 1] = " ".join(map(str, counts))
    lines[head + 2] = " ".join(map(str, columns))
    lines[head + 3] = " ".join(values)
    with pytest.raises(ValueError):
        network_from_text("\n".join(lines))


@PROPERTY
@given(networks(elements=SMALL_FLOAT), st.data())
def test_realize_batch_equals_single_points(net, data):
    n_points = data.draw(st.integers(1, 6))
    xs = data.draw(arrays(np.float64, (n_points, net.dim_in), elements=SMALL_FLOAT))
    batch = realize(net, xs)
    assert batch.shape == (n_points, net.dim_out)
    assert batch.tobytes() == np.stack([realize(net, x) for x in xs]).tobytes()


def _csr_realize(net, x):
    """realize as scipy's CSR product evaluates it: the reference for its bits.

    Each output starts at +0.0, adds its row's products in column order, and
    then the bias.
    """
    h = np.ascontiguousarray(np.reshape(x, (-1, net.dim_in)).T)
    with np.errstate(all="ignore"):
        for i, layer in enumerate(net.layers):
            h = sp.csr_array((layer.data, layer.indices, layer.indptr), shape=layer.shape) @ h
            h += layer.bias[:, None]
            if i < net.depth - 1:
                np.maximum(h, 0.0, out=h)
    return np.ascontiguousarray(h.T)


# inputs at which products and sums follow the special cases of IEEE arithmetic
SPECIAL_INPUTS = [np.inf, -np.inf, np.nan, -0.0, 0.0]


@st.composite
def csr_cases(draw):
    """A network of canonical layers, and points to realize it at.

    Rows hold 0 to 800 terms, in counts that interleave, and may repeat with
    a short period; weights are either a few values, -0.0 among them
    (canonical layers drop it), or spread over many magnitudes; biases hold
    -0.0; inputs hold infinities, NaN and -0.0.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(1, 3))
    dims = [draw(st.sampled_from([1, 3, 40, 900]))]
    dims += [draw(st.integers(1, 48)) for _ in range(depth)]
    layers = []
    for fan_in, rows in zip(dims[:-1], dims[1:]):
        counts = draw(
            st.lists(
                st.one_of(st.just(0), st.integers(1, 8), st.integers(9, 800)),
                min_size=rows,
                max_size=rows,
            )
        )
        weight = np.zeros((rows, fan_in))
        few = draw(st.booleans())
        for row, count in enumerate(counts):
            cols = rng.choice(fan_in, min(count, fan_in), replace=False)
            if few:
                weight[row, cols] = rng.choice([1.0, -1.0, 0.5, -0.0, 3.0], len(cols))
            else:
                scale = 10.0 ** rng.integers(-3, 4, len(cols))
                weight[row, cols] = rng.normal(size=len(cols)) * scale
        # rows that repeat with a period, as the calculus builds them
        weight = weight[np.arange(rows) % draw(st.sampled_from([rows, 1, 2, 3]))]
        if draw(st.booleans()):
            bias = np.full(rows, rng.choice([0.0, -0.0, 1.5]))
        else:
            bias = rng.normal(size=rows)
            bias[rng.random(rows) < 0.3] = -0.0
        layers.append(Layer(weight, bias))
    points = draw(st.sampled_from([1, 2, 20, 257]))
    x = rng.normal(size=(points, dims[0]))
    special = rng.random(x.shape) < 0.05
    x[special] = rng.choice(SPECIAL_INPUTS, int(special.sum()))
    return Network(layers), x


def _assert_same_bits(got, want):
    """Equal bits, -0.0 and infinities included, and NaN where NaN is.

    When both operands of a sum are NaN, which one's sign and payload the
    result keeps depends on how a loop orders its operands, so NaN bits are
    not compared.
    """
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].view(np.uint64).tolist() == want[~nan].view(np.uint64).tolist()


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(csr_cases())
def test_realize_is_the_csr_product_bit_for_bit(case):
    net, x = case
    got = realize(net, x)
    _assert_same_bits(got, _csr_realize(net, x))
    # and a batch gives the bits of its points one at a time
    _assert_same_bits(np.array([realize(net, point) for point in x]), got)


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


# ---------------------------------------------------------------- calculus


def _inputs(data, d, scale=2.0):
    elements = st.floats(min_value=-scale, max_value=scale)
    return data.draw(arrays(np.float64, (8, d), elements=elements))


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))


@PROPERTY
@given(st.data())
def test_combine_is_the_weighted_sum(data):
    dims = _dims(data.draw)
    nets = [_net_of(data.draw, dims) for _ in range(data.draw(st.integers(1, 4)))]
    coeffs = data.draw(st.lists(SMALL_FLOAT, min_size=len(nets), max_size=len(nets)))
    xs = _inputs(data, dims[0])
    want = sum(c * realize(n, xs) for c, n in zip(coeffs, nets))
    _assert_close(realize(combine(coeffs, nets), xs), want)


@PROPERTY
@given(st.data())
def test_parallel_shared_stacks_the_outputs(data):
    dims = _dims(data.draw)
    a, b = _net_of(data.draw, dims), _net_of(data.draw, dims)
    xs = _inputs(data, dims[0])
    want = np.concatenate([realize(a, xs), realize(b, xs)], axis=-1)
    _assert_close(realize(parallel_shared(a, b), xs), want)


def _with_inert_rows(draw, branch, d):
    """The branch with, at random, first-layer rows that read no state (its
    first d inputs) and first-layer rows that the next layer does not read."""
    if branch.depth == 1:
        return branch
    first, nxt = branch.layers[:2]
    state_free = draw(arrays(np.bool_, first.fan_out))
    unread = draw(arrays(np.bool_, first.fan_out))
    w, w_next = np.array(first.weight), np.array(nxt.weight)
    w[state_free, :d] = 0.0
    w_next[..., unread] = 0.0
    layers = [Layer(w, first.bias), Layer(w_next, nxt.bias)]
    return Network(layers + list(branch.layers[2:]))


@pytest.mark.parametrize("branch_depth", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_add_compose_adds_the_branches(branch_depth, data):
    d = data.draw(st.integers(1, 3))
    d_aux = data.draw(st.integers(1, 2))
    base_hidden = data.draw(st.lists(st.integers(1, 5), max_size=2))
    base = _net_of(data.draw, [d] + base_hidden + [d])
    hidden = [data.draw(st.integers(1, 4)) for _ in range(branch_depth - 1)]
    n_branches = data.draw(st.integers(1, 3))
    branches = [
        _with_inert_rows(data.draw, _net_of(data.draw, [d + d_aux] + hidden + [d]), d)
        for _ in range(n_branches)
    ]
    u = data.draw(arrays(np.float64, (d_aux,), elements=SMALL_FLOAT))
    coeffs = data.draw(st.lists(SMALL_FLOAT, min_size=n_branches, max_size=n_branches))
    xs = _inputs(data, d)
    mid = realize(base, xs)
    zu = np.concatenate([mid, np.broadcast_to(u, mid.shape[:-1] + (d_aux,))], axis=-1)
    want = mid + sum(c * realize(br, zu) for c, br in zip(coeffs, branches))
    net = add_compose(base, branches, u, coeffs)
    assert net.depth == base.depth + branch_depth - 1
    _assert_close(realize(net, xs), want)


@PROPERTY
@given(st.data())
def test_max_and_min_trees_are_the_pointwise_extremes(data):
    dims = _dims(data.draw, max_depth=3)[:-1] + [1]
    n_leaves = data.draw(st.integers(1, 5))
    leaves = [_net_of(data.draw, dims) for _ in range(n_leaves)]
    xs = _inputs(data, dims[0])
    vals = np.stack([realize(n, xs)[:, 0] for n in leaves])
    _assert_close(realize(max_tree(leaves), xs)[:, 0], vals.max(axis=0))
    _assert_close(realize(min_tree(leaves), xs)[:, 0], vals.min(axis=0))


@PROPERTY
@given(
    st.lists(SMALL_FLOAT, min_size=1, max_size=3),
    st.floats(min_value=0.5, max_value=3.0),
    st.sampled_from([1e-1, 1e-2, 1e-3]),
    st.data(),
)
def test_weighted_square_net_is_the_scaled_unit_square(beta, radius, eps, data):
    beta = np.array(beta)
    d = len(beta)
    target, net = weighted_square_net(beta, radius, eps)
    xs = _inputs(data, d, scale=3.0 * radius)
    # sum_m beta_m D^2 q(|x_m| / D), with q the unit square net
    unit = realize(square_unit_net(eps), np.abs(xs)[..., None] / radius)[..., 0]
    want = (radius * radius * unit) @ beta
    got = realize(net, xs)[:, 0]
    _assert_close(got, want)
    gap = np.max(np.abs(got - target(xs)))
    assert gap <= np.max(np.abs(beta)) * d * radius**2 * eps * (1 + 1e-9) + 1e-12


# ---------------------------------------------------------------- stacks

# exact zeros of both signs and small integers, so members' zero patterns
# diverge and products cancel exactly
STACK_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5]), SMALL_FLOAT)


def _stack_of(draw, dims, members):
    """A stack of random networks and its members built as single networks.

    Each layer is stacked or, at random, shared by every member; stacked
    values and biases may differ in their zeros from member to member.
    """
    stacked, single = [], [[] for _ in range(members)]
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        lead = (members,) if draw(st.booleans()) else ()
        w = draw(arrays(np.float64, lead + (n_out, n_in), elements=STACK_FLOAT))
        b = draw(arrays(np.float64, lead + (n_out,), elements=STACK_FLOAT))
        stacked.append(Layer(w, b))
        for s in range(members):
            single[s].append(Layer(w[s], b[s]) if lead else stacked[-1])
    return Network(stacked), [Network(layers) for layers in single]


def _assert_members_match(stack, singles):
    """Each member of the stack has its single network's text."""
    members = unstack(stack)
    assert len(members) == len(singles)
    for got, want in zip(members, singles):
        assert network_to_text(got) == network_to_text(want)


@PROPERTY
@given(st.data())
def test_stacked_layers_lay_members_out_on_the_union_of_their_patterns(data):
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    q = data.draw(st.integers(1, 3))
    layers = []
    for _ in range(data.draw(st.integers(1, 4))):
        lead = (q,) if data.draw(st.booleans()) else ()
        # sparse values, so rows and whole layers often store no weight
        values = st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.0, -0.5])
        w = data.draw(arrays(np.float64, lead + (rows, cols), elements=values))
        layers.append(Layer(w, np.zeros(lead + (rows,))))
    got = _stacked_layers(layers, q)
    keys = [np.repeat(np.arange(rows), np.diff(l.indptr)) * cols + l.indices for l in layers]
    union = np.unique(np.concatenate(keys))
    assert np.array_equal(got.indices, union % cols)
    assert np.array_equal(got.indptr, np.searchsorted(union, np.arange(rows + 1) * cols))
    # member k q + s is member s of layers[k], a single layer counting as q equal ones
    want = np.concatenate([np.broadcast_to(_dense(l), (q, rows, cols)) for l in layers])
    assert np.array_equal(np.broadcast_to(_dense(got), want.shape), want)


@PROPERTY
@given(st.data())
def test_unstack_gives_the_members_in_canonical_form(data):
    members = data.draw(st.integers(1, 4))
    stack, singles = _stack_of(data.draw, _dims(data.draw), members)
    assume(stack.members is not None)
    _assert_members_match(stack, singles)


@pytest.mark.parametrize("branch_depth", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_add_compose_on_a_stack_is_add_compose_per_member(branch_depth, data):
    members = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(1, 3))
    d_aux = data.draw(st.integers(1, 2))
    base_hidden = data.draw(st.lists(st.integers(1, 4), max_size=2))
    base, base_members = _stack_of(data.draw, [d] + base_hidden + [d], members)
    hidden = [data.draw(st.integers(1, 4)) for _ in range(branch_depth - 1)]
    k = data.draw(st.integers(1, 3))
    dims = [d + d_aux] + hidden + [d]
    branches = [
        _with_inert_rows(data.draw, _net_of(data.draw, dims, STACK_FLOAT), d)
        for _ in range(k)
    ]
    u = data.draw(arrays(np.float64, (members, d_aux), elements=STACK_FLOAT))
    coeffs = data.draw(arrays(np.float64, (members, k), elements=STACK_FLOAT))
    stack = add_compose(base, branches, u, coeffs)
    _assert_members_match(
        stack,
        [add_compose(b, branches, u[s], coeffs[s]) for s, b in enumerate(base_members)],
    )


@PROPERTY
@given(st.data())
def test_fold_affine_on_a_stack_is_fold_affine_per_member(data):
    members = data.draw(st.integers(1, 4))
    dims = _dims(data.draw)
    stack, singles = _stack_of(data.draw, dims, members)
    assume(stack.members is not None)
    rows = data.draw(st.integers(1, 3))
    post = data.draw(arrays(np.float64, (rows, dims[-1]), elements=STACK_FLOAT))
    post_vec = data.draw(arrays(np.float64, (rows,), elements=STACK_FLOAT))
    pre = data.draw(arrays(np.float64, (dims[0], rows), elements=STACK_FLOAT))
    pre_vec = data.draw(arrays(np.float64, (dims[0],), elements=STACK_FLOAT))
    _assert_members_match(
        fold_affine(stack, "post", post, post_vec),
        [fold_affine(net, "post", post, post_vec) for net in singles],
    )
    _assert_members_match(
        fold_affine(stack, "pre", pre, pre_vec),
        [fold_affine(net, "pre", pre, pre_vec) for net in singles],
    )


@PROPERTY
@given(st.data())
def test_compose_of_a_shared_outer_and_a_stack_is_compose_per_member(data):
    members = data.draw(st.integers(1, 4))
    dims = _dims(data.draw)
    stack, singles = _stack_of(data.draw, dims, members)
    assume(stack.members is not None)
    outer = _net_of(data.draw, [dims[-1]] + _dims(data.draw)[1:], STACK_FLOAT)
    _assert_members_match(compose(outer, stack), [compose(outer, net) for net in singles])


@PROPERTY
@given(st.data())
def test_combine_of_stacks_is_combine_per_member(data):
    members = data.draw(st.integers(1, 4))
    dims = _dims(data.draw)
    n_nets = data.draw(st.integers(1, 3))
    pairs = [_stack_of(data.draw, dims, members) for _ in range(n_nets)]
    assume(any(stack.members is not None for stack, _ in pairs))
    coeffs = data.draw(st.lists(STACK_FLOAT, min_size=n_nets, max_size=n_nets))
    _assert_members_match(
        combine(coeffs, [stack for stack, _ in pairs]),
        [combine(coeffs, [singles[s] for _, singles in pairs]) for s in range(members)],
    )
