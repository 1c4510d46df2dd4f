"""Constructive calculus on ReLU networks.

Every operation here builds explicit weight matrices so that the realization
of the result equals the stated combination of the input realizations
exactly, not approximately.  Alongside each construction we keep the
conservative parameter-count bound it satisfies; callers (and the test
suite) assert those bounds as hard integer inequalities.

Conventions used throughout:

* an input value y is carried through hidden ReLU layers as the pair
  (relu(y), relu(-y)), recovered by the affine map [I, -I];
* compositions insert that carrier pair at the seam, which is why composing
  nets of depths L1 and L2 yields depth L1+L2 and at most twice the summed
  size;
* linear combinations and parallelizations stack first layers and
  block-diagonalize the rest.

Weights are CSR (see ``network``).  The block builders below assemble the
result's values, column indices and row pointers from the blocks' arrays
with offset arithmetic, so no stacked or block-diagonal matrix is ever
dense; only thin products (the add_compose seam) are formed densely.

Every construction also takes stacks (see ``network``): the pattern
arithmetic runs once and the values of all members move together, so
member s of the result is, bit for bit, the construction applied to the
members s of its operands.  Parts a stack shares broadcast over its
members, and add_compose takes its constants and weights per member.
"""

import functools
import itertools
import math

import numpy as np

from .network import (
    Layer,
    Network,
    NetworkShapeError,
    _csr,
    _dense,
    _freeze,
    _matvec,
    _member_count,
    _take,
    fold_affine,
    unstack,
)

__all__ = [
    "identity_net",
    "extend_depth",
    "widen_layer",
    "compose",
    "combine",
    "parallel_shared",
    "add_compose",
    "add_compose_bound",
    "psi_max_net",
    "max_tree",
    "min_tree",
    "max_tree_bound",
    "infsup_net",
    "square_unit_net",
    "weighted_square_net",
    "weighted_square_bound",
    "SQUARE_SIZE_COEFF",
]


def _require_same_arch(nets, what):
    for n in nets[1:]:
        if n.dims != nets[0].dims:
            raise NetworkShapeError(
                "%s requires identical architectures: %s vs %s"
                % (what, nets[0].dims, n.dims)
            )


def _cat(parts, axis=-1):
    """np.concatenate along `axis`, parts shared by a stack broadcast over it."""
    lead = max((p.shape[:axis] for p in parts), key=len)
    return np.concatenate(
        [p if p.ndim == len(lead) - axis else np.broadcast_to(p, lead + p.shape[axis:])
         for p in parts],
        axis,
    )


def _scaled(coeffs, mats):
    """The blocks' values times their coefficients, concatenated.

    A coefficient is a number or, for a stack, an (S, 1) column.
    """
    return _cat(
        [m.data if isinstance(c, float) and c == 1 else c * m.data
         for c, m in zip(coeffs, mats)]
    )


def _rows_stacked(coeffs, mats, col_offsets, n_cols):
    """CSR of c_k W_k one under another, block k's columns shifted."""
    starts = list(itertools.accumulate([m.data.shape[-1] for m in mats], initial=0))
    data = _scaled(coeffs, mats)
    indices = np.concatenate(
        [np.add(m.indices, off, dtype=np.int64) for m, off in zip(mats, col_offsets)]
    )
    indptr = np.concatenate(
        [np.add(m.indptr[:-1], s, dtype=np.int64) for m, s in zip(mats, starts)]
        + [np.array(starts[-1:])]
    )
    return _csr(data, indices, indptr, (len(indptr) - 1, n_cols))


def _vstack(coeffs, mats):
    return _rows_stacked(coeffs, mats, [0] * len(mats), mats[0].shape[1])


def _block_diag(mats):
    offsets = list(itertools.accumulate([m.shape[1] for m in mats], initial=0))
    return _rows_stacked([1.0] * len(mats), mats, offsets[:-1], offsets[-1])


def _hstack(coeffs, mats):
    """CSR of [c_1 W_1, ..., c_k W_k]: one row set, blocks side by side."""
    offsets = list(itertools.accumulate([m.shape[1] for m in mats], initial=0))
    rows = mats[0].shape[0]
    ptrs = np.array([m.indptr for m in mats], dtype=np.int64)
    counts = (ptrs[:, 1:] - ptrs[:, :-1]).ravel()
    row_of = np.repeat(np.arange(rows * len(mats)) % rows, counts)
    # blocks come in column order, so a stable sort by row keeps each row sorted
    order = np.argsort(row_of, kind="stable")
    data = _scaled(coeffs, mats)
    indices = np.concatenate(
        [np.add(m.indices, off, dtype=np.int64) for m, off in zip(mats, offsets)]
    )
    return _csr(data[..., order], indices[order], ptrs.sum(axis=0), (rows, offsets[-1]))


# the constant blocks are read-only, so each size is built once
@functools.lru_cache(maxsize=None)
def _eye(d):
    return _csr(np.ones(d), np.arange(d), np.arange(d + 1), (d, d))


@functools.lru_cache(maxsize=None)
def _merge(d):
    """[I, -I]: recovers y from the pair (relu(y), relu(-y))."""
    return _hstack([1.0, -1.0], [_eye(d), _eye(d)])


def _carried(layer):
    """The layer's pre-activation y as the pair (y, -y), stacked."""
    return Layer(
        _vstack([1.0, -1.0], [layer, layer]),
        _cat([layer.bias, -layer.bias]),
    )


def _side_by_side(layers):
    """Block-diagonal: each layer acts on its own block of the input."""
    return Layer(_block_diag(layers), _cat([l.bias for l in layers]))


def _summed(coeffs, layers):
    """One output: sum_m coeffs[m] * layers[m] applied to its input block.

    The bias is summed left to right, starting from 0.
    """
    return Layer(
        _hstack(coeffs, layers),
        sum(c * l.bias for c, l in zip(coeffs, layers)),
    )


# --- member-axis blocks ---------------------------------------------------
#
# The members of a stack share one pattern, so a block structure over them
# tiles that pattern once and moves the values of every member in one array
# operation; no network is built per member.  `groups` is a (Q, G) integer
# array: member q of the result is built from members groups[q, 0], ...,
# groups[q, G-1] of the operand, bit for bit as the layer builders above
# would build it from those members as G single layers.  Lists of networks
# reach these builders through _stack_nets.


def _grouped(a, groups, ndim):
    """a[groups] for a stacked array (one more axis than `ndim`), else G copies of a."""
    if a.ndim > ndim:
        return a[groups]
    return np.broadcast_to(a, (groups.shape[1],) + a.shape)


def _left_sum(terms, axis):
    """The sum of `terms` along `axis`, left to right from 0, as sum() adds them."""
    zero = np.zeros_like(np.take(terms, [0], axis=axis))
    acc = np.add.accumulate(np.concatenate([zero, terms], axis=axis), axis=axis)
    return np.take(acc, -1, axis=axis)


def _member_blocks(layer, groups, col_step):
    """The rows of each group's members one under another.

    Block k's columns are shifted by k * col_step: 0 gives one shared
    input, the layer's width the block-diagonal (as ``_side_by_side``).
    """
    g = groups.shape[1]
    nnz = layer.data.shape[-1]
    block = np.arange(g)[:, None]
    indices = (layer.indices + col_step * block).ravel()
    indptr = np.append((layer.indptr[:-1] + nnz * block).ravel(), g * nnz)
    shape = (g * layer.shape[0], layer.shape[1] + (g - 1) * col_step)
    data = _grouped(layer.data, groups, 1)
    bias = _grouped(layer.bias, groups, 1)
    return Layer(
        _csr(data.reshape(data.shape[:-2] + (-1,)), indices, indptr, shape),
        bias.reshape(bias.shape[:-2] + (-1,)),
    )


def _member_sum(layer, groups, coeffs):
    """One output: sum_k coeffs[k] times member groups[q, k] on input block k.

    The layout and the left-to-right bias sum are those of ``_summed``.
    """
    g = groups.shape[1]
    rows, cols = layer.shape
    # each row holds its entries block by block, as _hstack lays them out
    row_of = np.tile(np.repeat(np.arange(rows), np.diff(layer.indptr)), g)
    order = np.argsort(row_of, kind="stable")
    indices = (layer.indices + cols * np.arange(g)[:, None]).ravel()[order]
    c = np.asarray(coeffs, dtype=np.float64)[:, None]
    data = c * _grouped(layer.data, groups, 1)
    data = data.reshape(data.shape[:-2] + (-1,))[..., order]
    indptr = g * layer.indptr.astype(np.int64)
    bias = _left_sum(c * _grouped(layer.bias, groups, 1), -2)
    return Layer(_csr(data, indices, indptr, (rows, g * cols)), bias)


def _parallel_members(layers, groups):
    """The layers of each group's members side by side on one shared input."""
    return [_member_blocks(layers[0], groups, 0)] + [
        _member_blocks(l, groups, l.fan_in) for l in layers[1:]
    ]


def _combine_members(coeffs, stack):
    """combine over the member axis: the members form len(coeffs) consecutive blocks."""
    g = len(coeffs)
    s = stack.members or g
    if s % g:
        raise ValueError("combine: %d members do not form %d equal blocks" % (s, g))
    groups = np.arange(s).reshape(g, s // g).T
    last = stack.layers[-1]
    if stack.depth == 1:
        c = np.asarray(coeffs)[:, None]
        w = _left_sum(c[..., None] * _grouped(_dense(last), groups, 2), -3)
        return Network([Layer(w, _left_sum(c * _grouped(last.bias, groups, 1), -2))])
    layers = _parallel_members(stack.layers[:-1], groups)
    return Network(layers + [_member_sum(last, groups, coeffs)])


def _stacked_layers(layers, q):
    """One layer whose members k q .. k q + q - 1 are those of layers[k].

    A single layer counts as q equal members.  The members' values are laid
    out on the union of the layers' patterns, and a single layer that every
    operand shares (the same object) stays shared.
    """
    first = layers[0]
    if first.members is None and all(l is first for l in layers):
        return first
    rows, cols = first.shape
    keys = [
        np.repeat(np.arange(rows), np.diff(l.indptr)) * cols + l.indices for l in layers
    ]
    # the union of the patterns: the first of each run of equal sorted keys
    union = np.sort(np.concatenate(keys))
    union = union[np.diff(union, prepend=-1) > 0]
    data = np.zeros((len(layers), q, len(union)))
    for block, key, l in zip(data, keys, layers):
        block[:, np.searchsorted(union, key)] = l.data
    indptr = np.searchsorted(union, np.arange(rows + 1) * cols)
    bias = np.array([np.broadcast_to(l.bias, (q, rows)) for l in layers])
    weight = _csr(data.reshape(len(layers) * q, -1), union % cols, indptr, first.shape)
    return Layer(weight, bias.reshape(-1, rows))


def _stack_nets(nets, what):
    """One stack of the nets' members, net k's q members forming block k.

    The nets share one architecture; the stacks among them share one member
    count q, and a single network counts as q equal members.
    """
    _require_same_arch(nets, what)
    q = _member_count([n.members for n in nets], "%s operands" % what) or 1
    return Network([_stacked_layers(ls, q) for ls in zip(*(n.layers for n in nets))])


def _as_operands(result, nets):
    """The single network of a one-member result when every operand is single."""
    if all(n.members is None for n in nets):
        return unstack(result)[0]
    return result


def identity_net(d, L):
    """Network of depth L realizing the identity on R^d.

    Depth 1 is the affine identity ((I, 0)).  For depth >= 2 the input is
    split into its positive and negative parts (width 2d), carried through
    L-2 inner layers unchanged, and recombined by [I, -I] at the output.
    Sizes: d^2+d at depth 1 and 4d^2+3d at depth 2.
    """
    if d < 1 or L < 1:
        raise ValueError("identity_net needs d >= 1 and L >= 1")
    eye = Layer(_eye(d), np.zeros(d))
    if L == 1:
        return Network([eye])
    layers = [_carried(eye)]
    for _ in range(L - 2):
        layers.append(Layer(_eye(2 * d), np.zeros(2 * d)))
    layers.append(Layer(_merge(d), np.zeros(d)))
    return Network(layers)


def compose(outer, inner):
    """Network realizing outer(inner(x)); depth L1+L2, size <= 2(C1+C2)."""
    if outer.dim_in != inner.dim_out:
        raise NetworkShapeError(
            "compose: outer expects %d inputs, inner produces %d"
            % (outer.dim_in, inner.dim_out)
        )
    first = outer.layers[0]
    seam_out = Layer(_hstack([1.0, -1.0], [first, first]), first.bias)
    seam_in = _carried(inner.layers[-1])
    return Network(list(inner.layers[:-1]) + [seam_in, seam_out] + list(outer.layers[1:]))


def extend_depth(net, L):
    """Same realization at depth L > depth(net).

    Implemented as composition with an identity network of the missing
    depth, so size <= 2(C(identity_net(dim_out, L-L0)) + C(net)).
    """
    if L <= net.depth:
        raise ValueError("extend_depth: target depth %d <= current %d" % (L, net.depth))
    return compose(identity_net(net.dim_out, L - net.depth), net)


def widen_layer(net, l):
    """Zero-pad hidden layer l (1-based) by one unit; realization unchanged."""
    if not 1 <= l <= net.depth - 1:
        raise ValueError("widen_layer: l must be a hidden layer index")
    layers = list(net.layers)
    cur, nxt = layers[l - 1], layers[l]
    # an empty last row, then an empty last column
    row_ptr = np.append(cur.indptr, len(cur.data))
    wider = _csr(cur.data, cur.indices, row_ptr, (cur.fan_out + 1, cur.fan_in))
    layers[l - 1] = Layer(wider, np.append(cur.bias, 0.0))
    wider = _csr(nxt.data, nxt.indices, nxt.indptr, (nxt.fan_out, nxt.fan_in + 1))
    layers[l] = Layer(wider, nxt.bias)
    return Network(layers)


def combine(coeffs, nets):
    """Network realizing sum_m coeffs[m] * nets[m](x).

    All nets must share one architecture.  Depth is unchanged; hidden
    widths multiply by M, so size <= M^2 * C(nets[0]).

    `nets` may also be one stack of M * Q members, read as the list of its
    M consecutive blocks of Q members: the result is the stack of Q
    members, member q combining members q, Q + q, ..., (M-1) Q + q.  It is
    built from the shared pattern, with no network per member.
    """
    coeffs = [float(c) for c in coeffs]
    if not coeffs:
        raise ValueError("combine: need matching nonempty coeffs and nets")
    if isinstance(nets, Network):
        return _combine_members(coeffs, nets)
    nets = list(nets)
    if len(coeffs) != len(nets):
        raise ValueError("combine: need matching nonempty coeffs and nets")
    stack = _stack_nets(nets, "combine")
    return _as_operands(_combine_members(coeffs, stack), nets)


def parallel_shared(net_a, net_b):
    """Network realizing x -> (net_a(x), net_b(x)); size <= 2(C_a + C_b)."""
    stack = _stack_nets([net_a, net_b], "parallel_shared")
    q = (stack.members or 2) // 2
    pairs = np.arange(2 * q).reshape(2, q).T
    return _as_operands(Network(_parallel_members(stack.layers, pairs)), [net_a, net_b])


# keyed by the branch object: the unroll passes the same branches at every
# step, so each branch is densified and split once per unroll
@functools.lru_cache(maxsize=256)
def _split_first(branch, d):
    """A branch's first layer as add_compose reads it: ((wx, wu, b), fold, next).

    (wx, wu, b): the dense state and constant columns and bias of the rows
    that stay.  Past depth 1, fold is (wu, b, next layer's dense columns) of
    the rows that read no state, each the constant relu(wu.u + b), and next
    the next layer on the rows that stay; rows it does not read are dropped.
    """
    first = branch.layers[0]
    w = _dense(first)
    if branch.depth == 1:
        return tuple(map(_freeze, (w[..., :d], w[..., d:], first.bias))), None, None
    nxt = branch.layers[1]
    w_next = _dense(nxt)
    reads_x = np.any(w[..., :d], axis=-1).reshape(-1, first.fan_out).any(axis=0)
    read = np.isin(np.arange(first.fan_out), nxt.indices)
    keep, fold = reads_x & read, ~reads_x & read
    stay = map(_freeze, (w[..., keep, :d], w[..., keep, d:], first.bias[..., keep]))
    folded = map(_freeze, (w[..., fold, d:], first.bias[..., fold], w_next[..., fold]))
    return tuple(stay), tuple(folded), Layer(w_next[..., keep], nxt.bias)


def add_compose(base, branches, u, coeffs=None):
    """Network realizing x -> base(x) + sum_m c_m * branch_m(base(x), u).

    base maps R^d -> R^d; every branch maps R^(d+d') -> R^d at one common
    depth L'; u in R^(d') is frozen into biases, so the architecture of the
    result does not depend on u.  The weights c_m (all ones when coeffs is
    None) scale only the output layer, so the architecture does not depend
    on them either.  Resulting depth is L_base + L' - 1.  The base value is
    carried past the branch layers as a (relu, relu-of-minus) pair, giving
    last hidden width at most 2d + sum_m N^m_(L'-1) when L' >= 2: a branch
    unit that reads no state joins the next layer's bias, and one that the
    next layer does not read is dropped.

    For a stack of S members, u may be an (S, d') array and coeffs an
    (S, k) array, one row per member; a base that is not a stack is shared
    by them.
    """
    d = base.dim_out
    if base.dim_in != d:
        raise NetworkShapeError("add_compose base must map R^d to R^d")
    branches = list(branches)
    if not branches:
        raise ValueError("add_compose needs at least one branch")
    k = len(branches)
    coeffs = np.ones(k) if coeffs is None else np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != k:
        raise ValueError("add_compose: need one coefficient per branch")
    depth_b = branches[0].depth
    for br in branches:
        if br.depth != depth_b:
            raise NetworkShapeError("add_compose branches must share one depth")
        if br.dim_out != d:
            raise NetworkShapeError("add_compose branches must output R^d")
        if br.dim_in != branches[0].dim_in:
            raise NetworkShapeError("add_compose branches must share input width")
    d_aux = branches[0].dim_in - d
    if d_aux < 1:
        raise NetworkShapeError("add_compose branches must take more inputs than R^d")
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 2:
        u = u.reshape(-1)
    if u.shape[-1] != d_aux:
        raise NetworkShapeError(
            "add_compose: u has length %d but branches expect %d" % (u.shape[-1], d_aux)
        )
    _member_count(
        [base.members] + [a.shape[0] for a in (u, coeffs) if a.ndim == 2],
        "add_compose: base, u and coeffs",
    )
    # one number per branch, or one (S, 1) column per branch for a stack
    coeffs = list(coeffs.T[..., None]) if coeffs.ndim == 2 else list(coeffs)
    splits = [_split_first(br, d) for br in branches]

    # the seam multiplies the base's last layer, which has d rows, by the
    # branches' first layers, which have d + d' columns: both are thin, so
    # the products are formed densely and the seam is stored as CSR
    w_last, b_last = _dense(base.layers[-1]), base.layers[-1].bias
    head = list(base.layers[:-1])

    if depth_b == 1:
        gain = np.eye(d)
        shift = np.zeros(d)
        for c, ((wx, wu, b), _, _) in zip(coeffs, splits):
            c_mat = np.expand_dims(c, -1)
            gain = gain + c_mat * wx
            shift = shift + _matvec(c_mat * wu, u) + c * b
        return Network(head + [Layer(gain @ w_last, _matvec(gain, b_last) + shift)])

    seam_w, seam_b = [w_last, -w_last], [b_last, -b_last]
    tails = []  # each branch's layers after its first
    for ((wx, wu, b), (fold_wu, fold_b, fold_w), nxt), br in zip(splits, branches):
        seam_w.append(wx @ w_last)
        seam_b.append(_matvec(wx, b_last) + _matvec(wu, u) + b)
        if fold_b.shape[-1]:  # the folded units' constants join the next bias
            bias = nxt.bias + _matvec(fold_w, np.maximum(_matvec(fold_wu, u) + fold_b, 0.0))
            nxt = Layer(nxt, bias)
        tails.append([nxt] + list(br.layers[2:]))
    layers = head + [Layer(_cat(seam_w, axis=-2), _cat(seam_b))]

    if depth_b > 2:
        carry = _carried(Layer(_merge(d), np.zeros(d)))
        for j in range(depth_b - 2):
            layers.append(_side_by_side([carry] + [t[j] for t in tails]))

    # the carried base value re-enters the sum with weight 1 and a zero bias
    out = [Layer(_merge(d), np.zeros(d))] + [t[-1] for t in tails]
    layers.append(_summed([1.0] + coeffs, out))
    return Network(layers)


def add_compose_bound(base, branches):
    """Size bound for add_compose when the width condition holds.

    Bound: C(base) + k^2 (sup_m C(branch_m) + C(identity_net(d,2)))^3 with
    k the branch count.  Valid for branch depth >= 2 when the base's last
    hidden width does not exceed 2d + sum of branch first hidden widths.
    """
    d = base.dim_out
    id2 = 4 * d * d + 3 * d
    k = len(branches)
    top = max(br.size for br in branches)
    return base.size + k * k * (top + id2) ** 3


_PSI_MAX_W1 = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
_PSI_MAX_W2 = np.array([[0.5, 0.5, 0.5, -0.5]])


def psi_max_net():
    """Two-layer net of size 17 realizing (a, b) -> max(a, b) exactly."""
    return Network([Layer(_PSI_MAX_W1, np.zeros(4)), Layer(_PSI_MAX_W2, np.zeros(1))])


def _tree_leaves(nets, what):
    """The leaves of a tree as one stack and the rows of each operand's members."""
    if not nets:
        raise ValueError("%s needs at least one network" % what)
    if nets[0].dim_out != 1:
        raise NetworkShapeError("%s operands must have scalar output" % what)
    leaves = _stack_nets(nets, what)
    return leaves, np.arange(leaves.members or len(nets)).reshape(len(nets), -1)


def _max_blocks(stack, blocks):
    """Member-wise maximum over the rows of `blocks`, an (n, q) array of members.

    Member i of the result is the maximum of members blocks[0, i], ...,
    blocks[n-1, i].  The rows are padded to a power of two by repeating the
    last, which the maximum ignores, and the stack is gathered once in that
    order.  Each level pairs blocks 2j and 2j+1 and composes the exact max
    net on top, so the pairs are those of max_tree's halves.
    """
    n, q = blocks.shape
    k = 1 << (n - 1).bit_length()
    order = blocks[np.minimum(np.arange(k), n - 1)].ravel()
    if stack.members is not None and not np.array_equal(order, np.arange(stack.members)):
        stack = _take(stack, order)
    while k > 1:
        k //= 2
        pairs = np.arange(2 * k * q).reshape(k, 2, q).transpose(0, 2, 1).reshape(-1, 2)
        stack = compose(psi_max_net(), Network(_parallel_members(stack.layers, pairs)))
    return stack


_NEG = np.array([[-1.0]])


def _min_blocks(stack, blocks):
    """Member-wise minimum over the rows of `blocks`, as min(f) = -max(-f)."""
    return fold_affine(_max_blocks(fold_affine(stack, "post", _NEG), blocks), "post", _NEG)


def max_tree(nets):
    """Pointwise maximum of n >= 1 same-architecture scalar nets.

    The list is padded to 2^L nets by repeating its last, which the maximum
    ignores.  Pairwise: parallelize two operands, compose with the exact
    2-input max net, recurse.  Size <= 8^L (C + 34/7) - 34/7.  The leaves
    form one stack, and each level pairs all of its operands at once.
    """
    nets = list(nets)
    leaves, blocks = _tree_leaves(nets, "max_tree")
    if len(nets) == 1:
        return nets[0]
    return _as_operands(_max_blocks(leaves, blocks), nets)


def min_tree(nets):
    """Pointwise minimum via min(f) = -max(-f); padded and bounded as max_tree."""
    nets = list(nets)
    return _as_operands(_min_blocks(*_tree_leaves(nets, "min_tree")), nets)


def _pair_stack(w_nets, n_cols):
    """(stack, rows, columns) of a grid given as lists of rows or as a stack."""
    if n_cols is not None:
        if isinstance(n_cols, bool) or not isinstance(n_cols, int) or n_cols < 1:
            raise ValueError("infsup_net: n_cols must be an int >= 1, got %r" % (n_cols,))
        if not w_nets.members or w_nets.members % n_cols:
            raise ValueError("infsup_net: the stack is not rows of %d pairs" % n_cols)
        return w_nets, w_nets.members // n_cols, n_cols
    rows = [list(row) for row in w_nets]
    if not rows or any(len(row) != len(rows[0]) for row in rows) or not rows[0]:
        raise ValueError("infsup_net needs nonempty rows of one length")
    nets = [net for row in rows for net in row]
    if any(net.members is not None for net in nets):
        raise NetworkShapeError("infsup_net takes rows of single networks")
    return _stack_nets(nets, "infsup_net"), len(rows), len(rows[0])


def infsup_net(w_nets, n_cols=None):
    """min over rows of max over columns of a 2-D grid of value networks.

    w_nets is a list (player-1 strategies) of equal-length lists
    (player-2 strategies) of same-architecture single scalar networks, or
    the stack of them in row-major order, as pair_value_nets returns it,
    with the row length n_cols.  One max tree over the columns and one min
    tree over the row maxima, padded as max_tree pads; the grid stays one
    stack, and each level pairs all of its members at once.
    """
    stack, n_rows, n_cols = _pair_stack(w_nets, n_cols)
    # column j's members are the entries (i, j) of every row i
    columns = np.arange(n_cols)[:, None] + n_cols * np.arange(n_rows)
    row_max = _max_blocks(stack, columns)
    return unstack(_min_blocks(row_max, np.arange(n_rows)[:, None]))[0]


def max_tree_bound(leaf_size, n_levels):
    """The 8^n (C + 34/7) - 34/7 size bound, as an exact int.

    7 divides 8^n (7 C + 34) - 34 because 8 is 1 modulo 7.
    """
    return (8**n_levels * (7 * leaf_size + 34) - 34) // 7


def _sawtooth_terms(eps):
    if not 0.0 < eps < 0.5:
        raise ValueError("accuracy must lie in (0, 1/2)")
    return max(1, math.ceil(0.5 * math.log2(1.0 / eps)) - 1)


def square_unit_net(eps):
    """ReLU net approximating x^2 on [0,1] within eps, exact elsewhere.

    Uses the sawtooth interpolant f_S(x) = x - sum_(s=1..S) g_s(x)/4^s,
    where g is the tooth 2*relu(x) - 4*relu(x-1/2) + 2*relu(x-1) and g_s is
    its s-fold self-composition.  f_S interpolates x^2 at the dyadic nodes
    k*2^-S (error exactly 0 there) and deviates at most 4^-(S+1) <= eps in
    between; outside [0,1] every tooth vanishes and f_S(x) = x.

    The hidden layers after the first carry six channels: relu(x),
    relu(-x) (the input carrier), the accumulated nonnegative tooth sum,
    and the three ReLU units that feed the next tooth.  The first layer has
    no tooth to sum yet, so it carries the other five.  Depth S+1, so size
    is O(log(1/eps)).
    """
    s_terms = _sawtooth_terms(eps)
    tooth = np.array([2.0, -4.0, 2.0])
    offsets = np.array([0.0, -0.5, -1.0])

    first_w = np.array([[1.0], [-1.0], [1.0], [1.0], [1.0]])
    first_b = np.array([0.0, 0.0, 0.0, -0.5, -1.0])
    rest = []
    for k in range(2, s_terms + 1):
        w = np.zeros((6, 6))
        b = np.zeros(6)
        w[0, 0] = 1.0
        w[1, 1] = 1.0
        w[2, 2] = 1.0
        w[2, 3:6] = tooth / 4.0 ** (k - 1)
        for row in range(3):
            w[3 + row, 3:6] = tooth
            b[3 + row] = offsets[row]
        rest.append((w, b))

    out_w = np.zeros((1, 6))
    out_w[0, 0] = 1.0
    out_w[0, 1] = -1.0
    out_w[0, 2] = -1.0
    out_w[0, 3:6] = -tooth / 4.0**s_terms
    rest.append((out_w, np.zeros(1)))
    # the first layer has no sum channel, so drop the column that reads it
    w, b = rest[0]
    rest[0] = (np.delete(w, 2, axis=1), b)
    return Network([Layer(first_w, first_b)] + [Layer(w, b) for w, b in rest])


SQUARE_SIZE_COEFF = 64


def weighted_square_bound(d, eps):
    """Calibrated size bound C d^2 log(1/eps) + d + 1 for the square nets."""
    return SQUARE_SIZE_COEFF * d * d * max(1.0, math.log(1.0 / eps)) + d + 1


def weighted_square_net(beta, D, eps):
    """Truncated weighted square function and its ReLU network.

    Target: f_(d,D)(x) = sum_m beta_m f_(1,D)(x_m) with f_(1,D)(x) = x^2 for
    |x| <= D and D|x| otherwise.  The network realizes
    sum_m beta_m D^2 q(|x_m|/D) with q the unit square net, so the sup gap
    to the target is at most max|beta| * d * D^2 * eps, and the realization
    is exact outside the box.  Size <= SQUARE_SIZE_COEFF d^2 log(1/eps)+d+1.
    """
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    d = beta.shape[0]
    D = float(D)
    if D <= 0.0:
        raise ValueError("truncation radius must be positive")
    unit = square_unit_net(eps)

    def target(x):
        x = np.asarray(x, dtype=np.float64)
        ax = np.abs(x)
        per = np.where(ax <= D, x * x, D * ax)
        return per @ beta

    abs_part = Layer(np.array([[1.0 / D], [-1.0 / D]]), np.zeros(2))
    first = unit.layers[0]
    # feed relu(x) + relu(-x) = |x| into the unit net's first layer
    enter = Layer(_hstack([1.0, 1.0], [first, first]), first.bias)
    layers = [_side_by_side([abs_part] * d), _side_by_side([enter] * d)]
    layers += [_side_by_side([mid] * d) for mid in unit.layers[1:-1]]
    layers.append(_summed([b * D * D for b in beta], [unit.layers[-1]] * d))
    return target, Network(layers)
