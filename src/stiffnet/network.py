"""Feedforward ReLU network data model.

A network is an ordered list of affine layers (W_l, b_l).  The object is
distinct from the function it computes: ``realize`` interleaves the layers
with an activation (applied everywhere except after the last layer) and
evaluates.  Networks are immutable after construction, so they are safe to
share between threads, and all bookkeeping quantities (depth, dims, size)
are recomputed from the stored shapes on demand.

Each weight is stored in canonical CSR form (sorted column indices, no
stored zeros, read-only arrays); the bias is a dense vector.  The
constructions of the calculus are block structured, so almost every entry
is zero, and storage and evaluation cost follow the nonzeros.  ``realize``
evaluates with numpy alone and gives the bits of a CSR product: each
output adds its row's products in column order, starting at +0.0, and
then the bias (see the evaluation section below).

A layer may also hold a stack of S members that share one sparsity
pattern: its values are then an (S, nnz) array and its bias an (S, rows)
array, and a member's zero stays stored where another member's entry is
not zero.  A network whose layers are stacks is the stack of the networks
its members form; ordinary layers in it are shared by every member.  The
calculus builds stacks exactly as it builds single networks, and
``unstack`` returns the members, each in canonical form.  Only single
networks are evaluated or serialized.

The parameter count deliberately includes zero entries: every layer
contributes rows*(cols+1), which is the conservative convention the rest of
the library's complexity bounds are stated in.  ``Network.nnz`` and
``Network.nbytes`` report what is actually stored.
"""

from typing import NamedTuple

import numpy as np

__all__ = [
    "Layer",
    "Network",
    "NetworkShapeError",
    "realize",
    "fold_affine",
    "unstack",
    "network_to_text",
    "network_from_text",
    "save_network",
    "load_network",
]

SERIAL_TAG = "STIFFNET-NET"
SERIAL_VERSION = 2


class NetworkShapeError(ValueError):
    """Raised when layer shapes do not chain or inputs do not fit."""


def _freeze(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    a.flags.writeable = False
    return a


class _Csr(NamedTuple):
    """Canonical CSR arrays of one weight, as ``_csr`` makes them."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


def _csr(data, indices, indptr, shape):
    """Canonical read-only CSR arrays from float64 values and integer indices.

    The column indices must increase within each row.  Stored zeros are
    dropped here, so every builder may scale or negate freely and still
    hand over a canonical matrix.  Values of shape (S, nnz) are a stack:
    an entry is dropped only where it is zero in every member.
    """
    keep = data != 0.0
    if data.ndim == 2:
        keep = keep.any(axis=0)
    if not keep.all():
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
        data, indices = data[..., keep], indices[keep]
    idx = np.int32 if max(shape + data.shape[-1:]) < 2**31 else np.int64
    parts = (data, indices.astype(idx, copy=False), indptr.astype(idx, copy=False))
    for a in parts:
        a.flags.writeable = False
    return _Csr(*parts, tuple(int(n) for n in shape))


def _csr_from_dense(a):
    """CSR arrays of a matrix, or of a (S, rows, cols) stack on the union pattern."""
    rows, cols = a.shape[-2:]
    flat = np.flatnonzero(a.any(axis=0) if a.ndim == 3 else a)
    indptr = np.searchsorted(flat, np.arange(rows + 1) * cols)
    data = a.reshape(a.shape[:-2] + (-1,))[..., flat]
    return _csr(data, flat % cols, indptr, (rows, cols))


def _dense(w):
    """Dense copy of CSR arrays (for thin layers and inspection).

    A stack gives (S, rows, cols).  A member's stored zero, -0.0 included,
    becomes +0.0 like an absent entry, so each member's copy is that of
    its canonical matrix.
    """
    out = np.zeros(w.data.shape[:-1] + w.shape)
    rows = np.repeat(np.arange(w.shape[0]), w.indptr[1:] - w.indptr[:-1])
    out[..., rows, w.indices] = w.data + 0.0
    return out


def _member_count(counts, what):
    """The one member count among `counts` (None for a single part), or None."""
    counts = set(counts) - {None}
    if len(counts) > 1:
        raise NetworkShapeError(
            "%s disagree on the member count: %s" % (what, sorted(counts))
        )
    return counts.pop() if counts else None


def _as_csr(weight):
    """Canonical read-only CSR arrays of a dense matrix; CSR arrays, a layer's too, pass through."""
    if isinstance(weight, (_Csr, Layer)):
        return _Csr(weight.data, weight.indices, weight.indptr, weight.shape)
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim not in (2, 3):
        raise NetworkShapeError(
            "layer weight must be a matrix or a stack of them, got ndim=%d" % weight.ndim
        )
    return _csr_from_dense(weight)


class Layer:
    """One affine layer: weight (N_l x N_{l-1}) and bias (N_l).

    The weight is held in canonical CSR form, under the usual names: the
    nonzeros ``data``, their columns ``indices`` (increasing within each
    row), the row starts ``indptr``, and ``shape``; the arrays are
    read-only.  ``weight`` builds a read-only dense copy on each access,
    for inspection only.

    A stacked layer (see the module docstring) takes an (S, rows, cols)
    weight or (S, nnz) values, and an (S, rows) bias, or a bias shared by
    its members; ``members`` is S, and None for a single layer.  Another
    layer as the weight lends its CSR arrays, so ``Layer(layer, bias)`` is
    that layer with a new bias.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "bias", "members")

    def __init__(self, weight, bias):
        w = _as_csr(weight)
        bias = np.asarray(bias, dtype=np.float64)
        if bias.ndim not in (1, 2):
            raise NetworkShapeError(
                "layer bias must be a vector or a stack of them, got ndim=%d" % bias.ndim
            )
        if w.shape[0] != bias.shape[-1]:
            raise NetworkShapeError(
                "weight rows (%d) must equal bias length (%d)"
                % (w.shape[0], bias.shape[-1])
            )
        members = _member_count(
            [a.shape[0] for a in (w.data, bias) if a.ndim == 2], "stacked weight and bias"
        )
        for name, value in zip(_Csr._fields, w):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "bias", _freeze(bias))
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError("Layer is immutable")

    @property
    def weight(self):
        dense = _dense(self)
        dense.flags.writeable = False
        return dense

    @property
    def fan_out(self):
        return self.shape[0]

    @property
    def fan_in(self):
        return self.shape[1]

    def __repr__(self):
        return "Layer(%d x %d)" % self.shape


class Network:
    """Ordered, nonempty list of layers with chained shapes.

    ``members`` is the member count S of a stack (its stacked layers must
    agree on it), and None for a single network.
    """

    __slots__ = ("layers", "members")

    def __init__(self, layers):
        layers = tuple(layers)
        if not layers:
            raise NetworkShapeError("a network needs at least one layer")
        for l in range(1, len(layers)):
            if layers[l].fan_in != layers[l - 1].fan_out:
                raise NetworkShapeError(
                    "layer %d expects %d inputs but layer %d produces %d"
                    % (l + 1, layers[l].fan_in, l, layers[l - 1].fan_out)
                )
        members = _member_count([l.members for l in layers], "stacked layers")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    @property
    def depth(self):
        return len(self.layers)

    @property
    def dims(self):
        return (self.layers[0].fan_in,) + tuple(l.fan_out for l in self.layers)

    @property
    def dim_in(self):
        return self.layers[0].fan_in

    @property
    def dim_out(self):
        return self.layers[-1].fan_out

    @property
    def size(self):
        # sum over layers of N_l * (N_{l-1} + 1), zeros included
        return sum(l.fan_out * (l.fan_in + 1) for l in self.layers)

    @property
    def nnz(self):
        """Nonzero parameters: the stored weight entries plus the nonzero biases."""
        return sum(l.data.size + int(np.count_nonzero(l.bias)) for l in self.layers)

    @property
    def nbytes(self):
        """Bytes stored: CSR values, column indices, row pointers and biases."""
        return sum(
            l.data.nbytes + l.indices.nbytes + l.indptr.nbytes + l.bias.nbytes
            for l in self.layers
        )

    def __repr__(self):
        return "Network(depth=%d, dims=%s, size=%d)" % (
            self.depth,
            self.dims,
            self.size,
        )


def _require_single(net, what):
    if net.members is not None:
        raise NetworkShapeError(
            "%s takes a single network, got a stack of %d members; unstack it first"
            % (what, net.members)
        )


def _matvec(mat, vec):
    """mat @ vec for each member, either side a stack or not.

    np.matmul runs the same product on each slice as ``@`` on one, so each
    member gets the bits its single network would.
    """
    return np.matmul(mat, vec[..., None])[..., 0]


def _pick(layer, index):
    """Member `index` (an int), or the stack of members `index` (an integer
    array), of a layer; a shared layer is returned as it is.

    An entry that is zero in every picked member is dropped.
    """
    if layer.members is None:
        return layer
    data = layer.data[index] if layer.data.ndim == 2 else layer.data
    bias = layer.bias[index] if layer.bias.ndim == 2 else layer.bias
    return Layer(_csr(data, layer.indices, layer.indptr, layer.shape), bias)


def _take(net, index):
    """The stack of the members `index` (an integer array) of a stack, in that order."""
    return Network([_pick(l, index) for l in net.layers])


def unstack(net):
    """The members of a stacked network, each as a canonical single network.

    A member's stored zeros are dropped; layers the members share are
    shared by the results.  A single network is its own only member.
    """
    if net.members is None:
        return [net]
    return [Network([_pick(l, s) for l in net.layers]) for s in range(net.members)]


# --- evaluation ------------------------------------------------------------
#
# An output is the sum of its row's terms w_ij * h_j in column order, started
# at +0.0, plus the bias: what a CSR product computes.  numpy has no fused
# gather-multiply-add, so a plan turns that sum into whole-array passes over
# all points at once.  Rows are ranked by falling term count and taken in
# groups of one count; slot k of a group holds the k-th term of each of its
# rows.  A chunk of a group is gathered and multiplied, and np.add.reduce
# sums it over its slots.  Along an axis that is not the fastest in memory
# that reduction adds each slot to the running sum in turn (numpy sums
# pairwise only along the fastest axis); a chunk of one row and one point
# has no other axis, so np.add.accumulate, sequential by definition, sums
# that one.  A sum that starts at its first term instead of at +0.0 differs
# only where every term is -0.0; adding the bias plus 0.0 maps both starts
# to the same bits.  Each layer's rows are put back in row order before the
# next layer reads them, so a plan depends on its own layer only.  A plan is
# made in each call, one layer at a time, so that a call holds one plan and
# no layer keeps one.

# floats of gathered terms in one chunk (512 KB), so that a chunk's passes
# stay in cache
_BLOCK_FLOATS = 1 << 16


class _Plan(NamedTuple):
    """A layer's terms in groups of ranked rows that have one term count.

    Each group is (first row, cols, vals): its rows follow the first, and
    term k of the group's row r is ``vals[k, r] * h[cols[k, r]]``, where h
    is the layer's input.  The ranked rows from ``filled`` on have no terms.
    ``place[i]`` is the ranked position of row i, and ``bias`` the ranked
    bias plus 0.0, as a column.
    """

    place: object
    groups: tuple
    filled: int
    bias: object


def _make_plan(layer):
    rows = layer.shape[0]
    counts = layer.indptr[1:] - layer.indptr[:-1]
    # a stable sort keeps rows of one count in row order
    rank = (-counts).argsort(kind="stable")
    place = np.empty(rows, dtype=rank.dtype)
    place[rank] = np.arange(rows)
    counts, starts = counts[rank], layer.indptr[:-1][rank]
    firsts = [0] + ((counts[1:] != counts[:-1]).nonzero()[0] + 1).tolist() if rows else []
    groups, filled = [], 0
    for first, end in zip(firsts, firsts[1:] + [rows]):
        width = int(counts[first])
        if not width:
            break
        pos = starts[first:end] + np.arange(width)[:, None]
        groups.append((first, layer.indices[pos], layer.data[pos][..., None]))
        filled = end
    return _Plan(place, tuple(groups), filled, (layer.bias[rank] + 0.0)[:, None])


def _slots(rows, width, points):
    """Terms one gather takes from a group of `width` terms a row.

    That is as many as fit in _BLOCK_FLOATS at `points` points, but at
    least a whole row, as long as a row has no more terms than the layer
    has rows, so that a large batch still takes its rows whole.
    """
    return max(_BLOCK_FLOATS // points, min(width, rows))


def _chunks(plan, rows, points):
    """(group, rows, slots) of each gather of a plan for `rows` rows at `points` points.

    A gather takes as many whole rows of one group as fit in _slots terms,
    at least one; a row with more terms than that takes them in parts.
    """
    for group in plan.groups:
        width, n = group[1].shape
        cap = _slots(rows, width, points)
        take = max(1, cap // width)
        for r in range(0, n, take):
            for k in range(0, width, cap):
                yield group, slice(r, min(n, r + take)), slice(k, min(width, k + cap))


def _affine(plan, h, out, block):
    """Write the layer at h (inputs, points) to out, rows in the plan's order.

    `block` is a flat buffer for the gathered terms.
    """
    out[plan.filled :] = 0.0
    for (first, cols, vals), r, k in _chunks(plan, *out.shape):
        acc = out[first + r.start : first + r.stop]
        # a row with more terms than one gather holds starts from its sum so far
        carry = int(k.start > 0)
        terms = block[: (k.stop - k.start + carry) * acc.size].reshape(-1, *acc.shape)
        if carry:
            terms[0] = acc
        h.take(cols[k, r], axis=0, out=terms[carry:], mode="clip")
        terms[carry:] *= vals[k, r]
        if acc.size > 1:
            np.add.reduce(terms, axis=0, out=acc)
        else:
            acc[...] = np.add.accumulate(terms.ravel())[-1]
    out += plan.bias


def realize(net, x):
    """Evaluate the network function at x.

    x may be a single input vector of length dim_in or an array whose last
    axis has length dim_in; the function is applied along the last axis.
    ReLU is applied after every layer except the last.  Each output is
    summed over its row's nonzeros in column order, so a batch gives the
    same bits as its points one at a time.
    """
    _require_single(net, "realize")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        if net.dim_in != 1:
            raise NetworkShapeError(
                "scalar input but network expects %d inputs" % net.dim_in
            )
        x = x.reshape(1)
    if x.shape[-1] != net.dim_in:
        raise NetworkShapeError(
            "input has %d components but network expects %d"
            % (x.shape[-1], net.dim_in)
        )
    points = x.reshape(-1, net.dim_in)
    count = len(points)
    if not count:
        return np.zeros(x.shape[:-1] + (net.dim_out,))
    # one column per point, so that each pass covers every point; a layer
    # writes its rows in ranked order to `ranked` and puts them back in row
    # order in the buffer that held its input, where the next layer reads them
    front = np.empty(max(net.dims) * count)
    ranked = np.empty(max(net.dims[1:]) * count)
    block = np.empty(0)
    h = front[: net.dim_in * count].reshape(net.dim_in, count)
    h[...] = points.T
    # like a compiled product, the passes raise no floating-point warnings
    with np.errstate(all="ignore"):
        for i, layer in enumerate(net.layers):
            plan = _make_plan(layer)
            # a chunk's slots, and the running sum of a row that takes its terms in parts
            slots = (_slots(layer.fan_out, cols.shape[0], count) + 1 for _, cols, _ in plan.groups)
            need = max(slots, default=0) * count
            if len(block) < need:
                block = np.empty(need)
            out = ranked[: layer.fan_out * count].reshape(layer.fan_out, count)
            _affine(plan, h, out, block)
            if i < net.depth - 1:
                np.maximum(out, 0.0, out=out)
            h = front[: layer.fan_out * count].reshape(layer.fan_out, count)
            out.take(plan.place, axis=0, out=h, mode="clip")
    ranked = block = out = None  # keep only the output's buffer
    return np.ascontiguousarray(h.T).reshape(x.shape[:-1] + (net.dim_out,))


def fold_affine(net, side, mat, vec=None):
    """Absorb an affine map into the first or last layer.

    side="pre":  result realizes x -> net(M x + c); only N_0 may change.
    side="post": result realizes x -> M net(x) + c; only N_L may change.
    Depth is unchanged, so the architecture survives the fold.  The first
    layer has the input width as columns and the last the output width as
    rows, so the product is formed densely and stored back as CSR.  On a
    stack the affine map is shared and each member is folded as its single
    network would be.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    if vec is None:
        vec = np.zeros(mat.shape[0])
    vec = np.asarray(vec, dtype=np.float64).reshape(-1)
    if mat.shape[0] != vec.shape[0]:
        raise NetworkShapeError("affine pieces disagree: M rows != c length")
    layers = list(net.layers)
    if side == "pre":
        if mat.shape[0] != net.dim_in:
            raise NetworkShapeError(
                "pre-fold output width %d != network input %d"
                % (mat.shape[0], net.dim_in)
            )
        w = _dense(layers[0])
        layers[0] = Layer(w @ mat, _matvec(w, vec) + layers[0].bias)
    elif side == "post":
        if mat.shape[1] != net.dim_out:
            raise NetworkShapeError(
                "post-fold input width %d != network output %d"
                % (mat.shape[1], net.dim_out)
            )
        layers[-1] = Layer(mat @ _dense(layers[-1]), _matvec(mat, layers[-1].bias) + vec)
    else:
        raise ValueError("side must be 'pre' or 'post'")
    return Network(layers)


# --- text format ---------------------------------------------------------
#
#   STIFFNET-NET v2
#   layers <L>
#   per layer:
#     layer <rows> <cols> <nnz>
#     <nonzeros in each row: rows ints>
#     <column indices: nnz ints>
#     <values: nnz hex floats>
#     bias
#     <rows hex floats>
#
# The index and value lines are absent when nnz is 0; columns increase
# within a row and no value is zero, so each network has one text.
#
# A row is written in a few whole-array passes, with the bytes that
# ``" ".join(map(float.hex, row))`` or ``" ".join(map(str, row))`` would
# give.  Each token fills a fixed-width cell of ASCII bytes that ends in the
# separating space and is padded with NUL, and one ``bytes.translate``
# deletes the padding.  A float's 32-byte cell is read off its big-endian
# bytes in three table lookups:
#   - 8 bytes: sign, lead and the mantissa's top nibble (``-0x1.f``), from
#     the sign bit, whether the exponent field is nonzero and the nibble;
#   - 12 bytes: a hex digit pair for each of the mantissa's six low bytes
#     (then 4 bytes of padding);
#   - 8 bytes: ``p±E`` and the space, from the exponent field.
# A zero (``0x0.0p+0``) keeps only the top digit and takes the exponent
# text of field 2047, which no finite value has.  An integer's cell holds
# its decimal digits, right-aligned, with NUL for its leading zeros.  A row
# holding inf or nan is written by ``float.hex`` itself, so the reader
# refuses it.  The reader converts each row with one ``map`` of
# ``float.fromhex`` or ``int``; it accepts and refuses what those do.

_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_HEX_PAIRS = np.frombuffer(bytes(range(256)).hex().encode(), dtype=np.uint16)
_ZERO_FIELD = 2047


def _put_digits(q, cells):
    """Write the decimal digits of q >= 0 right-aligned in (n, w) cells.

    Leading zeros are NUL; q is divided in place.
    """
    cells[:, -1] = q % 10 + ord("0")
    for k in range(cells.shape[1] - 2, -1, -1):
        q //= 10
        cells[:, k] = q % 10 + ord("0") * (q > 0)


def _float_heads():
    """``-0x1.f`` of index sign * 32 + (field != 0) * 16 + top nibble, as uint64."""
    leads = np.frombuffer(b"0x0.\0" b"0x1.\0" b"-0x0." b"-0x1.", dtype=np.uint8)
    cells = np.zeros((4, 16, 8), dtype=np.uint8)
    cells[:, :, :5] = leads.reshape(4, 1, 5)
    cells[:, :, 5] = _HEX
    return cells.reshape(64, 8).view(np.uint64)[:, 0]


def _float_tails():
    """``p±E `` of each exponent field, as uint64."""
    e = np.arange(2048) - 1023
    e[0], e[_ZERO_FIELD] = -1022, 0  # subnormals; zero's slot
    cells = np.zeros((2048, 8), dtype=np.uint8)
    cells[:, 0] = ord("p")
    cells[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    _put_digits(np.abs(e), cells[:, 2:6])
    cells[:, 6] = ord(" ")
    return cells.view(np.uint64)[:, 0]


_FLOAT_HEADS = _float_heads()
_FLOAT_TAILS = _float_tails()


def _join_cells(cells):
    """The row of tokens held in NUL-padded cells that end in a space."""
    return cells.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def _hex_row(values):
    """``" ".join(map(float.hex, values))`` for float64 values."""
    n = len(values)
    if not n:
        return ""
    if not np.isfinite(values).all():
        # the tables hold no token for inf or nan
        return " ".join(map(float.hex, values))
    b = np.asarray(values, dtype=">f8").view(np.uint8).reshape(n, 8)
    sign = (b[:, 0] >> 7).astype(np.intp)
    field = (b[:, 0] & 0x7F).astype(np.intp) << 4 | b[:, 1] >> 4
    cells = np.empty((n, 4), dtype=np.uint64)
    cells[:, 0] = _FLOAT_HEADS[sign << 5 | (field != 0) << 4 | b[:, 1] & 15]
    pairs = cells.view(np.uint16)
    pairs[:, 4:10] = _HEX_PAIRS[b[:, 2:]]
    pairs[:, 10:12] = 0
    zero = np.flatnonzero(values == 0)
    pairs[zero, 4:10] = 0
    field[zero] = _ZERO_FIELD
    cells[:, 3] = _FLOAT_TAILS[field]
    return _join_cells(cells)


def _int_row(values):
    """``" ".join(map(str, values))`` for non-negative int64 values."""
    n = len(values)
    if not n:
        return ""
    q = np.array(values, dtype=np.int64)
    width = len(str(int(q.max())))
    cells = np.empty((n, width + 1), dtype=np.uint8)
    _put_digits(q, cells[:, :width])
    cells[:, width] = ord(" ")
    return _join_cells(cells)


def _tokens(line, expected, what):
    toks = line.split()
    if len(toks) != expected:
        raise ValueError("expected %d %s, got %d" % (expected, what, len(toks)))
    return toks


def _parse_row(line, expected):
    toks = _tokens(line, expected, "values per row")
    try:
        vals = np.fromiter(map(float.fromhex, toks), np.float64, expected)
    except OverflowError:
        raise ValueError("value out of range in network text") from None
    if not np.isfinite(vals).all():
        raise ValueError("non-finite value in network text")
    return vals


def _parse_ints(line, expected, what):
    toks = _tokens(line, expected, what)
    try:
        return np.fromiter(map(int, toks), np.int64, expected)
    except OverflowError:
        raise ValueError("%s out of range in network text" % what) from None


def _layer_header(line):
    tag, *fields = line.split()
    if tag != "layer" or len(fields) != 3:
        raise ValueError("missing layer header")
    rows, cols, nnz = (int(v) for v in fields)
    if not (1 <= rows < 2**63 and 1 <= cols < 2**63 and nnz >= 0):
        raise ValueError("bad layer header %r" % line)
    return rows, cols, nnz


def _read_layer(take):
    rows, cols, nnz = _layer_header(take("layer header"))
    counts = _parse_ints(take("row counts"), rows, "row counts")
    if np.any(counts < 0) or int(counts.sum()) != nnz:
        raise ValueError("row counts do not add up to %d nonzeros" % nnz)
    indices = np.zeros(0, dtype=np.int64)
    data = np.zeros(0)
    if nnz:
        indices = _parse_ints(take("column indices"), nnz, "column indices")
        data = _parse_row(take("values"), nnz)
    if take("bias marker").strip() != "bias":
        raise ValueError("missing bias marker")
    bias = _parse_row(take("bias row"), rows)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    if nnz and (indices.min() < 0 or indices.max() >= cols):
        raise ValueError("column index out of range")
    row_start = np.zeros(nnz, dtype=bool)
    row_start[indptr[:-1][counts > 0]] = True
    if not np.all((np.diff(indices) > 0) | row_start[1:]):
        raise ValueError("column indices must increase within a row")
    if np.count_nonzero(data) < len(data):
        raise ValueError("stored zero in network text")
    return Layer(_csr(data, indices, indptr, (rows, cols)), bias)


def network_to_text(net):
    """Serialize to text format v2 (nonzeros only, bit-exact floats)."""
    _require_single(net, "network_to_text")
    out = ["%s v%d" % (SERIAL_TAG, SERIAL_VERSION), "layers %d" % net.depth]
    for layer in net.layers:
        out.append("layer %d %d %d" % (layer.shape + (len(layer.data),)))
        out.append(_int_row(np.diff(layer.indptr)))
        if len(layer.data):
            out.append(_int_row(layer.indices))
            out.append(_hex_row(layer.data))
        out.append("bias")
        out.append(_hex_row(layer.bias))
    return "\n".join(out) + "\n"


def network_from_text(text):
    """Parse text format v2; malformed text raises ValueError."""
    lines = (ln for ln in text.splitlines() if ln.strip())

    def take(what):
        line = next(lines, None)
        if line is None:
            raise ValueError("truncated network text: missing %s" % what)
        return line

    header = take("header").split()
    if len(header) != 2 or header[0] != SERIAL_TAG:
        raise ValueError("not a serialized network (bad header)")
    if header[1] != "v%d" % SERIAL_VERSION:
        raise ValueError("unsupported serialization version %r" % header[1])
    tag, count = take("layer count").split()
    if tag != "layers":
        raise ValueError("missing layer count")
    layers = [_read_layer(take) for _ in range(int(count))]
    if next(lines, None) is not None:
        raise ValueError("trailing data after the last layer")
    return Network(layers)


def save_network(net, path):
    with open(path, "w") as fh:
        fh.write(network_to_text(net))


def load_network(path):
    with open(path) as fh:
        return network_from_text(fh.read())
