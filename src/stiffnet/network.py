"""Feedforward ReLU network data model.

A network is an ordered list of affine layers (W_l, b_l).  The object is
distinct from the function it computes: ``realize`` interleaves the layers
with an activation (applied everywhere except after the last layer) and
evaluates.  Networks are immutable after construction, so they are safe to
share between threads, and all bookkeeping quantities (depth, dims, size)
are recomputed from the stored shapes on demand.

Each weight is stored in canonical CSR form (sorted column indices, no
stored zeros, read-only arrays) and evaluated through scipy.sparse; the
bias is a dense vector.  The constructions of the calculus are block
structured, so almost every entry is zero, and storage and evaluation cost
follow the nonzeros.

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

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

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
    """Canonical read-only CSR arrays of a dense matrix; CSR arrays pass through."""
    if isinstance(weight, _Csr):
        return weight
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim not in (2, 3):
        raise NetworkShapeError(
            "layer weight must be a matrix or a stack of them, got ndim=%d" % weight.ndim
        )
    return _csr_from_dense(weight)


class Layer:
    """One affine layer: weight (N_l x N_{l-1}) and bias (N_l).

    The weight is held in canonical CSR form, under scipy's names: the
    nonzeros ``data``, their columns ``indices`` (increasing within each
    row), the row starts ``indptr``, and ``shape``; the arrays are
    read-only.  ``csr`` is the scipy.sparse.csr_array over those arrays,
    made on first use, since a construction builds many layers that are
    never evaluated.  ``weight`` builds a read-only dense copy on each
    access, for inspection only.

    A stacked layer (see the module docstring) takes an (S, rows, cols)
    weight or (S, nnz) values, and an (S, rows) bias, or a bias shared by
    its members; ``members`` is S, and None for a single layer.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "bias", "members", "_csr")

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
        object.__setattr__(self, "_csr", None)

    def __setattr__(self, name, value):
        raise AttributeError("Layer is immutable")

    @property
    def csr(self):
        if self.members is not None:
            raise NetworkShapeError(
                "a stacked layer of %d members has no single matrix; unstack its network"
                % self.members
            )
        if self._csr is None:
            csr = sp.csr_array((self.data, self.indices, self.indptr), shape=self.shape)
            csr.has_canonical_format = True
            object.__setattr__(self, "_csr", csr)
        return self._csr

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
    # one column per point, so each layer is one CSR product
    h = np.ascontiguousarray(x.reshape(-1, net.dim_in).T)
    for layer in net.layers[:-1]:
        h = layer.csr @ h
        h += layer.bias[:, None]
        np.maximum(h, 0.0, out=h)
    last = net.layers[-1]
    h = last.csr @ h
    h += last.bias[:, None]
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


def _hex_row(values):
    return " ".join(map(float.hex, values.tolist()))


def _int_row(values):
    return " ".join(map(str, values.tolist()))


def _tokens(line, expected, what):
    toks = line.split()
    if len(toks) != expected:
        raise ValueError("expected %d %s, got %d" % (expected, what, len(toks)))
    return toks


def _parse_row(line, expected):
    try:
        vals = [float.fromhex(tok) for tok in _tokens(line, expected, "values per row")]
    except OverflowError:
        raise ValueError("value out of range in network text") from None
    if not all(map(math.isfinite, vals)):
        raise ValueError("non-finite value in network text")
    return np.array(vals)


def _parse_ints(line, expected, what):
    try:
        return np.array([int(tok) for tok in _tokens(line, expected, what)], dtype=np.int64)
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
