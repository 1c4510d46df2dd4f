"""Feedforward ReLU network data model.

A network is an ordered list of affine layers (W_l, b_l).  The object is
distinct from the function it computes: ``realize`` interleaves the layers
with an activation (applied everywhere except after the last layer) and
evaluates.  Networks are immutable after construction, so they are safe to
share between threads, and all bookkeeping quantities (depth, dims, size)
are recomputed from the stored shapes on demand.

The parameter count deliberately includes zero entries: every layer
contributes rows*(cols+1), which is the conservative convention the rest of
the library's complexity bounds are stated in.
"""

import io

import numpy as np

__all__ = [
    "Layer",
    "Network",
    "NetworkShapeError",
    "relu",
    "realize",
    "fold_affine",
    "network_to_text",
    "network_from_text",
    "save_network",
    "load_network",
]

SERIAL_TAG = "STIFFNET-NET"
SERIAL_VERSION = 1


class NetworkShapeError(ValueError):
    """Raised when layer shapes do not chain or inputs do not fit."""


def relu(x):
    return np.maximum(x, 0.0)


def _freeze(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    a.flags.writeable = False
    return a


class Layer:
    """One affine layer: weight (N_l x N_{l-1}) and bias (N_l)."""

    __slots__ = ("weight", "bias")

    def __init__(self, weight, bias):
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.ndim != 2:
            raise NetworkShapeError(
                "layer weight must be a matrix, got ndim=%d" % weight.ndim
            )
        if bias.ndim != 1:
            raise NetworkShapeError(
                "layer bias must be a vector, got ndim=%d" % bias.ndim
            )
        if weight.shape[0] != bias.shape[0]:
            raise NetworkShapeError(
                "weight rows (%d) must equal bias length (%d)"
                % (weight.shape[0], bias.shape[0])
            )
        object.__setattr__(self, "weight", _freeze(weight))
        object.__setattr__(self, "bias", _freeze(bias))

    def __setattr__(self, name, value):
        raise AttributeError("Layer is immutable")

    @property
    def fan_out(self):
        return self.weight.shape[0]

    @property
    def fan_in(self):
        return self.weight.shape[1]

    def __repr__(self):
        return "Layer(%d x %d)" % self.weight.shape


class Network:
    """Ordered, nonempty list of layers with chained shapes."""

    __slots__ = ("layers",)

    def __init__(self, layers):
        layers = tuple(
            layer if isinstance(layer, Layer) else Layer(*layer) for layer in layers
        )
        if not layers:
            raise NetworkShapeError("a network needs at least one layer")
        for l in range(1, len(layers)):
            if layers[l].fan_in != layers[l - 1].fan_out:
                raise NetworkShapeError(
                    "layer %d expects %d inputs but layer %d produces %d"
                    % (l + 1, layers[l].fan_in, l, layers[l - 1].fan_out)
                )
        object.__setattr__(self, "layers", layers)

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

    def __repr__(self):
        return "Network(depth=%d, dims=%s, size=%d)" % (
            self.depth,
            self.dims,
            self.size,
        )


def realize(net, x):
    """Evaluate the network function at x.

    x may be a single input vector of length dim_in or an array whose last
    axis has length dim_in; the function is applied along the last axis.
    ReLU is applied after every layer except the last.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = False
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
    if x.ndim == 1:
        squeeze = True
        x = x[None, :]
    for layer in net.layers[:-1]:
        x = relu(x @ layer.weight.T + layer.bias)
    last = net.layers[-1]
    x = x @ last.weight.T + last.bias
    return x[0] if squeeze else x


def fold_affine(net, side, mat, vec=None):
    """Absorb an affine map into the first or last layer.

    side="pre":  result realizes x -> net(M x + c); only N_0 may change.
    side="post": result realizes x -> M net(x) + c; only N_L may change.
    Depth is unchanged, so the architecture survives the fold.
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
        first = layers[0]
        layers[0] = Layer(first.weight @ mat, first.weight @ vec + first.bias)
    elif side == "post":
        if mat.shape[1] != net.dim_out:
            raise NetworkShapeError(
                "post-fold input width %d != network output %d"
                % (mat.shape[1], net.dim_out)
            )
        last = layers[-1]
        layers[-1] = Layer(mat @ last.weight, mat @ last.bias + vec)
    else:
        raise ValueError("side must be 'pre' or 'post'")
    return Network(layers)


def _hex_row(values):
    return " ".join(float(v).hex() for v in values)


def _parse_row(line, expected):
    vals = [float.fromhex(tok) for tok in line.split()]
    if len(vals) != expected:
        raise ValueError("expected %d values per row, got %d" % (expected, len(vals)))
    return vals


def network_to_text(net):
    """Serialize to the flat structured-text format (bit-exact floats)."""
    out = io.StringIO()
    out.write("%s v%d\n" % (SERIAL_TAG, SERIAL_VERSION))
    out.write("layers %d\n" % net.depth)
    for layer in net.layers:
        rows, cols = layer.weight.shape
        out.write("layer %d %d\n" % (rows, cols))
        for r in range(rows):
            out.write(_hex_row(layer.weight[r]) + "\n")
        out.write("bias\n")
        out.write(_hex_row(layer.bias) + "\n")
    return out.getvalue()


def network_from_text(text):
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
    n_layers = int(count)
    layers = []
    for _ in range(n_layers):
        tag, rows, cols = take("layer header").split()
        if tag != "layer":
            raise ValueError("missing layer header")
        rows, cols = int(rows), int(cols)
        weight = np.empty((rows, cols))
        for r in range(rows):
            weight[r] = _parse_row(take("weight row"), cols)
        if take("bias marker").strip() != "bias":
            raise ValueError("missing bias marker")
        bias = np.array(_parse_row(take("bias row"), rows))
        layers.append(Layer(weight, bias))
    if next(lines, None) is not None:
        raise ValueError("trailing data after the last layer")
    return Network(layers)


def save_network(net, path):
    with open(path, "w") as fh:
        fh.write(network_to_text(net))


def load_network(path):
    with open(path) as fh:
        return network_from_text(fh.read())
