"""Per-layer tracing of stiffnet from outside the package.

The tracer wraps public stiffnet functions after the package is imported.
Each call becomes a span (name, parent span, start, end) kept in memory,
and counters are updated at the same call boundaries.  Nothing inside
``src/`` is changed: the wrappers replace a function wherever a stiffnet
module binds it (the modules use ``from .x import y``, so patching only the
defining module would miss most calls), and methods are patched on their
class.

Time metrics (``<layer>.<op>_s``) are inclusive times of the outermost call
of that op, so a recursive op such as ``max_tree`` is not counted twice.
``<layer>.self_s`` is the time spent in a layer's own spans minus the time
of the spans they called, so the self times of all layers add up to the
time spent in traced calls (the study plus the follow-up step).
"""

import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "systems", "synthesis", "game", "calculus", "network", "sde")


def _net_bytes(net):
    return sum(8 * (l.weight.size + l.bias.size) for l in net.layers)


def _net_nnz(net):
    return sum(
        int(np.count_nonzero(l.weight)) + int(np.count_nonzero(l.bias))
        for l in net.layers
    )


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans = []  # [name, parent, start, end, outermost]
        self._stack = []
        self._active = defaultdict(int)
        self._ops = {}  # span names, in the order they were wrapped
        self.counts = {}  # counter name -> value
        self._units = {}  # counter name -> unit
        self.unique_blocks = set()
        self.final_net = None

    def wrap(self, name, fn, on_call=None, on_return=None):
        """Return fn wrapped in a span called `name`.

        on_call(args, kwargs) and on_return(result, args, kwargs) update the
        counters; they run outside the span's timed interval.
        """
        spans, stack, active = self.spans, self._stack, self._active
        self._ops[name] = None

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, active[name] == 0]
            stack.append(len(spans))
            spans.append(record)
            active[name] += 1
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                active[name] -= 1
                stack.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return traced

    # --- counters -------------------------------------------------------

    def _counter(self, key, unit="count"):
        self.counts[key] = 0
        self._units[key] = unit

    def _count(self, key, amount=1):
        self.counts[key] += amount

    def _on_noise(self, args, kwargs):
        bundle, n = args[0], args[1]
        self._count("sde.noise_blocks")
        self.unique_blocks.add((bundle.seed, bundle.n_paths, bundle.d, bundle.h, n))

    def _on_simulate(self, args, kwargs):
        cfg, bundle = args[3], args[4]
        self._count("sde.simulate_calls")
        self._count("sde.path_steps", bundle.n_paths * cfg.steps)

    def _on_realize(self, args, kwargs):
        net, x = args[0], np.asarray(args[1])
        points = int(np.prod(x.shape[:-1])) if x.ndim > 1 else 1
        self._count("network.realize_calls")
        self._count("network.realize_points", points)
        self._count(
            "network.realize_flops",
            2 * points * sum(l.weight.size for l in net.layers),
        )

    def _on_built(self, result, args, kwargs):
        self._count("calculus.bytes_built", _net_bytes(result))

    def _on_final(self, result, args, kwargs):
        self.final_net = result[0] if isinstance(result, tuple) else result

    def _on_text(self, text):
        self._count("network.text_bytes", len(text))

    # --- installation ---------------------------------------------------

    def install(self):
        """Patch the stiffnet package; call once, after importing it."""
        import stiffnet.calculus as calculus
        import stiffnet.cli as cli
        import stiffnet.game as game
        import stiffnet.network as network
        import stiffnet.sde as sde
        import stiffnet.synthesis as synthesis
        import stiffnet.systems as systems

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "stiffnet"]

        def patch(name, fn, **hooks):
            wrapped = self.wrap(name, fn, **hooks)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)

        def calls(key):
            self._counter(key)
            return lambda args, kwargs: self._count(key)

        for key in ("sde.noise_blocks", "sde.simulate_calls", "sde.path_steps",
                    "network.realize_calls", "network.realize_points",
                    "network.realize_flops"):  # fmt: skip
            self._counter(key)
        for key in ("calculus.bytes_built", "network.text_bytes"):
            self._counter(key, "bytes")

        def method(cls, attr, name, **hooks):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), **hooks))

        method(sde.PathBundle, "increments", "sde.noise", on_call=self._on_noise)
        method(sde.ImplicitFactor, "solve", "sde.solve", on_call=calls("sde.solve_calls"))
        patch("sde.simulate", sde.simulate, on_call=self._on_simulate)
        patch("sde.step", sde.step_pes)
        patch("sde.exact_value", sde.ou_exact_value, on_call=calls("sde.exact_value_calls"))

        for op in ("add_compose", "combine", "compose"):
            patch(
                "calculus." + op,
                getattr(calculus, op),
                on_call=calls("calculus.%s_calls" % op),
                on_return=self._on_built,
            )
        # tree results are counted through the compose and parallel_shared
        # calls they are built from, so no network is counted twice
        patch("calculus.parallel_shared", calculus.parallel_shared, on_return=self._on_built)
        patch("calculus.tree", calculus.max_tree)
        patch("calculus.tree", calculus.min_tree)

        patch("network.realize", network.realize, on_call=self._on_realize)
        patch("network.fold_affine", network.fold_affine)
        patch(
            "network.to_text",
            network.network_to_text,
            on_return=lambda text, args, kwargs: self._on_text(text),
        )
        patch(
            "network.from_text",
            network.network_from_text,
            on_call=lambda args, kwargs: self._on_text(args[0]),
        )

        patch(
            "synthesis.unroll",
            synthesis.unroll_value_net,
            on_call=calls("synthesis.unroll_calls"),
            on_return=self._on_final,
        )
        patch("synthesis.calibrate", synthesis.calibrate_cplan)
        patch("synthesis.l2_error", synthesis.l2_error)
        patch(
            "synthesis.mc_reference",
            synthesis.mc_reference,
            on_call=calls("synthesis.mc_reference_calls"),
        )

        patch("systems.recipe", systems.make_system)
        patch("systems.recipe", systems.make_controlled_relu_drift)
        patch("systems.validate", sde.validate_system)

        patch("game.pair_nets", game.controlled_value_net, on_call=calls("game.pairs"))
        patch("game.infsup", game.infsup_net, on_return=self._on_final)
        patch("game.brute_force", game.brute_force_game_value)

        patch("cli.study", cli.run_study)

    # --- report ---------------------------------------------------------

    def metrics(self):
        """Per-layer metric values and units, by name, from the spans."""
        inclusive = dict.fromkeys(self._ops, 0.0)
        own = [end - start for _, _, start, end, _ in self.spans]
        for name, parent, start, end, outermost in self.spans:
            if outermost:
                inclusive[name] += end - start
            if parent >= 0:
                own[parent] -= end - start
        self_time = dict.fromkeys(LAYERS, 0.0)
        for (name, *_), t in zip(self.spans, own):
            self_time[name.split(".")[0]] += t

        out = {name + "_s": (t, "s") for name, t in inclusive.items()}
        out.update({layer + ".self_s": (t, "s") for layer, t in self_time.items()})
        out.update({k: (v, self._units[k]) for k, v in self.counts.items()})
        blocks = self.counts["sde.noise_blocks"]
        unique = len(self.unique_blocks)
        out["sde.noise_blocks_unique"] = (unique, "count")
        out["sde.noise_useful_ratio"] = (unique / blocks if blocks else 1.0, "ratio")
        net = self.final_net
        built = net is not None
        out["network.final_size"] = (net.size if built else 0, "count")
        out["network.final_bytes"] = (_net_bytes(net) if built else 0, "bytes")
        out["network.final_nnz"] = (_net_nnz(net) if built else 0, "count")
        return out
