"""Per-layer tracing of qbc from outside the library.

``Tracer.install()`` wraps the public functions of each layer (one layer per
``qbc`` module) and rebinds every name that refers to them, in every ``qbc``
module and in the benchmark's own modules, so calls are seen in the
namespaces where their callers look them up. Calls made inside the
numba-compiled kernels would not pass through the wrappers; with numba
absent the kernels are plain Python and every call is seen.

Each wrapped call is a span. A layer's self time is the sum of its spans'
durations minus the time of the spans they enclose. Spans stay in memory as
running sums per function; nothing is written while the benchmark runs.
"""

import math
import sys
import time
import types
from collections import defaultdict

from qbc.optimizer import OptimizerConfig

LAYERS = {
    "kernels": "qbc._kernels",
    "hilbert": "qbc.hilbert",
    "discrimination": "qbc.discrimination",
    "cloner": "qbc.cloner",
    "optimizer": "qbc.optimizer",
    "infochannel": "qbc.infochannel",
    "verify": "qbc.verify",
}
SUITES = ("hilbert", "discrimination", "cloner", "optimizer", "infochannel", "cli")
# classes whose construction (including validation) is a span of its own
CLASSES = {"qbc.discrimination": ("BinaryPOVM",)}


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self.times: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []

    def _span(self, layer: str, name: str, fn, on_return=None):
        stat = self.stats[(layer, name)]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child[0]
            if on_return is not None:
                on_return(args, kwargs, out, dt)
            return out

        return traced

    def _hooks(self):
        """Extra counts and times taken from arguments and results."""

        def jacobi(args, kwargs, out, dt):
            dim = args[0].shape[0]
            self.counts[f"jacobi_d{dim}"] += 1
            self.times[f"jacobi_d{dim}"] += dt

        def run_starts(args, kwargs, out, dt):
            self.counts["ascent_iters"] += int(out[3].sum())

        def maximize(args, kwargs, out, dt):
            theta = args[0]
            config = (args[1] if len(args) > 1 else kwargs.get("config")) or OptimizerConfig()
            self.counts["starts"] += config.n_starts
            self.counts["starts_converged"] += out.starts_converged
            for label, angle in (("pi_48", math.pi / 48.0), ("pi_2", math.pi / 2.0)):
                if abs(theta - angle) < 1e-12:
                    self.counts[label] += 1
                    self.times[label] += dt

        return {
            ("kernels", "jacobi_eigh"): jacobi,
            ("kernels", "run_starts"): run_starts,
            ("optimizer", "maximize_lambda"): maximize,
        }

    def install(self, extra_namespaces=()) -> None:
        """Wrap every layer's public functions and rebind all references."""
        hooks = self._hooks()
        replace = {}
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if value.__module__ != modname:
                    continue
                replace[value] = self._span(layer, attr, value, hooks.get((layer, attr)))
            for cls_name in CLASSES.get(modname, ()):
                cls = getattr(mod, cls_name)
                cls.__init__ = self._span(layer, cls_name, cls.__init__)
        namespaces = [m for name, m in sys.modules.items() if name == "qbc" or name.startswith("qbc.")]
        namespaces += list(extra_namespaces)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if isinstance(value, types.FunctionType) and value in replace:
                    setattr(ns, attr, replace[value])
        verify = sys.modules["qbc.verify"]
        verify._SUITES = tuple(
            self._span("verify", fn.__name__.removeprefix("_"), fn) for fn in verify._SUITES
        )

    def metrics(self, n_ops: int, first_ops: int, first: dict) -> dict:
        """Per-layer metrics; counts per op come from the first first_ops ops.

        ``first`` is ``snapshot()`` taken after those ops, so the counts
        depend only on the run seed, never on how many ops the run fitted in.
        """
        per_op = 1.0 / n_ops
        layer_self = defaultdict(float)
        for (layer, _), stat in self.stats.items():
            layer_self[layer] += stat.self_time

        def us(layer, name):
            stat = self.stats.get((layer, name))
            return stat.total / stat.calls * 1e6 if stat and stat.calls else 0.0

        def mean_of(key, scale):
            return self.times[key] / self.counts[key] * scale if self.counts[key] else 0.0

        def count(key):
            return first[key] / first_ops

        iters = first["ascent_iters"]
        m = {
            "kernels.self_ms": (layer_self["kernels"] * per_op * 1e3, "ms"),
            "kernels.run_starts.iters": (count("ascent_iters"), "count"),
            "kernels.project_pair.calls": (count("kernels.project_pair"), "count"),
            "kernels.project_pair.us": (us("kernels", "project_pair"), "us"),
            "kernels.project_pair.calls_per_iter": (
                first["kernels.project_pair"] / iters if iters else 0.0,
                "ratio",
            ),
            "kernels.jacobi_eigh.d2_us": (mean_of("jacobi_d2", 1e6), "us"),
            "kernels.jacobi_eigh.d4_us": (mean_of("jacobi_d4", 1e6), "us"),
            "optimizer.self_ms": (layer_self["optimizer"] * per_op * 1e3, "ms"),
            "optimizer.maximize_lambda.pi_48_ms": (mean_of("pi_48", 1e3), "ms"),
            "optimizer.maximize_lambda.pi_2_ms": (mean_of("pi_2", 1e3), "ms"),
            "optimizer.starts_converged_ratio": (
                first["starts_converged"] / first["starts"] if first["starts"] else 0.0,
                "ratio",
            ),
            "optimizer.random_feasible_params.us": (us("optimizer", "random_feasible_params"), "us"),
            "hilbert.self_ms": (layer_self["hilbert"] * per_op * 1e3, "ms"),
            "hilbert.hermitian_eig.calls": (count("hilbert.hermitian_eig"), "count"),
            "hilbert.hermitian_eig.us": (us("hilbert", "hermitian_eig"), "us"),
            "hilbert.partial_trace.us": (us("hilbert", "partial_trace"), "us"),
            "hilbert.von_neumann_entropy.us": (us("hilbert", "von_neumann_entropy"), "us"),
            "discrimination.self_ms": (layer_self["discrimination"] * per_op * 1e3, "ms"),
            "discrimination.helstrom.calls": (count("discrimination.helstrom"), "count"),
            "discrimination.helstrom.us": (us("discrimination", "helstrom"), "us"),
            "discrimination.BinaryPOVM.us": (us("discrimination", "BinaryPOVM"), "us"),
            "cloner.self_ms": (layer_self["cloner"] * per_op * 1e3, "ms"),
            "cloner.clone_state.us": (us("cloner", "clone_state"), "us"),
            "cloner.marginals.us": (us("cloner", "marginals"), "us"),
            "infochannel.self_ms": (layer_self["infochannel"] * per_op * 1e3, "ms"),
            "infochannel.rate_region_oracle.us": (us("infochannel", "rate_region_oracle"), "us"),
            "infochannel.induced_channel.us": (us("infochannel", "induced_channel"), "us"),
            "infochannel.joint_clone_channel.us": (us("infochannel", "joint_clone_channel"), "us"),
        }
        for suite in SUITES:
            stat = self.stats.get(("verify", f"suite_{suite}"))
            m[f"verify.suite_{suite}_s"] = (stat.total * per_op if stat else 0.0, "s")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}

    def snapshot(self) -> dict:
        """Exact counts so far: calls per function and the hook counters."""
        snap = defaultdict(float, self.counts)
        for (layer, name), stat in self.stats.items():
            snap[f"{layer}.{name}"] = stat.calls
        return snap

    def table(self) -> list[dict]:
        """Every traced function, for the trace output file."""
        return [
            {"layer": layer, "function": name, "calls": s.calls, "total_s": s.total, "self_s": s.self_time}
            for (layer, name), s in sorted(self.stats.items())
        ]
