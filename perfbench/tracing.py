"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each public module-level function of the
qchansim modules, and the methods in METHODS, with a wrapper that records a
span around the call.  A function is replaced under every name a module
binds it to (``protocols.mixture_weights`` as well as
``decompose.mixture_weights``), so calls are seen whichever name the caller
looks up; the span is keyed by the defining module and qualified name.
Nothing under ``src/`` changes, and with the tracer disabled a wrapper only
forwards the call.

Per key the tracer keeps the call count, the inclusive time (outermost
calls only, so recursion is not counted twice) and the self time (the span
minus the time covered by its child spans).  Hooks add counters read from
the arguments and return values of a few functions.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict

MODULES = ("cli", "decompose", "depolarize", "multiround", "nogo", "protocols", "qmath", "serialize")
METHODS = (("protocols", "MultiSenderProtocol", "run_analytic"),)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack: list[list[float]] = []   # per open span: seconds covered by its children
        self._active = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _wrap(self, key: str, fn, hook):
        tracer = self
        signature = inspect.signature(fn) if hook is not None else None

        def bound(args, kwargs):
            arguments = signature.bind(*args, **kwargs)
            arguments.apply_defaults()
            return arguments.arguments

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._active[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer._active[key] -= 1
                tracer.calls[key] += 1
                if tracer._active[key] == 0:
                    tracer.total_s[key] += elapsed
                tracer.self_s[key] += elapsed - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            if hook is not None:
                hook(tracer, bound(args, kwargs), result, elapsed)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every public function of the package's modules, and METHODS."""
        modules = [getattr(package, name) for name in MODULES]
        wrappers: dict[int, object] = {}
        for module in modules:
            for name, value in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith(package.__name__ + "."):
                    continue
                if id(value) not in wrappers:
                    key = f"{_short(value.__module__)}.{value.__qualname__}"
                    wrappers[id(value)] = self._wrap(key, value, HOOKS.get(key))
                setattr(module, name, wrappers[id(value)])
        for module_name, class_name, method in METHODS:
            cls = getattr(getattr(package, module_name), class_name)
            original = vars(cls)[method]
            key = f"{module_name}.{class_name}.{method}"
            setattr(cls, method, self._wrap(key, original, HOOKS.get(key)))

    def take(self) -> dict:
        """Flat statistics recorded since the last take, then reset."""
        flat = {}
        for key, n in self.calls.items():
            flat[f"{key}.calls"] = float(n)
            flat[f"{key}.s"] = self.total_s[key]
            flat[f"{key}.self_s"] = self.self_s[key]
        flat.update(self.counters)
        for table in (self.calls, self.total_s, self.self_s, self.counters):
            table.clear()
        return flat


# ---------------------------------------------------------------------------
# Counters read from arguments and results
# ---------------------------------------------------------------------------

def _optimize(tracer, args, report, elapsed):
    m = args["n_messages"]
    tracer.counters[f"nogo.optimize.sweep_s.m{m}"] += elapsed
    tracer.counters[f"nogo.optimize.sweeps.m{m}"] += report.iterations
    tracer.counters["nogo.sweeps"] += report.iterations


def _estimate_eta(tracer, args, result, elapsed):
    codebook, n, batch = args["c"], args["n"], args["batch"]
    bits = max(1, math.ceil(math.log2(len(codebook.vectors))))
    tracer.counters[f"depolarize.estimate_eta.s.m{bits}"] += elapsed
    tracer.counters[f"depolarize.estimate_eta.samples.m{bits}"] += n
    score_bytes = min(n, batch) * len(codebook.vectors) * 8
    key = "depolarize.score_bytes"
    tracer.counters[key] = max(tracer.counters[key], score_bytes)


def _mixture_weights(tracer, args, result, elapsed):
    family = "family256" if len(args["extremals"]) >= 256 else "small"
    tracer.counters[f"decompose.mixture_weights.{family}.s"] += elapsed


def _collapse(tracer, args, result, elapsed):
    tracer.counters["multiround.collapsed_messages"] += result.n_messages


def _dumps(tracer, args, result, elapsed):
    tracer.counters["serialize.bytes_written"] += len(result.encode())


HOOKS = {
    "nogo.optimize": _optimize,
    "depolarize.estimate_eta": _estimate_eta,
    "decompose.mixture_weights": _mixture_weights,
    "multiround.collapse_odd_rounds": _collapse,
    "serialize.dumps": _dumps,
}
