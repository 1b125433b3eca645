"""Outside-in layer tracing for the benchmark's traced runs.

The program has no tracing of its own, so the traced run swaps the
module-level bindings through which one fracstorm layer calls another
(``fracstorm.moments.mittag_leffler``, ``fracstorm.excitation.
second_moment_white``, ``fracstorm.simulate.apply_semigroup``, ...) for
timing wrappers, and restores them afterwards.  Each wrapper records a span
with its parent span, so a layer's self time is its span minus the spans of
the calls it made through other wrapped bindings.

The parent link lives in a ``contextvars.ContextVar``: every thread starts
with an empty context, so spans recorded in a worker thread are roots of
their own and never become children of a span on another thread.

Nothing here is imported by an untraced run.
"""

import contextvars
import functools
import importlib
import itertools
import pkgutil
import re
import sys
import time

import numpy as np

#: span name -> the fracstorm functions (module, attribute) it times.  Every
#: binding of such a function in a loaded fracstorm module is swapped: the
#: defining module's own name (reached by the CLI's function-local imports)
#: and each ``from .x import name`` copy in another module.
LAYERS = {
    "fracfun.mittag_leffler": [("fracstorm.fracfun", "mittag_leffler")],
    "fracfun.mittag_leffler_log": [("fracstorm.fracfun", "mittag_leffler_log")],
    "fracfun.fractional_integral": [("fracstorm.fracfun", "fractional_integral")],
    "fracfun.caputo_derivative": [("fracstorm.fracfun", "caputo_derivative")],
    "kernels.build_discrete_generator": [("fracstorm.kernels", "build_discrete_generator")],
    "kernels.eigen_system": [("fracstorm.kernels", "eigen_system")],
    "kernels.dirichlet_fractional_kernel": [
        ("fracstorm.kernels", "dirichlet_fractional_kernel")],
    "kernels.apply_semigroup": [("fracstorm.kernels", "apply_semigroup")],
    "moments.second_moment": [("fracstorm.moments", "second_moment_white"),
                              ("fracstorm.moments", "second_moment_colored")],
    "moments.renewal_volterra_solve": [("fracstorm.moments", "renewal_volterra_solve")],
    "simulate.simulate_mild": [("fracstorm.simulate", "simulate_mild")],
    "excitation.excitation_sweep": [("fracstorm.excitation", "excitation_sweep")],
    "cli.write_atomic": [("fracstorm.cli", "write_atomic")],
    "charts.render_excitation_svg": [("fracstorm.charts", "render_excitation_svg")],
}

#: Every per-layer metric a traced run can report, in report order.
METRICS = (
    "fracfun.mittag_leffler.calls",
    "fracfun.mittag_leffler.points",
    "fracfun.mittag_leffler.max_points",
    "fracfun.mittag_leffler.s",
    "fracfun.mittag_leffler_log.s",
    "fracfun.fractional_integral.evals",
    "fracfun.fractional_integral.s",
    "fracfun.caputo_derivative.s",
    "kernels.eigen_system.s",
    "kernels.build_discrete_generator.s",
    "kernels.dirichlet_fractional_kernel.calls",
    "kernels.dirichlet_fractional_kernel.s",
    "kernels.apply_semigroup.calls",
    "kernels.apply_semigroup.s",
    "moments.tables.s",
    "moments.second_moment.calls",
    "moments.second_moment.s",
    "moments.second_moment.self_s",
    "moments.renewal_volterra_solve.s",
    "simulate.simulate_mild.s",
    "simulate.simulate_mild.self_s",
    "simulate.blowups",
    "excitation.excitation_sweep.s",
    "cli.write_atomic.calls",
    "cli.write_atomic.s",
    "charts.render_excitation_svg.s",
    "process.cpu_s",
    "trace.overhead_s",
)

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

UNITS = {"calls": "count", "points": "count", "max_points": "count",
         "evals": "count", "blowups": "count"}


def unit_of(metric):
    """Unit of a per-layer metric: 'count' for counters, 's' for times."""
    return UNITS.get(metric.rsplit(".", 1)[-1], "s")


def _points(args, kwargs):
    x = kwargs.get("x", args[1] if len(args) > 1 else None)
    return {"points": int(np.size(x))}


def _evals(args, kwargs):
    t = kwargs.get("t", args[2] if len(args) > 2 else None)
    return {"evals": int(np.size(t))}


#: span name -> function of the call's (args, kwargs) giving span counters.
_SIZES = {
    "fracfun.mittag_leffler": _points,
    "fracfun.fractional_integral": _evals,
}

#: span name -> function of the call's result giving span counters.
_RESULTS = {
    "simulate.simulate_mild": lambda est: {"blowups": int(est.blowups)},
}


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "counts")

    def __init__(self, sid, name, parent, start):
        self.sid, self.name, self.parent, self.start = sid, name, parent, start
        self.end = None
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Installs timing wrappers on the layer bindings and collects spans.

    Use as a context manager: the wrappers are in place only inside the
    ``with`` block, and every swapped binding is restored on exit, also when
    the block raises.
    """

    def __init__(self):
        self.spans = []
        self.missing = []
        self._swapped = []
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("perfbench_span", default=None)

    def _wrap(self, name, fn):
        sizes, results = _SIZES.get(name), _RESULTS.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = Span(next(self._ids), name, self._current.get(),
                        time.perf_counter())
            if sizes is not None:
                span.counts.update(sizes(args, kwargs))
            token = self._current.set(span.sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._current.reset(token)
                self.spans.append(span)
            if results is not None:
                span.counts.update(results(out))
            return out

        timed.__wrapped_by_perfbench__ = True
        return timed

    def install(self):
        # Import every submodule first: one imported later would copy a
        # wrapper that restore() does not know about.
        package = importlib.import_module("fracstorm")
        modules = [importlib.import_module(f"fracstorm.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        for name, targets in LAYERS.items():
            for modname, attr in targets:
                try:
                    original = getattr(importlib.import_module(modname), attr, None)
                except ModuleNotFoundError:
                    original = None
                if original is None:
                    self.missing.append((modname, attr))
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._swapped.append((mod, key, original))
                            setattr(mod, key, wrapper)
        return self

    def restore(self):
        for mod, key, original in reversed(self._swapped):
            setattr(mod, key, original)
        self._swapped.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


def installed_wrappers():
    """(module, attribute) of every fracstorm binding that is still a wrapper."""
    left = []
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("fracstorm") and mod is not None:
            for key, value in vars(mod).items():
                if getattr(value, "__wrapped_by_perfbench__", False):
                    left.append((modname, key))
    return left


def layer_metrics(spans, missing=()):
    """Per-layer metrics from a list of finished spans.

    ``<layer>.calls`` counts spans; ``<layer>.s`` sums the spans that have no
    enclosing span of the same layer (so recursion is not counted twice);
    ``<layer>.self_s`` sums span minus direct child spans.  A layer whose
    binding the program no longer has is left out, never reported as 0.
    """
    by_id = {s.sid: s for s in spans}
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def outermost(s):
        p = s.parent
        while p is not None:
            anc = by_id[p]
            if anc.name == s.name:
                return False
            p = anc.parent
        return True

    agg = {}
    for name in LAYERS:
        agg[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0,
                     "max_points": 0, "evals": 0, "blowups": 0}
    for s in spans:
        a = agg[s.name]
        a["calls"] += 1
        if outermost(s):
            a["s"] += s.duration
        a["self_s"] += s.duration - child_time.get(s.sid, 0.0)
        pts = s.counts.get("points", 0)
        a["points"] += pts
        a["max_points"] = max(a["max_points"], pts)
        a["evals"] += s.counts.get("evals", 0)
        a["blowups"] += s.counts.get("blowups", 0)

    gone = set(missing)
    present = {name for name, targets in LAYERS.items()
               if not all(t in gone for t in targets)}
    derived = {
        "moments.tables.s": (("excitation.excitation_sweep", "moments.second_moment"),
                             agg["excitation.excitation_sweep"]["s"]
                             - agg["moments.second_moment"]["s"]),
        "simulate.blowups": (("simulate.simulate_mild",),
                             agg["simulate.simulate_mild"]["blowups"]),
    }
    out = {}
    for metric in METRICS:
        layer, _, field = metric.rpartition(".")
        if metric in derived:
            sources, value = derived[metric]
            if present.issuperset(sources):
                out[metric] = value
        elif layer in present:
            out[metric] = agg[layer][field]
    return out
