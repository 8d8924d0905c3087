"""Spans and counters around the public functions of every abcdwaves module.

``install`` wraps each public module-level function and each public method
(plus the arithmetic operators) of each public class, then rebinds every
name a caller looks up: the defining module's attribute, the copies other
modules made with ``from .x import y``, the package namespace and module
dicts that hold the function (such as the family builder table).  Nothing
in ``src/`` changes.

Only calls made inside a root call (the harness wraps each workload call as
one, with ``root=True``) are recorded, so output checks and digests stay out
of the figures.  Every recorded call adds to a per-name counter (calls,
total seconds, self seconds, calls that raised).  Self time is the call's duration minus the
durations of the wrapped calls nested directly in it.  Module-level
functions also leave one span each, except the hot ones named in
``HOT_FUNCTIONS`` and all methods, which run once per sample point or per
polynomial term and keep only their counters.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import time

LAYERS = ("elliptic", "ratpoly", "cnexpr", "reduction", "families", "solver",
          "verifier", "cli")
HOT_FUNCTIONS = frozenset({"elliptic.jacobi_eval", "elliptic.complete_k",
                           "elliptic.cn_power_derivative",
                           "ratpoly.var_sort_key", "cnexpr.poly_from_terms"})
OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__neg__", "__pow__"})


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s, raised]
        self.spans: list[tuple] = []       # (name, call_id, parent, start_s, dur_s, self_s)
        self.call_id = -1                  # set by the harness around each call
        self.hooks: dict[str, callable] = {}   # name -> fn(result); set before install
        self._stack: list[list] = []       # [child_s, span index] per open call

    def wrap(self, name, fn, record_span, root=False):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            inherited = parent[1] if parent else -1
            span = -1
            if record_span:
                span = len(spans)
                spans.append(None)
            frame = [0.0, span if span >= 0 else inherited]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if span >= 0:
                    spans[span] = (name, self.call_id, inherited, t0, dt,
                                   dt - frame[0])
            if hook is not None:
                hook(result)
            return result

        return traced


def _wrap_class(tracer, layer, cls, wrapped):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, member.__func__, False)))
        elif isinstance(member, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, member.__func__, False)))
        elif inspect.isfunction(member):
            new = tracer.wrap(name, member, False)
            setattr(cls, attr, new)
            wrapped[id(member)] = new


def install(tracer: Tracer) -> None:
    """Wrap every public function and method of the abcdwaves layers."""
    modules = {layer: importlib.import_module(f"abcdwaves.{layer}")
               for layer in LAYERS}
    wrapped: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = tracer.wrap(name, obj, name not in HOT_FUNCTIONS)
            elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                _wrap_class(tracer, layer, obj, wrapped)
    namespaces = [importlib.import_module("abcdwaves"), *modules.values()]
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrapped:
                        obj[key] = wrapped[id(value)]
