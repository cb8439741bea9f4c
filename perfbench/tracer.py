"""Spans around calls into kcdag's layers, recorded from outside the package.

`Tracer.install` wraps the public functions of each layer module and the
public `DiagramStore` operations named in ENGINE_METHODS, in every kcdag
namespace that binds them, so calls between layers are seen too.  Private
`_` helpers are never wrapped.  A span is (name, start, end, parent index);
a recursive function gets one span per outermost call while every call is
counted.  Inside `quiet` nothing is recorded or counted, so work the
benchmark does for itself (checks, boundary counts) is left to `bench`.
Spans stay in memory until `write`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from time import perf_counter

# layer name -> module; kcdag.store is the engine's public wrapper
LAYER_MODULES = {
    "cnf": "kcdag.cnf",
    "ordering": "kcdag.ordering",
    "compiler": "kcdag.compiler",
    "engine": "kcdag.store",
    "convert": "kcdag.convert",
    "decompose": "kcdag.decompose",
    "ops": "kcdag.ops",
    "diagram_io": "kcdag.diagram_io",
    "validate": "kcdag.validate",
}
LAYERS = tuple(LAYER_MODULES)

# engine-independent oracles: the benchmark's reference, not a layer
REFERENCE = {"oracle_eval", "oracle_count", "oracle_models", "iter_assignments"}

ENGINE_METHODS = ("conjoin", "disjoin", "negate", "condition", "model_count")
ENGINE_PROPERTIES = ("num_vertices",)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._calls: dict[str, list[int]] = {}
        self._top: dict[str, list[int]] = {}
        self._quiet = [0]
        self._undo: list = []

    @contextlib.contextmanager
    def quiet(self):
        """Calls made inside are neither timed nor counted."""
        self._quiet[0] += 1
        try:
            yield
        finally:
            self._quiet[0] -= 1

    # ------------------------------------------------------------------
    # wrapping

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        calls = self._calls.setdefault(name, [0])
        top = self._top.setdefault(name, [0])
        quiet = self._quiet
        active = [False]
        clock = perf_counter

        def open_span():
            top[0] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            return idx, parent, clock()

        def close_span(idx, parent, start):
            end = clock()
            if stack[-1] == idx:
                stack.pop()
            else:
                stack.remove(idx)
            spans[idx] = (name, start, end, parent)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                if quiet[0]:
                    yield from fn(*args, **kwargs)
                    return
                calls[0] += 1
                idx, parent, start = open_span()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    close_span(idx, parent, start)
        else:
            def wrapper(*args, **kwargs):
                if quiet[0]:
                    return fn(*args, **kwargs)
                calls[0] += 1
                if active[0]:
                    return fn(*args, **kwargs)
                active[0] = True
                idx, parent, start = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(idx, parent, start)
                    active[0] = False
        return functools.update_wrapper(wrapper, fn)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import kcdag
        replace = {}
        for layer, modname in LAYER_MODULES.items():
            mod = sys.modules[modname]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in REFERENCE
                        or not inspect.isfunction(obj) or obj.__module__ != modname):
                    continue
                replace[obj] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "kcdag" or n.startswith("kcdag."))]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._set(mod, attr, replace[obj])
        store_cls = kcdag.DiagramStore
        for attr in ENGINE_METHODS:
            self._set(store_cls, attr, self._wrap(f"engine.{attr}", store_cls.__dict__[attr]))
        for attr in ENGINE_PROPERTIES:
            prop = store_cls.__dict__[attr]
            self._set(store_cls, attr, property(self._wrap(f"engine.{attr}", prop.fget)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # results

    def summary(self, wall: float) -> dict[str, float]:
        """Per-function and per-layer times of the recorded spans.

        `<f>.s` is the inclusive time of f's outermost calls, `<f>.self_s`
        that minus its child spans; `<layer>.self_s` sums the self times of
        the layer's functions, and `bench.self_s` is the part of `wall` that
        no span covers, so the layer self times and it add up to `wall`.
        """
        child: dict[int, float] = {}
        for name, s0, s1, parent in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (s1 - s0)
        out: dict[str, float] = {layer + ".self_s": 0.0 for layer in LAYERS}
        top_level = 0.0
        for idx, (name, s0, s1, parent) in enumerate(self.spans):
            dur = s1 - s0
            own = dur - child.get(idx, 0.0)
            out[name + ".s"] = out.get(name + ".s", 0.0) + dur
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + own
            layer = name.split(".", 1)[0]
            out[layer + ".self_s"] += own
            if parent < 0:
                top_level += dur
        for name, cell in self._calls.items():
            out[name + ".calls"] = cell[0]
            out[name + ".top_calls"] = self._top[name][0]
        out["bench.self_s"] = wall - top_level
        out["trace.wall_s"] = wall
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
