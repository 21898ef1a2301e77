"""Spans around the package's public functions, installed from outside it.

`Tracer.install()` replaces every public function of the binheight modules
(each module's __all__), the __post_init__ of their public dataclasses and
IncrementalRank.insert by timing wrappers, in every binheight module
namespace that holds them, so calls between modules are traced too.  Spans
stay in memory: name, start, end, parent span and instance.  A span's self
time is its duration minus the time its child spans cover.

A few wrappers also read the returned value to count work (transform
entries, generators, decisions by method).  A target that no longer exists
is skipped, and the metrics that depend on it are left out of the report
instead of reading zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("linalg", "binomial", "toric", "polyomino", "bedge", "hibi", "cli")


def _transform_entries(dec) -> dict:
    transforms = (getattr(dec, "u", None), getattr(dec, "v", None))
    return {"transform_entries": sum(m.rows * m.cols for m in transforms if m is not None)}


def _presentation_generators(args) -> dict:
    return {"generators": len(args[0].generators)}


# counters read from a traced call: span name -> function of the result
# (or, for __post_init__, of the call's arguments)
RESULT_COUNTERS = {
    "linalg.smith_normal_form": _transform_entries,
    "toric.jacobian_generators": lambda rep: {"found": len(rep.generators)},
    "toric.isolated_singularity_by_jacobian": lambda rep: {f"decided.{rep.method}": 1},
    "hibi.poset_ideals": lambda ideals: {"ideals": len(ideals)},
    "hibi.presentation": lambda pres: {"relations": len(pres.toric.generators)},
}
ARGUMENT_COUNTERS = {"toric.ToricIdealPresentation.init": _presentation_generators}
GENERATORS = {"linalg.nonzero_minors"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, instance, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()
        self.instance = None
        self._stack: list[list] = []  # [span id, child seconds]
        self._restore: list[tuple] = []

    # ----------------------------------------------------------- recording

    def _enter(self) -> tuple[int, float]:
        span_id = len(self.spans) + len(self._stack)
        self._stack.append([span_id, 0.0])
        return span_id, time.perf_counter()

    def _exit(self, name: str, span_id: int, start: float) -> None:
        end = time.perf_counter()
        _, children = self._stack.pop()
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - children
        parent = None
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, self.instance, name, start, end))

    def span(self, name: str, call, *args, **kwargs):
        """Run call(*args, **kwargs) inside a span called `name`."""
        span_id, start = self._enter()
        try:
            return call(*args, **kwargs)
        finally:
            self._exit(name, span_id, start)

    def _count(self, name: str, values: dict) -> None:
        for key, x in values.items():
            self.counters[f"{name}.{key}"] += x

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        tracer = self
        on_result = RESULT_COUNTERS.get(name)
        on_args = ARGUMENT_COUNTERS.get(name)
        is_generator = name in GENERATORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            result = tracer.span(name, fn, *args, **kwargs)
            if on_result is not None:
                tracer._count(name, on_result(result))
            if on_args is not None:
                tracer._count(name, on_args(args))
            if is_generator:
                return tracer._drain(name, result)
            return result

        return traced

    def _drain(self, name: str, iterator):
        """Re-yield from `iterator`, timing each draw as a span of `name`."""
        iterator = iter(iterator)
        while True:
            span_id, start = self._enter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit(name, span_id, start)
            self.counters[f"{name}.yielded"] += 1
            yield item

    def install(self) -> None:
        """Wrap the package's public functions; undo with uninstall()."""
        modules = {m: importlib.import_module(f"binheight.{m}") for m in MODULES}
        namespaces = [importlib.import_module("binheight")] + list(modules.values())
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(f"{short}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._restore.append((ns, key, value))
                                setattr(ns, key, wrapped)
                    self.installed.add(f"{short}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for method, label in (("__post_init__", "init"), ("insert", "insert")):
                        fn = vars(obj).get(method)
                        if inspect.isfunction(fn):
                            name = f"{short}.{attr}.{label}"
                            self._restore.append((obj, method, fn))
                            setattr(obj, method, self._wrap(name, fn))
                            self.installed.add(name)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # ------------------------------------------------------------- reports

    def module_self_time(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out
