"""Layer-boundary tracing for the beliefcheck benchmark.

A span opens when a call crosses into a package module (a layer) and
closes when it returns. Spans nest on one thread, so the open spans
form a stack, and a span's self time is its duration minus the time
its direct children cover. A sweep crosses a boundary about ten
million times, so spans are folded into per-name totals as they close
instead of being kept one by one; the arithmetic is the same.

Nothing in ``src/`` is edited. ``Tracer.install`` rebinds, from
outside, every public function where a layer module binds it (for
example ``beliefcheck.audit.certain_of``) and the public methods of
``BeliefOperator``, ``BeliefModel`` and ``ModelSpecDocument``;
``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("audit", "core", "signals", "qualitative", "informativeness", "games", "dsl", "cli")
TRACED_CLASSES = (("core", "BeliefOperator"), ("core", "BeliefModel"), ("dsl", "ModelSpecDocument"))


class Recorder:
    """Open-span stack plus per-name call counts and self times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # open spans: [name, start, covered by children]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}

    def fold(self, name: str, duration: float, covered: float = 0.0) -> None:
        """Account one closed span of `duration`, `covered` of it by children."""
        if self.stack:
            self.stack[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered

    def traced(self, name: str, fn):
        """`fn` wrapped in a span called `name`."""
        stack, clock, fold = self.stack, self.clock, self.fold

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                fold(name, end - span[1], span[2])

        return wrapper


def by_layer(values: dict[str, float]) -> dict[str, float]:
    """Sum per-name values into per-layer values, every layer present."""
    out = {layer: 0 for layer in LAYERS}
    for name, value in values.items():
        out[name.split(".", 1)[0]] += value
    return out


def _public_callable(value) -> bool:
    # lru_cache wrappers are not functions but carry the module of the
    # function they cache
    return inspect.isfunction(value) or hasattr(value, "cache_info")


class Tracer:
    """Installs and removes span wrappers on the package's layer boundaries."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def boundaries(self):
        """(owner, attribute, span name, raw attribute) for every boundary."""
        for layer in LAYERS:
            module = importlib.import_module(f"beliefcheck.{layer}")
            for attr, value in vars(module).items():
                origin = getattr(value, "__module__", "") or ""
                if (
                    not attr.startswith("_")
                    and _public_callable(value)
                    and origin.startswith("beliefcheck.")
                ):
                    yield module, attr, f"{origin.rsplit('.', 1)[1]}.{attr}", value
        for layer, cls_name in TRACED_CLASSES:
            cls = getattr(importlib.import_module(f"beliefcheck.{layer}"), cls_name)
            for attr, raw in vars(cls).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield cls, attr, f"{layer}.{attr}", raw

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, raw in self.boundaries():
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.recorder.traced(name, raw.__func__))
            else:
                wrapped = self.recorder.traced(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

