"""In-memory span tracer that wraps a package's functions from outside.

``Tracer(package, targets)`` wraps each target function (``"module.func"``,
relative to ``package``) and rebinds every module-global reference to the
original function object across the package's loaded modules. That covers
callers that import by name (``from .sfc import sfc_range``) as well as
callers that go through the module (``cat.dsfc_partials``). A target that
does not exist is recorded in ``absent`` instead of raising, so the same
target list runs against older and newer versions of the package.

Closed spans are folded into per-target totals as they end: call count
and self time (the span's duration minus the time covered by its child
spans). ``top_level_s`` sums the spans that had no traced parent, so
``sum(self_s) == top_level_s`` and the wall time of the traced region is
``top_level_s`` plus the unwrapped remainder. Optional counter hooks turn a
call's arguments and result into named counts (bytes, coefficients).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping

CounterHook = Callable[[tuple, dict, object], Mapping[str, float]]


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    """Context manager that wraps ``targets`` while active and restores them after."""

    def __init__(
        self,
        package: str,
        targets: list[str],
        counters: Mapping[str, CounterHook] | None = None,
    ) -> None:
        self.package = package
        self.targets = list(targets)
        self.counters = dict(counters or {})
        self.stats = {target: SpanStats() for target in self.targets}
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.top_level_s = 0.0
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: str, func):
        stats = self.stats[target]
        hook = self.counters.get(target)
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)  # time covered by child spans
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.self_s += duration - children
                if stack:
                    stack[-1] += duration
                else:
                    self.top_level_s += duration
            if hook is not None:
                for name, value in hook(args, kwargs, result).items():
                    self.counts[name] = self.counts.get(name, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        prefix = self.package + "."
        for target in self.targets:
            module_name, _, func_name = target.rpartition(".")
            try:
                module = importlib.import_module(prefix + module_name)
            except ImportError:
                self.absent.append(target)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            loaded = [
                mod
                for name, mod in list(sys.modules.items())
                if mod is not None and (name == self.package or name.startswith(prefix))
            ]
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
