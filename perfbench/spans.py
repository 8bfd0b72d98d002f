"""Span recording around calls into the defi_stress modules.

The wrappers are installed from outside the package: every public function
of every loaded ``defi_stress`` module is replaced, in each module namespace
that binds it, by a wrapper that records one span per call. ``stress`` binds
``simulate_correlated``, ``liquidate_ensemble`` and ``run_liquidation`` by
name, so replacing them only on their defining module would miss those calls.

A span is ``[name, parent, start, end, rss_start_kb, rss_end_kb, count]``:
``parent`` is the index of the enclosing span (-1 at top level), times are
CLOCK_MONOTONIC seconds, the rss values are the process's RSS high-water mark
and ``count`` is the work the call did, for the functions listed in COUNTERS.
Spans stay in memory until the launcher writes them out as it exits.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import resource
import sys
import time
import types
from pathlib import Path


def now() -> float:
    """CLOCK_MONOTONIC is system-wide, so a child's stamps and its parent's
    stamps lie on one time line."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _rss_hwm_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _bound(func, args, kwargs, name):
    return inspect.signature(func).bind(*args, **kwargs).arguments[name]


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# Work done by one call, read from its arguments or result.
COUNTERS = {
    # shocks drawn: assets x paths x horizon
    "paths.simulate_correlated": lambda f, a, k, r: 2 * r.collateral_paths.shape[0]
    * (r.collateral_paths.shape[1] - 1),
    "paths.simulate_gbm": lambda f, a, k, r: r.shape[0] * (r.shape[1] - 1),
    # path-days liquidated: paths x (horizon + 1)
    "protocol.liquidate_ensemble": lambda f, a, k, r: int(
        _bound(f, a, k, "collateral_paths").size
    ),
    "protocol.run_liquidation": lambda f, a, k, r: len(r),
    "stress.write_report": lambda f, a, k, r: _file_bytes(r),
    "stress.write_heatmap_csv": lambda f, a, k, r: _file_bytes(
        [_bound(f, a, k, "path")]
    ),
    "contagion.write_loss_csv": lambda f, a, k, r: int(
        _bound(f, a, k, "dist").samples.size
    ),
}


class Recorder:
    """In-memory span list with a stack of open spans (single thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, now(), None, _rss_hwm_kb(), None, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, count: int = 0) -> None:
        span = self.spans[index]
        span[3] = now()
        span[5] = _rss_hwm_kb()
        span[6] = count
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, func):
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.open(name)
            count = 0
            try:
                result = func(*args, **kwargs)
                if counter is not None:
                    count = counter(func, args, kwargs, result)
                return result
            finally:
                self.close(index, count)

        return traced


def package_modules() -> list[types.ModuleType]:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and name.startswith("defi_stress.")
    ]


def public_functions(module: types.ModuleType):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and isinstance(value, types.FunctionType)
            and value.__module__ == module.__name__
        ):
            yield name, value


def install(recorder: Recorder) -> int:
    """Wrap every public function of the loaded package modules, in every
    package namespace that binds it; returns the number wrapped."""
    modules = package_modules()
    wrappers = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for name, func in public_functions(module):
            wrappers[id(func)] = recorder.wrap(f"{short}.{name}", func)
    for module in modules:
        for name, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and id(value) in wrappers:
                setattr(module, name, wrappers[id(value)])
    return len(wrappers)


def mark_first_call(entry_points, on_first) -> None:
    """Replace each (module, name) entry point with a wrapper that calls
    ``on_first()`` once, before the first call into any of them."""
    state = {"seen": False}
    for module, name in entry_points:
        func = getattr(module, name)

        @functools.wraps(func)
        def marked(*args, _func=func, **kwargs):
            if not state["seen"]:
                state["seen"] = True
                on_first()
            return _func(*args, **kwargs)

        setattr(module, name, marked)
