"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces the public entry points of ``repro`` modules
with timing wrappers for the duration of a ``with`` block and puts the
originals back on exit.  Each wrapper opens a span named after its layer;
a layer's *self time* is the time inside its spans minus the time spent in
spans of other layers nested under them, so a parent never counts its
children twice.  ``calls`` counts entries into a layer from outside it
(a layer calling itself recursively is one call).

Spans are kept per thread (the serve daemon runs jobs on threads of its
own) and summed under a lock.  Pool worker processes forked while the
wrappers are installed inherit them; the wrappers notice the foreign pid
and call straight through, so no span is ever recorded in a worker.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

OPAQUE = "<opaque>"
"""Layer name of a span that hides everything beneath it (see
:meth:`Tracer.opaque`)."""


class Tracer:
    """Install layer wrappers, accumulate self time, restore on exit."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.results: Dict[str, List[Any]] = defaultdict(list)
        self.spans = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installing wrappers ------------------------------------------------

    def wrap_function(
        self, module: str, name: str, layer: str, keep_result=None
    ) -> None:
        """Wrap ``module.name`` everywhere a ``repro`` module binds it.

        Modules import functions by name (``from .reduce import
        primary_reduce``), so patching only the defining module would miss
        every caller; each ``repro.*`` module whose global is the same
        object gets the wrapper.  ``keep_result(args, result)`` summarises
        each call; the summaries are kept under ``layer``.
        """
        original = getattr(importlib.import_module(module), name)
        wrapper = self._wrapper(layer, original, keep_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            if getattr(mod, name, None) is original:
                self._patch(mod, name, wrapper)

    def wrap_method(
        self, module: str, cls: str, name: str, layer: str, keep_result=None
    ) -> None:
        """Wrap method ``name`` of class ``module.cls``."""
        owner = getattr(importlib.import_module(module), cls)
        original = owner.__dict__[name]
        self._patch(owner, name, self._wrapper(layer, original, keep_result))

    def note_entry(
        self, module: str, cls: str, name: str, key: str, on_enter: Callable
    ) -> None:
        """Record ``on_enter(args)`` under ``key`` on each call, no span.

        For entry points that block on work done by other threads, where a
        span would only measure waiting.
        """
        owner = getattr(importlib.import_module(module), cls)
        original = owner.__dict__[name]
        tracer = self

        @functools.wraps(original)
        def noted(*args, **kwargs):
            value = on_enter(args)
            with tracer._lock:
                tracer.results[key].append(value)
            return original(*args, **kwargs)

        self._patch(owner, name, noted)

    def opaque(self, module: str, name: str) -> None:
        """Wrap ``module.name`` so that no span is recorded beneath it.

        Used where the same computation may run in a pool worker or
        in-process: the program's own per-phase timers already cover both
        cases, and spans on the in-process half would count it twice.
        """
        self.wrap_function(module, name, OPAQUE)

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> List[List]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(
        self, layer: str, fn: Callable, keep_result: Optional[Callable]
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            outer = stack[-1] if stack else None
            if outer is not None and outer[0] == OPAQUE:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]  # layer, seconds covered by child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if outer is not None:
                    outer[1] += elapsed
                with tracer._lock:
                    tracer.spans += 1
                    tracer.self_s[layer] += elapsed - frame[1]
                    if outer is None or outer[0] != layer:
                        tracer.calls[layer] += 1
            if keep_result is not None:
                summary = keep_result(args, result)
                with tracer._lock:
                    tracer.results[layer].append(summary)
            return result

        return span


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: median over repeats, on a no-op."""

    def noop() -> None:
        return None

    wrapped = Tracer()._wrapper("cost", noop, None)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    costs.sort()
    return max(0.0, costs[len(costs) // 2])
