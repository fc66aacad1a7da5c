"""Per-layer call counts, self times and spans, recorded from outside.

The traced benchmark iteration replaces each layer's public entry points
with wrappers before the command runs.  A wrapper counts the call and
times it; the time a call spends inside other wrapped calls is charged
to those, so each layer's *self* time excludes its child layers.  Coarse
calls also leave a span (name, start, end, parent, iteration) in
memory; hot leaves are timed but leave no span, and the hottest calls
are only counted.

``from``-imports copy a function reference into the importing module,
so a module-level function is replaced in every loaded module of the
package that bound it, not only where it is defined.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, NamedTuple, Optional

__all__ = ["Target", "Tracer", "install"]

#: ``Target.kind`` values: timed with a span, timed only, counted only.
KINDS = ("span", "leaf", "count")


class Target(NamedTuple):
    """One wrapped call: ``owner.attr``, reported under ``layer``.

    ``owner`` is a module or a class.  For ``kind="count"`` the layer
    name is the counter's name.  ``on_result(tracer, result)`` runs
    after each successful call, for counters derived from results.
    """

    layer: str
    owner: object
    attr: str
    kind: str = "span"
    on_result: Optional[Callable] = None


class Tracer:
    """Accumulates per-layer calls and self time, counters and spans."""

    def __init__(self, iteration: int = 0,
                 clock: Callable[[], float] = time.perf_counter):
        self.iteration = iteration
        self.clock = clock
        self.origin = clock()
        #: layer -> completed calls.
        self.calls: dict = {}
        #: layer -> seconds spent in the layer outside child layers.
        self.self_s: dict = {}
        #: counter name -> count.
        self.counts: dict = {}
        #: span dicts in start order; ``parent`` indexes this list.
        self.spans: list = []
        # One frame per active wrapped call:
        # [seconds spent in child calls, index of the enclosing span].
        self._frames: list = []

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, layer: str, fn: Callable, span: bool = True,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` timed under ``layer``; with ``span``, also recorded."""
        self.calls.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)
        calls, self_s = self.calls, self.self_s
        frames, spans, clock = self._frames, self.spans, self.clock
        name = getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = frames[-1][1] if frames else None
            start = clock()
            if span:
                index = len(spans)
                spans.append({"name": name, "layer": layer,
                              "start": start - self.origin, "end": None,
                              "parent": parent,
                              "iteration": self.iteration})
            else:
                index = parent
            frame = [0.0, index]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                frames.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if span:
                    spans[index]["end"] = end - self.origin
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and no timing."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _homes(owner, attr: str, original, prefix: str) -> list:
    """Every ``(namespace, name)`` to patch so that callers see a wrapper.

    A class attribute is looked up through the class at call time, so
    the class is the only home.  A module function also lives on in each
    loaded module under ``prefix`` that imported it by name.
    """
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(
                f"{owner.__qualname__} does not define {attr!r} itself")
        return [(owner, attr)]
    homes = [(owner, attr)]
    for name, module in list(sys.modules.items()):
        if module is None or module is owner:
            continue
        if name != prefix and not name.startswith(prefix + "."):
            continue
        for bound, value in list(vars(module).items()):
            if value is original:
                homes.append((module, bound))
    return homes


def install(tracer: Tracer, targets, prefix: str = "repro") -> Callable:
    """Wrap every target; returns a function restoring the originals.

    Import every module that binds a target before calling this: a
    module imported later copies whatever its source module holds then,
    which is the wrapper, but one imported earlier is patched only if
    it is already in ``sys.modules``.
    """
    undo = []
    for target in targets:
        if target.kind not in KINDS:
            raise ValueError(f"unknown target kind {target.kind!r}")
        original = getattr(target.owner, target.attr)
        if target.kind == "count":
            wrapper = tracer.count(target.layer, original)
        else:
            wrapper = tracer.wrap(target.layer, original,
                                  span=target.kind == "span",
                                  on_result=target.on_result)
        for home, name in _homes(target.owner, target.attr, original,
                                 prefix):
            undo.append((home, name, getattr(home, name)))
            setattr(home, name, wrapper)

    def uninstall() -> None:
        for home, name, value in reversed(undo):
            setattr(home, name, value)

    return uninstall
