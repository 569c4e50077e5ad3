"""Span tracing installed from outside the program.

The program under test carries no benchmark hooks, so the traced run
wraps each layer's functions in place: a wrapper opens a span on entry
and closes it on exit, and a layer's *self time* is its spans' duration
minus the part covered by child spans (of any layer).  Spans are
aggregated per name as they close — ``[calls, total_s, self_s]`` — so
millions of per-access spans take constant memory.

Installing a wrapper replaces the function everywhere it is bound when
the traced pass starts:

* the defining module or class attribute;
* every ``from module import name`` copy in the program's modules
  (e.g. ``parallel/worker.py``'s ``open_ops``), found by identity;
* bound methods captured at construction (``NVDRAMSystem._tlb_hit``,
  ``_drain``) pick the wrapper up because systems are built after
  installation;
* closures handed out by factories (``data_path()``,
  ``build_fast_ops()``) are wrapped on their way out of the factory
  (see :mod:`perfbench.layers`).

A target the program no longer defines is skipped, so a refactor that
deletes one of two twins does not break the benchmark; the per-layer
coverage check catches a layer that lost every span.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


class SpanTracer:
    """Aggregating span recorder: per name ``[calls, total_s, self_s]``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # Open spans as [name, start, time covered by children].  The
        # wrappers hold references to these containers, so reset()
        # empties them in place.
        self.stack: List[list] = []
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        # Instances built while tracing; their counters are read after
        # the run (see perfbench.layers.harvest).
        self.systems: List[object] = []
        self.stores: List[object] = []

    def open(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        name, start, covered = self.stack.pop()
        elapsed = self.clock() - start
        record = self.spans.get(name)
        if record is None:
            record = self.spans[name] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - covered
        if self.stack:
            self.stack[-1][2] += elapsed

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self) -> None:
        self.stack.clear()
        self.spans.clear()
        self.counters.clear()
        self.systems.clear()
        self.stores.clear()

    def self_time(self, prefix: str) -> float:
        """Summed self time of every span named ``prefix`` or ``prefix.*``."""
        return sum(
            record[2]
            for name, record in self.spans.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def calls(self, name: str) -> int:
        record = self.spans.get(name)
        return int(record[0]) if record is not None else 0

    def layers(self) -> set:
        return {name.split(".", 1)[0] for name in self.spans}

    def export(self) -> dict:
        """Picklable snapshot (spans and counters) for another process."""
        return {
            "spans": {name: list(rec) for name, rec in self.spans.items()},
            "counters": dict(self.counters),
        }

    def merge(self, snapshot: dict) -> None:
        for name, (calls, total, own) in snapshot["spans"].items():
            record = self.spans.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += own
        for name, amount in snapshot["counters"].items():
            self.count(name, amount)


def copy_identity(wrapper: Callable, fn: Callable) -> Callable:
    # Same module and qualified name as the original: pickle resolves a
    # function by those, and finds the wrapper installed in its place.
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def span_wrapper(
    fn: Callable,
    name: str,
    tracer: SpanTracer,
    after: Optional[Callable[[object], object]] = None,
) -> Callable:
    """``fn`` inside a span named ``name``; ``after`` maps the result."""
    stack = tracer.stack
    clock = tracer.clock
    close = tracer.close

    # Two bodies so the per-access spans pay no test for ``after``.
    if after is None:

        def traced(*args, **kwargs):
            stack.append([name, clock(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                close()

    else:

        def traced(*args, **kwargs):
            stack.append([name, clock(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                close()
            return after(result)

    return copy_identity(traced, fn)


def _resolve(target: str) -> List[Tuple[object, str]]:
    """``"module:attr"``, ``"module:Class.attr"`` or ``"module:*.attr"``.

    Returns the (owner, attribute) pairs that define the target; the
    ``*`` form expands to every class of the module that defines
    ``attr`` itself.  Missing modules, classes or attributes resolve to
    nothing.
    """
    module_name, _, path = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        return [(module, attr)] if callable(getattr(module, attr, None)) else []
    if owner_name == "*":
        return [
            (value, attr)
            for value in vars(module).values()
            if isinstance(value, type)
            and value.__module__ == module_name
            and callable(value.__dict__.get(attr))
        ]
    owner = getattr(module, owner_name, None)
    if isinstance(owner, type) and callable(owner.__dict__.get(attr)):
        return [(owner, attr)]
    return []


#: The program's package: ``from … import`` copies are rebound inside it.
PACKAGE = "repro"


class Installation:
    """Wrappers currently installed; :meth:`remove` restores every site."""

    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``target`` with ``make(original)`` at every binding site."""
        sites = _resolve(target)
        if not sites:
            self.missing.append(target)
            return
        for owner, attr in sites:
            if isinstance(owner, type):
                self._set(owner, attr, make(owner.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = make(original)
            self._set(owner, attr, wrapper)
            self._rebind_imports(original, wrapper)

    def span(
        self,
        target: str,
        name: str,
        after: Optional[Callable[[object], object]] = None,
    ) -> None:
        self.replace(
            target, lambda fn: span_wrapper(fn, name, self.tracer, after)
        )

    def _rebind_imports(self, original: object, wrapper: object) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self.missing.clear()
