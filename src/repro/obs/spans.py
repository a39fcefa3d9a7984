"""Nesting span timers over ``time.perf_counter``.

A span measures one phase of the pipeline::

    with obs.span("trace.execute", program="fig4"):
        interpreter.run()

On exit the duration lands in the histogram named after the span
(``trace.execute`` with unit ``"s"``) and a ``span`` event goes to the
sinks, carrying a process-unique ``span_id``, the ``parent_id`` of the
enclosing span, the nesting depth, and the parent span name, so
per-pass transform timings can be re-assembled into a tree offline (the
Perfetto exporter in :mod:`repro.obs.export` does exactly that).

A span that exits through an exception records it instead of closing
silently: the event carries ``error: true`` plus the exception type
under ``error_type``.

When observability is disabled, :func:`repro.obs.span` hands back the
shared :data:`NULL_SPAN` instead — entering and exiting it does nothing,
as an unobserved interpreter run skips its
:class:`repro.pascal.interpreter.ExecutionHooks`: the disabled path pays
one flag test and no allocation.
"""

from __future__ import annotations

import itertools
import time

from repro.obs import events as _events
from repro.obs import metrics as _metrics

#: the stack of currently open spans (process-local, like the registry)
_STACK: list["Span"] = []

#: process-wide span-id allocator (reset with the event seq counter)
_SPAN_IDS = itertools.count(1)


class Span:
    """One timed, possibly nested, region. Use as a context manager."""

    __slots__ = (
        "name", "attrs", "started", "elapsed_s", "depth",
        "span_id", "parent_id",
    )

    def __init__(self, name: str, attrs: dict | None = None):
        self.name = name
        self.attrs = attrs
        self.started: float = 0.0
        self.elapsed_s: float = 0.0
        self.depth = 0
        self.span_id = 0
        self.parent_id: int | None = None

    def __enter__(self) -> "Span":
        self.span_id = next(_SPAN_IDS)
        self.depth = len(_STACK)
        self.parent_id = _STACK[-1].span_id if _STACK else None
        _STACK.append(self)
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed_s = time.perf_counter() - self.started
        if _STACK and _STACK[-1] is self:
            _STACK.pop()
        _metrics.REGISTRY.histogram(self.name, unit="s").observe(self.elapsed_s)
        if not _events.SINKS:
            return
        parent = _STACK[-1].name if _STACK else None
        fields: dict = {
            "name": self.name,
            "duration_s": self.elapsed_s,
            "depth": self.depth,
            "parent": parent,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }
        if self.attrs:
            fields.update(self.attrs)
        if exc_type is not None:
            fields["error"] = True
            fields["error_type"] = exc_type.__name__
        _events.broadcast("span", fields)


class NullSpan:
    """The disabled-path span: enters, exits, records nothing."""

    __slots__ = ()
    elapsed_s = 0.0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = NullSpan()


def reset_stack() -> None:
    global _SPAN_IDS
    _STACK.clear()
    _SPAN_IDS = itertools.count(1)


def current_depth() -> int:
    return len(_STACK)


def current_span_id() -> int | None:
    """The innermost open span's id, or None outside any span."""
    return _STACK[-1].span_id if _STACK else None
