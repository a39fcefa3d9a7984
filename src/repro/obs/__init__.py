"""``repro.obs`` — observability for the GADT pipeline.

The paper's headline claim is a *count*: integrating assertions, the
category-partition test database, and dynamic slicing reduces the
number of user interactions during bug localization (§5–§8). This
package makes that count — and the machine cost behind it — first-class:

* **spans** (:func:`span`) — nested ``perf_counter`` timers over the
  pipeline phases (per-transform-pass, tracing, slicing, the debug
  search);
* **metrics** (:func:`add`, :func:`set_gauge`, :func:`set_max_gauge`,
  :func:`observe`) — a process-local registry of counters, gauges, and
  histograms (:mod:`repro.obs.metrics`);
* **events** (:func:`emit`) — a stream of structured records (every
  span end, every debug query tagged with its answer source, every
  slice, every mutant outcome) fanned out to pluggable sinks: an
  in-memory ring buffer plus an optional JSONL file writer
  (:mod:`repro.obs.events`).

Observability is **off by default** and zero-overhead when off: every
public helper starts with one module-global flag test and returns
immediately (``span`` hands back a shared no-op span), as the
interpreter tests ``_hk is None`` before each execution-hook call.
Instrumentation sites are phase/query-granular — never per executed
statement — so even the enabled path costs microseconds per pipeline
run.

Typical use::

    from repro import obs

    obs.enable()
    system = GadtSystem.from_source(source)          # spans + counters
    result = system.debugger(oracle).debug()         # query events
    print(obs.report.render_summary(obs.snapshot()))
    obs.disable()
"""

from __future__ import annotations

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import report
from repro.obs import spans as _spans
from repro.obs.events import EventSink, JsonlFileSink, RingBufferSink
from repro.obs.metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import NULL_SPAN, NullSpan, Span, current_span_id

__all__ = [
    "Counter",
    "EventSink",
    "Gauge",
    "Histogram",
    "JsonlFileSink",
    "MetricsRegistry",
    "NullSpan",
    "REGISTRY",
    "RingBufferSink",
    "Span",
    "add",
    "add_sink",
    "current_span_id",
    "disable",
    "emit",
    "enable",
    "enabled",
    "events",
    "observe",
    "remove_sink",
    "report",
    "reset",
    "set_gauge",
    "set_max_gauge",
    "snapshot",
    "span",
]

_ENABLED = False

#: the ring buffer installed by :func:`enable` (None while disabled)
_RING: RingBufferSink | None = None


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return _ENABLED


def enable(ring_capacity: int = 4096) -> None:
    """Turn instrumentation on, installing the in-memory ring buffer."""
    global _ENABLED, _RING
    if _RING is None:
        _RING = RingBufferSink(capacity=ring_capacity)
        _events.SINKS.append(_RING)
    _ENABLED = True


def disable() -> None:
    """Stop recording. Registered metrics and sinks are kept (so numbers
    remain readable); :func:`reset` drops them."""
    global _ENABLED
    _ENABLED = False


def reset() -> None:
    """Clear all metrics, events, sinks, and open spans (test isolation;
    the CLI calls this before each profiled invocation)."""
    global _RING

    _metrics.REGISTRY.reset()
    for sink in _events.SINKS:
        sink.close()
    _events.SINKS.clear()
    _events.reset_seq()
    _spans.reset_stack()
    _RING = None
    if _ENABLED:  # re-install the ring buffer for the next recording
        enable()


# ----------------------------------------------------------------------
# sinks


def add_sink(sink: EventSink) -> EventSink:
    _events.SINKS.append(sink)
    return sink


def remove_sink(sink: EventSink) -> None:
    if sink in _events.SINKS:
        _events.SINKS.remove(sink)


def events() -> list[dict]:
    """The ring buffer's current contents (empty while never enabled)."""
    return _RING.events() if _RING is not None else []


# ----------------------------------------------------------------------
# instrumentation entry points (all gated on the enabled flag)


def span(name: str, **attrs: object) -> Span | NullSpan:
    """A context-managed timer; the shared no-op span when disabled."""
    if not _ENABLED:
        return NULL_SPAN
    return Span(name, attrs or None)


def add(name: str, amount: int = 1) -> None:
    """Increment the counter ``name``."""
    if _ENABLED:
        _metrics.REGISTRY.counter(name).add(amount)


def set_gauge(name: str, value: float) -> None:
    if _ENABLED:
        _metrics.REGISTRY.gauge(name).set(value)


def set_max_gauge(name: str, value: float) -> None:
    """Raise the gauge ``name`` to ``value`` if it is a new peak."""
    if _ENABLED:
        _metrics.REGISTRY.gauge(name).set_max(value)


def observe(name: str, value: float, unit: str = "") -> None:
    """Record ``value`` into the histogram ``name``."""
    if _ENABLED:
        _metrics.REGISTRY.histogram(name, unit=unit).observe(value)


def emit(kind: str, **fields: object) -> None:
    """Send one structured event to every sink.

    Events emitted while a span is open are stamped with that span's
    ``span_id``, linking them into the causal chain the journal records
    (a ``query`` event points at its ``debug.session`` span, a ``cache``
    event at the phase that hit the cache, ...).
    """
    if _ENABLED:
        if _spans._STACK and "span_id" not in fields:
            fields["span_id"] = _spans._STACK[-1].span_id
        _events.broadcast(kind, fields)


def snapshot(include_cache: bool = True) -> dict:
    """JSON-ready dump of the registry, plus the content-cache counters
    (:func:`repro.cache.cache_stats`) so one document carries both."""
    data = _metrics.REGISTRY.snapshot()
    if include_cache:
        from repro import cache as _cache

        data["cache"] = _cache.cache_stats()
    return data
