"""Values built on first read, once, whichever thread reads first.

A transform's final analysis, an analysis's side effects and a
routine's loop units are built only when something reads them
(:class:`shared_cached_property`, :func:`fill_once`). Threads of one
process may share the objects that hold them (the transform cache hands
every caller of one text the same transform), and identity matters
downstream: the compile cache is keyed by the identity of an analysis,
and a mutant's recipe is matched to its host by ``is``. So every reader
must get the *same* value, and a build runs at most once.

One reentrant lock serializes every build: a build may read another
lazy value (a transform's loop units read its analysis's side effects),
and with a single lock no two builds can wait on each other. Under the
GIL two builds could not run in parallel anyway. A value once stored is
read without the lock.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

#: held while any lazy value is being built
_BUILD_LOCK = threading.RLock()

_MISSING = object()


def fill_once(table: dict, key: Any, build: Callable[[], Any]) -> Any:
    """``table[key]``, stored from ``build()`` on the first read. Every
    caller gets the stored object; the entry appears only when complete,
    so a reader iterating ``table`` never sees a half-built value."""
    value = table.get(key, _MISSING)
    if value is _MISSING:
        with _BUILD_LOCK:
            value = table.get(key, _MISSING)
            if value is _MISSING:
                value = table[key] = build()
    return value


class shared_cached_property:
    """A :func:`functools.cached_property` whose value is built once per
    instance even when threads race to read it first (see
    :func:`fill_once`). Like it, the value lives in the instance's
    ``__dict__`` under the property's name, which also lets a
    constructor store a value it already has."""

    def __init__(self, build: Callable[[Any], Any]):
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        return fill_once(instance.__dict__, self.name, lambda: self.build(instance))
