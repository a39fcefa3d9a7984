"""Symbols, types, and scopes for Mini-Pascal.

The semantic analyzer resolves every identifier to a :class:`Symbol`;
all later phases (dataflow, side-effect analysis, transformation,
slicing, the debugger's question rendering) speak in symbols rather
than raw names, so shadowing and nesting are handled once, here.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.pascal import ast_nodes as ast

_SYMBOL_IDS = itertools.count(1)


# ----------------------------------------------------------------------
# Types


class Type:
    """Base class for resolved types."""

    def __eq__(self, other: object) -> bool:  # pragma: no cover - overridden
        return self is other

    def __hash__(self) -> int:
        return id(self)


class ScalarType(Type):
    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name


INTEGER = ScalarType("integer")
BOOLEAN = ScalarType("boolean")
STRING = ScalarType("string")


class ArrayTypeInfo(Type):
    """A resolved array type with constant integer bounds."""

    def __init__(self, low: int, high: int, element: Type, name: str | None = None):
        self.low = low
        self.high = high
        self.element = element
        self.name = name  # declared type name, if any, for display

    @property
    def length(self) -> int:
        return self.high - self.low + 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayTypeInfo)
            and self.low == other.low
            and self.high == other.high
            and self.element == other.element
        )

    def __hash__(self) -> int:
        return hash(("array", self.low, self.high, self.element))

    def __repr__(self) -> str:
        return f"array[{self.low}..{self.high}] of {self.element!r}"

    def __str__(self) -> str:
        return self.name or f"array[{self.low}..{self.high}] of {self.element}"


# ----------------------------------------------------------------------
# Symbols


class SymbolKind(enum.Enum):
    PROGRAM = "program"
    VARIABLE = "variable"
    PARAMETER = "parameter"
    CONSTANT = "constant"
    TYPE = "type"
    ROUTINE = "routine"
    RESULT = "result"  # the implicit result variable of a function
    LABEL = "label"
    BUILTIN = "builtin"


@dataclass(eq=False)
class Symbol:
    """A named program entity.

    ``level`` is the static nesting depth of the declaring scope
    (0 = program/global scope). ``owner`` is the routine symbol whose
    scope declares this symbol, or None for globals.
    """

    name: str
    kind: SymbolKind
    type: Type | None = None
    level: int = 0
    owner: "Symbol | None" = None
    decl: ast.Node | None = None
    # Parameters only:
    param_mode: str = ""
    # Routines only:
    params: list["Symbol"] = field(default_factory=list)
    result_type: Type | None = None
    # Constants only:
    const_value: object = None
    uid: int = field(default_factory=lambda: next(_SYMBOL_IDS))

    @property
    def is_function(self) -> bool:
        return self.kind is SymbolKind.ROUTINE and self.result_type is not None

    @property
    def is_global(self) -> bool:
        return self.level == 0 and self.kind in (SymbolKind.VARIABLE, SymbolKind.CONSTANT)

    @property
    def qualified_name(self) -> str:
        """Dotted path making nested symbols unique, e.g. ``p.q.x``."""
        parts = [self.name]
        owner = self.owner
        while owner is not None:
            parts.append(owner.name)
            owner = owner.owner
        return ".".join(reversed(parts))

    def __repr__(self) -> str:
        return f"<{self.kind.value} {self.qualified_name}>"

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other


class Scope:
    """One lexical scope: a mapping from names to symbols, with a parent."""

    def __init__(self, parent: "Scope | None" = None, owner: Symbol | None = None):
        self.parent = parent
        self.owner = owner
        self.level = 0 if parent is None else parent.level + (1 if owner is not None else 0)
        self._symbols: dict[str, Symbol] = {}
        self._labels: dict[str, Symbol] = {}

    def declare(self, symbol: Symbol) -> Symbol:
        table = self._labels if symbol.kind is SymbolKind.LABEL else self._symbols
        if symbol.name in table:
            from repro.pascal.errors import SemanticError

            loc = symbol.decl.location if symbol.decl is not None else None
            raise SemanticError(f"duplicate declaration of '{symbol.name}'", loc)
        table[symbol.name] = symbol
        return symbol

    def lookup(self, name: str) -> Symbol | None:
        scope: Scope | None = self
        while scope is not None:
            symbol = scope._symbols.get(name)
            if symbol is not None:
                return symbol
            scope = scope.parent
        return None

    def lookup_label(self, name: str) -> Symbol | None:
        scope: Scope | None = self
        while scope is not None:
            symbol = scope._labels.get(name)
            if symbol is not None:
                return symbol
            scope = scope.parent
        return None

    def symbols(self) -> list[Symbol]:
        return list(self._symbols.values())
