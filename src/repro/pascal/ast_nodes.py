"""Abstract syntax tree for Mini-Pascal.

Every node carries a :class:`~repro.pascal.errors.SourceLocation` and a
``node_id``, unique within one program. The ids let later phases
(transformation, slicing, execution-tree construction) refer to
specific constructs and maintain original-to-transformed mappings
without identity hacks.

Ids are *not* unique across programs: a mutant's analysis is a patch of
its host's (:class:`~repro.pascal.semantics.AnalysisPatch`), and its
transform a patch of its host's transform
(:class:`~repro.transform.pipeline.TransformPatch`), whose copied nodes
keep their base's ids and whose other nodes are the base's own. Every id-keyed consumer works within one program: the side tables
of an analysis, the tracer and the compiler (statement and loop ids of
the program they run; the compile cache is keyed by the analysis
object), a transformation's ``SourceMap`` and the transparency layer
(transformed ids to ids of the one original program). The reference
oracle matches questions by unit name and inputs, never by id.

Nodes are plain mutable dataclasses, but no phase edits a tree it did
not build: a transformation pass builds new nodes for what it rewrites
and shares the rest with its input (same objects, same ids), and
:func:`clone` produces deep copies with fresh ids when a construct must
appear in both the original and the transformed program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Iterator

from repro.pascal.errors import SourceLocation

_NODE_IDS = itertools.count(1)


def _next_id() -> int:
    return next(_NODE_IDS)


#: per node class, the names of its fields other than ``location`` and
#: ``node_id``, in declaration order (filled on first use: the class
#: must be a finished dataclass by then)
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def child_fields(cls: type) -> tuple[str, ...]:
    """The names of ``cls``'s fields other than ``location`` and
    ``node_id``, in declaration order."""
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = _CHILD_FIELDS[cls] = tuple(
            f.name for f in fields(cls) if f.name not in ("location", "node_id")
        )
    return names


@dataclass
class Node:
    """Base class for all AST nodes."""

    location: SourceLocation = field(default_factory=SourceLocation.unknown, kw_only=True)
    node_id: int = field(default_factory=_next_id, kw_only=True, compare=False)

    def children(self) -> list["Node"]:
        """Direct child nodes in syntactic order (a fresh list)."""
        kids: list[Node] = []
        for name in child_fields(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                kids.append(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, Node):
                        kids.append(item)
        return kids

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        stack: list[Node] = [self]
        pop = stack.pop
        while stack:
            node = pop()
            yield node
            kids = node.children()
            if kids:
                # pushed last-first, so the first child pops next
                kids.reverse()
                stack += kids


# ----------------------------------------------------------------------
# Type expressions


@dataclass
class TypeExpr(Node):
    """Base class for type denotations."""


@dataclass
class NamedType(TypeExpr):
    """A reference to a named type: ``integer``, ``boolean``, ``intarray``."""

    name: str = ""


@dataclass
class ArrayType(TypeExpr):
    """``array[lo..hi] of elem``. Bounds are constant expressions."""

    low: "Expr" = None  # type: ignore[assignment]
    high: "Expr" = None  # type: ignore[assignment]
    element: TypeExpr = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Expressions


@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class BoolLiteral(Expr):
    value: bool = False


@dataclass
class StringLiteral(Expr):
    value: str = ""


@dataclass
class VarRef(Expr):
    """A bare identifier used as a value or assignment target."""

    name: str = ""


@dataclass
class IndexedRef(Expr):
    """Array element access ``base[index]``; ``base`` may itself be indexed."""

    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class FuncCall(Expr):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class UnaryOp(Expr):
    """``op`` is one of ``-``, ``+``, ``not``."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class BinaryOp(Expr):
    """``op`` is an arithmetic, relational, or boolean operator token text."""

    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class ArrayLiteral(Expr):
    """``[e1, e2, ...]`` — an array constructor (extension used by the
    paper's own example, which calls ``sqrtest([1,2], 2, isok)``)."""

    elements: list[Expr] = field(default_factory=list)


# ----------------------------------------------------------------------
# Declarations


@dataclass
class Decl(Node):
    """Base class for declarations."""


@dataclass
class ConstDecl(Decl):
    name: str = ""
    value: Expr = None  # type: ignore[assignment]


@dataclass
class TypeDecl(Decl):
    name: str = ""
    type_expr: TypeExpr = None  # type: ignore[assignment]


@dataclass
class VarDecl(Decl):
    """One ``name : type`` binding (``var a, b: integer`` parses into two)."""

    name: str = ""
    type_expr: TypeExpr = None  # type: ignore[assignment]


@dataclass
class LabelDecl(Decl):
    """``label 9;`` — labels are numeric, following classic Pascal."""

    label: str = ""


class ParamMode:
    """Parameter passing modes.

    ``VALUE`` and ``VAR`` are standard Pascal. ``IN_`` and ``OUT`` are
    produced by the transformation phase when globals become parameters
    (the paper's ``in x: ...; out z: ...`` notation); they behave as
    value and result parameters respectively.
    """

    VALUE = "value"
    VAR = "var"
    IN_ = "in"
    OUT = "out"


@dataclass
class Param(Node):
    name: str = ""
    type_expr: TypeExpr = None  # type: ignore[assignment]
    mode: str = ParamMode.VALUE


@dataclass
class Block(Node):
    """Declaration part + body of a program, procedure, or function."""

    labels: list[LabelDecl] = field(default_factory=list)
    consts: list[ConstDecl] = field(default_factory=list)
    types: list[TypeDecl] = field(default_factory=list)
    variables: list[VarDecl] = field(default_factory=list)
    routines: list["RoutineDecl"] = field(default_factory=list)
    body: "Compound" = None  # type: ignore[assignment]


@dataclass
class RoutineDecl(Decl):
    """A procedure or function declaration (``result_type is None`` for
    procedures). Routines may nest."""

    name: str = ""
    params: list[Param] = field(default_factory=list)
    result_type: TypeExpr | None = None
    block: Block = None  # type: ignore[assignment]

    @property
    def is_function(self) -> bool:
        return self.result_type is not None


@dataclass
class Program(Node):
    name: str = ""
    block: Block = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Statements


@dataclass
class Stmt(Node):
    """Base class for statements. ``label`` is the numeric label prefixed
    to the statement (``9: s``), or None."""

    label: str | None = field(default=None, kw_only=True)


@dataclass
class EmptyStmt(Stmt):
    pass


@dataclass
class Assign(Stmt):
    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class ProcCall(Stmt):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class Compound(Stmt):
    statements: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    condition: Expr = None  # type: ignore[assignment]
    then_branch: Stmt = None  # type: ignore[assignment]
    else_branch: Stmt | None = None


@dataclass
class While(Stmt):
    condition: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Repeat(Stmt):
    body: list[Stmt] = field(default_factory=list)
    condition: Expr = None  # type: ignore[assignment]


@dataclass
class For(Stmt):
    """``for var := start to|downto stop do body``."""

    variable: str = ""
    start: Expr = None  # type: ignore[assignment]
    stop: Expr = None  # type: ignore[assignment]
    downto: bool = False
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Goto(Stmt):
    target: str = ""


# ----------------------------------------------------------------------
# Utilities


def clone(
    node: Node,
    ids: dict[int, int] | None = None,
    locations: dict[int, SourceLocation] | None = None,
) -> Node:
    """Deep-copy an AST, assigning fresh node ids throughout.

    Returns a structurally identical tree that shares no nodes with the
    original — used by the transformation phase, which must leave the
    original program intact for transparent debugging. When ``ids`` is
    given, it receives new id -> original id for every copied node.
    When ``locations`` is given, each copy is located at the entry for
    its original's id instead of where its original is.
    """
    if not isinstance(node, Node):
        return node
    kwargs = {
        "location": node.location if locations is None else locations[node.node_id]
    }
    for name in child_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            kwargs[name] = clone(value, ids, locations)
        elif isinstance(value, list):
            kwargs[name] = [
                clone(item, ids, locations) if isinstance(item, Node) else item
                for item in value
            ]
        else:
            kwargs[name] = value
    copy = type(node)(**kwargs)
    if ids is not None:
        ids[copy.node_id] = node.node_id
    return copy


def iter_statements(stmt: Stmt) -> Iterator[Stmt]:
    """Yield ``stmt`` and every statement nested within it, pre-order."""
    stack: list[Stmt] = [stmt]
    pop = stack.pop
    while stack:
        stmt = pop()
        yield stmt
        # nested statements pushed last-first, so the first pops next
        if isinstance(stmt, Compound):
            stack += reversed(stmt.statements)
        elif isinstance(stmt, If):
            if stmt.else_branch is not None:
                stack.append(stmt.else_branch)
            stack.append(stmt.then_branch)
        elif isinstance(stmt, (While, For)):
            stack.append(stmt.body)
        elif isinstance(stmt, Repeat):
            stack += reversed(stmt.body)


def iter_routines(program: Program) -> Iterator[RoutineDecl]:
    """Yield every routine declared anywhere in the program, outer first."""

    def visit(block: Block) -> Iterator[RoutineDecl]:
        for routine in block.routines:
            yield routine
            yield from visit(routine.block)

    yield from visit(program.block)
