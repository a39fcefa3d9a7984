"""Execution trees (paper §5.2).

An execution tree records "information about the program's actual
execution": one node per *unit* activation — a procedure call, a
function call, a loop unit, or one loop iteration — each annotated with
the values flowing in and out. The algorithmic debugger traverses this
tree; the slicing component prunes it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.pascal.symbols import Symbol
from repro.pascal.values import format_value

_NODE_IDS = itertools.count(1)


class NodeKind(enum.Enum):
    MAIN = "main"
    CALL = "call"
    LOOP = "loop"
    ITERATION = "iteration"


class BindingMode(enum.Enum):
    IN = "In"
    OUT = "Out"
    RESULT = "Result"


@dataclass(frozen=True, slots=True)
class Binding:
    """One named value crossing a unit boundary, e.g. ``In y: 3``."""

    name: str
    mode: BindingMode
    value: object
    is_global: bool = False

    def render(self) -> str:
        if self.mode is BindingMode.RESULT:
            return format_value(self.value)
        return f"{self.mode.value} {self.name}: {format_value(self.value)}"


@dataclass(eq=False, slots=True)
class ExecNode:
    """One unit activation in the execution tree (slotted: trees carry
    one node per activation, so per-node dict overhead adds up fast)."""

    kind: NodeKind
    unit_name: str
    routine: Symbol | None = None
    loop_stmt_id: int | None = None
    iteration: int | None = None
    call_site_id: int | None = None
    parent: "ExecNode | None" = None
    children: list["ExecNode"] = field(default_factory=list)
    inputs: list[Binding] = field(default_factory=list)
    outputs: list[Binding] = field(default_factory=list)
    via_goto: str | None = None
    #: statement-occurrence ids executed directly in this activation
    occurrence_ids: list[int] = field(default_factory=list)
    node_id: int = field(default_factory=lambda: next(_NODE_IDS))

    # ------------------------------------------------------------------

    def add_child(self, child: "ExecNode") -> None:
        child.parent = self
        self.children.append(child)

    def walk(self) -> Iterator["ExecNode"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def ancestors(self) -> Iterator["ExecNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def subtree_size(self) -> int:
        return sum(1 for _ in self.walk())

    def output_binding(self, name: str) -> Binding:
        for binding in self.outputs:
            if binding.name == name:
                return binding
        raise KeyError(f"{self.unit_name} has no output named {name!r}")

    def input_binding(self, name: str) -> Binding:
        for binding in self.inputs:
            if binding.name == name:
                return binding
        raise KeyError(f"{self.unit_name} has no input named {name!r}")

    def output_position(self, position: int) -> Binding:
        """1-based output selection ("error on first output variable")."""
        if not 1 <= position <= len(self.outputs):
            raise IndexError(
                f"{self.unit_name} has {len(self.outputs)} outputs, not {position}"
            )
        return self.outputs[position - 1]

    def render_head(self) -> str:
        """Paper-style one-line rendering: ``computs(In y: 3, Out r1: 12)``."""
        if self.kind is NodeKind.MAIN:
            return self.unit_name.capitalize()
        result_bindings = [b for b in self.outputs if b.mode is BindingMode.RESULT]
        plain = [b for b in self.inputs] + [
            b for b in self.outputs if b.mode is not BindingMode.RESULT
        ]
        inner = ", ".join(binding.render() for binding in plain)
        if self.kind is NodeKind.ITERATION:
            return f"{self.unit_name}[iteration {self.iteration}]" + (
                f"({inner})" if inner else ""
            )
        text = f"{self.unit_name}({inner})"
        if result_bindings:
            text += f"={format_value(result_bindings[0].value)}"
        if self.via_goto is not None:
            # Exit side effects are "treated as one of the results from
            # the procedure call" (paper §6.1).
            text += f" [exits via goto {self.via_goto}]"
        return text

    def __repr__(self) -> str:
        return f"<ExecNode #{self.node_id} {self.render_head()}>"


@dataclass
class ExecutionTree:
    """The whole tree plus indexes used by the debugger and the slicer."""

    root: ExecNode
    #: occurrence id -> owning ExecNode
    occurrence_owner: dict[int, ExecNode] = field(default_factory=dict)
    #: (exec node id, output name) -> occurrence ids that last wrote it
    output_writers: dict[tuple[int, str], set[int]] = field(default_factory=dict)

    def walk(self) -> Iterator[ExecNode]:
        return self.root.walk()

    def size(self) -> int:
        return self.root.subtree_size()

    def find(self, unit_name: str, occurrence: int = 1) -> ExecNode:
        """The nth activation (pre-order) of the named unit."""
        count = 0
        for node in self.walk():
            if node.unit_name == unit_name:
                count += 1
                if count == occurrence:
                    return node
        raise KeyError(f"no activation #{occurrence} of unit {unit_name!r}")

    def render(
        self,
        max_depth: int | None = None,
        root: ExecNode | None = None,
        keep: Callable[[ExecNode], bool] | None = None,
    ) -> str:
        """ASCII rendering in the style of the paper's Figures 7–9.

        ``root`` restricts the rendering to a subtree; ``keep`` renders a
        pruned view (nodes failing the predicate are omitted).
        """
        lines: list[str] = []

        def visit(node: ExecNode, depth: int) -> None:
            if max_depth is not None and depth > max_depth:
                return
            if keep is not None and not keep(node):
                return
            lines.append("  " * depth + node.render_head())
            for child in node.children:
                visit(child, depth + 1)

        visit(root if root is not None else self.root, 0)
        return "\n".join(lines) + "\n"
