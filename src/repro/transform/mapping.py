"""Original ↔ transformed construct mapping (paper §6.1).

"The debugging system maintains a mapping between the original and the
transformed program constructs. ... Despite the fact that the program is
transformed into an internal form, the debugger still presents the
original program when interacting with the user."

Every transformation pass records, for each node of its output tree, the
node of its *input* tree it descends from (synthesized nodes map to
nothing). Maps compose, so after any number of passes the debugger can
take a transformed construct back to the source the user wrote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pascal import ast_nodes as ast


@dataclass
class SourceMap:
    """node id in the transformed tree -> node id in the original tree."""

    to_original: dict[int, int] = field(default_factory=dict)
    #: ids of nodes invented by a transformation (no original counterpart)
    synthesized: set[int] = field(default_factory=set)

    def record(self, new_node: ast.Node, original_node: ast.Node) -> None:
        self.to_original[new_node.node_id] = original_node.node_id

    def record_ids(self, ids: dict[int, int]) -> None:
        """Record many new id -> original id pairs at once."""
        self.to_original.update(ids)

    def record_synthesized(self, new_node: ast.Node) -> None:
        self.synthesized.add(new_node.node_id)

    def original_id(self, new_id: int) -> int | None:
        return self.to_original.get(new_id)

    def is_synthesized(self, new_id: int) -> bool:
        return new_id in self.synthesized

    def compose(self, earlier: "SourceMap") -> "SourceMap":
        """Composition: self maps B->A where ``earlier`` maps A->original.

        Returns a map from B directly to the original tree.
        """
        combined = SourceMap()
        for new_id, mid_id in self.to_original.items():
            if earlier.is_synthesized(mid_id):
                combined.synthesized.add(new_id)
                continue
            original = earlier.original_id(mid_id)
            if original is not None:
                combined.to_original[new_id] = original
            else:
                # The earlier pass never recorded this id: it cannot come
                # from the original tree, so treat it as synthesized.
                combined.synthesized.add(new_id)
        combined.synthesized |= self.synthesized
        return combined
