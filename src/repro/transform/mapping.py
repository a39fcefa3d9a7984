"""Original ↔ transformed construct mapping (paper §6.1).

"The debugging system maintains a mapping between the original and the
transformed program constructs. ... Despite the fact that the program is
transformed into an internal form, the debugger still presents the
original program when interacting with the user."

Passes share what they do not rewrite (:mod:`repro.transform.rewriter`):
a node a pass leaves alone is in its output as the same object, with the
same id. So a pass records only the nodes it *creates*: for each, the
node of its input tree it descends from, or that it is synthesized.
Such a step map is read over a map that covers the input: the pipeline's
accumulated map starts as the identity over the user's program
(:meth:`SourceMap.identity`), and each pass's entries are layered over it
(:meth:`SourceMap.layered`), so a shared node keeps its entry. A whole
copy of a pass's output (globals-to-parameters makes one) is mapped by
:meth:`SourceMap.of_copy`, and composes with the maps before it
(:meth:`SourceMap.compose`). After any number of passes the debugger can
so take a transformed construct back to the source the user wrote. A
layered map may hold entries for nodes a later pass replaced; they are
never looked up.
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

    @classmethod
    def identity(cls, program: ast.Node) -> "SourceMap":
        """Every node of ``program`` mapped to itself."""
        return cls({node.node_id: node.node_id for node in program.walk()})

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

    def layered(self, step: "SourceMap") -> "SourceMap":
        """This map with ``step``'s entries layered over it (a new map).

        ``step`` is the map of a pass whose input this map covers: it
        holds the nodes the pass created, each mapped to an input node
        or synthesized. Those are mapped through this map, as
        :meth:`compose` maps them; every node the pass shared keeps its
        entry here.
        """
        created = step.compose(self)
        return SourceMap(
            {**self.to_original, **created.to_original},
            self.synthesized | created.synthesized,
        )

    def of_copy(self, ids: dict[int, int]) -> "SourceMap":
        """The map of a whole copy of a pass's output, this being the
        pass's map: ``ids`` maps each node of the copy to the output node
        it copies (as :func:`~repro.pascal.ast_nodes.clone` fills it). A
        copy of a node the pass created maps as the pass recorded; a copy
        of a node it shared, to that node. The same as ``SourceMap(ids)``
        composed with this map layered over the identity over the pass's
        input, without building that identity."""
        recorded, synthesized = self.to_original, self.synthesized
        combined = SourceMap()
        for new_id, mid_id in ids.items():
            if mid_id in synthesized:
                combined.synthesized.add(new_id)
            else:
                combined.to_original[new_id] = recorded.get(mid_id, mid_id)
        return combined

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
