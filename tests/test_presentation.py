"""Unit tests for the original view both engines record (paper §6.1)."""

from repro.core import GadtSystem
from repro.tracing.execution_tree import NodeKind


def build(source: str) -> GadtSystem:
    return GadtSystem.from_source(source)


LOOP_WITH_ESCAPE = """
program t;
label 9;
var i, acc: integer;
begin
  acc := 0;
  i := 0;
  while i < 10 do begin
    i := i + 1;
    acc := acc + i;
    if acc > 7 then goto 9
  end;
  9: writeln(acc)
end.
"""


class TestLoopPresentation:
    def test_leave_flags_hidden_from_loop_units(self):
        system = build(LOOP_WITH_ESCAPE)
        loop = next(
            node
            for node in system.trace.tree.walk()
            if node.kind is NodeKind.LOOP
        )
        names = {binding.name for binding in loop.inputs + loop.outputs}
        assert not any(name.startswith("gadt_leave") for name in names)
        assert "acc" in names

    def test_iterations_also_cleaned(self):
        system = build(LOOP_WITH_ESCAPE)
        iteration = next(
            node
            for node in system.trace.tree.walk()
            if node.kind is NodeKind.ITERATION
        )
        names = {binding.name for binding in iteration.inputs + iteration.outputs}
        assert not any(name.startswith("gadt_") for name in names)


class TestGotoDecoding:
    SOURCE = """
    program t;
    label 5, 9;
    var n: integer;
    procedure multi(k: integer);
    begin
      if k = 1 then goto 5;
      if k = 2 then goto 9;
      n := n + k
    end;
    begin
      n := 0;
      multi(3);
      multi(2);
      multi(1);
      5: writeln(5);
      9: writeln(n)
    end.
    """

    def test_each_exit_decodes_to_its_label(self):
        system = build(self.SOURCE)
        calls = [
            node
            for node in system.trace.tree.walk()
            if node.unit_name == "multi"
        ]
        assert [node.via_goto for node in calls] == [None, "9"]
        # the k=1 call never happens: the k=2 call jumped to 9 already

    def test_normal_call_shows_outputs_only(self):
        system = build(self.SOURCE)
        first = system.trace.tree.find("multi")
        names = [binding.name for binding in first.outputs]
        assert names == ["n"]
