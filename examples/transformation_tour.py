"""A tour of the transformation phase (paper §5.1 and §6).

Shows, for each construct that conflicts with algorithmic debugging, the
original program and the equivalent side-effect-free form the pipeline
produces: globals become in/out/var parameters, global gotos become exit
parameters, gotos out of loops become flag-guarded exits, loops become
traceable units, and trace actions are inserted.

Run:  python examples/transformation_tour.py
"""

from repro.pascal import print_program, run_source
from repro.pascal.interpreter import Interpreter, PascalIO
from repro.transform import transform_source

GLOBALS_EXAMPLE = """
program bank;
var balance: integer;
procedure deposit(amount: integer);
begin
  balance := balance + amount
end;
function current: integer;
begin
  current := balance
end;
begin
  balance := 100;
  deposit(50);
  writeln(current())
end.
"""

GOTO_EXAMPLE = """
program search;
label 9;
var found: integer;
procedure probe(n: integer);
begin
  if n * n > 20 then begin found := n; goto 9 end
end;
var i: integer;
begin
  found := 0;
  probe(2);
  probe(3);
  probe(5);
  probe(7);
  writeln(-1);
  9: writeln(found)
end.
"""

LOOP_GOTO_EXAMPLE = """
program scan;
label 9;
var i, hit: integer;
begin
  hit := 0;
  for i := 1 to 100 do begin
    if i * i = 49 then begin hit := i; goto 9 end
  end;
  9: writeln(hit)
end.
"""


def show(title: str, source: str) -> None:
    print("=" * 72)
    print(title)
    print("=" * 72)
    print("--- original ---")
    print(source.strip())
    transformed = transform_source(source)
    print("\n--- transformed (+ trace actions) ---")
    print(print_program(transformed.instrumented.program).strip())

    original_output = run_source(source).output
    new_output = Interpreter(transformed.analysis, io=PascalIO()).run().output
    assert original_output == new_output, "transformation must preserve behaviour"
    print(f"\nboth print: {original_output!r}")
    if transformed.added_params:
        print(f"globals converted: {transformed.added_params}")
    if transformed.exit_params:
        print(f"exit parameters:   {transformed.exit_params}")
    if transformed.loop_units:
        units = [unit.name for unit in transformed.loop_units.values()]
        print(f"loop units:        {units}")
    print(f"growth factor:     {transformed.growth_factor():.2f}\n")


def main() -> None:
    show("1. Global variables become in/out/var parameters", GLOBALS_EXAMPLE)
    show("2. Global gotos become exit parameters + local gotos", GOTO_EXAMPLE)
    show("3. Gotos out of loops become flag-guarded exits", LOOP_GOTO_EXAMPLE)


if __name__ == "__main__":
    main()
