"""SEC9 — §9's implementation-status claim:

"Small procedures usually grow less than a factor of two after
transformations."

Regenerates: per-procedure growth factors over a corpus of typical
procedures (global access, global gotos, loops) — the median must stay
below 2×; only goto-dense outliers exceed it.
Measures: full transformation-pipeline time over the corpus.
"""

import statistics

from repro.transform import transform_source

CORPUS = {
    "accumulator": """
        program a;
        var total: integer;
        procedure add(n: integer);
        begin total := total + n end;
        procedure double;
        begin total := total * 2 end;
        begin total := 0; add(3); double; writeln(total) end.
    """,
    "reader": """
        program b;
        var cursor: integer;
        procedure advance(steps: integer);
        begin cursor := cursor + steps end;
        function at_end(limit: integer): boolean;
        begin at_end := cursor >= limit end;
        begin cursor := 0; advance(5); writeln(at_end(4)) end.
    """,
    "looping": """
        program c;
        var acc: integer;
        procedure sum_to(n: integer);
        var i: integer;
        begin
          acc := 0;
          for i := 1 to n do acc := acc + i
        end;
        begin sum_to(5); writeln(acc) end.
    """,
    "exiting": """
        program d;
        label 9;
        var hits: integer;
        procedure probe(n: integer);
        begin
          hits := hits + 1;
          if n > 2 then goto 9
        end;
        begin hits := 0; probe(1); probe(3); probe(1); 9: writeln(hits) end.
    """,
    "nested": """
        program e;
        procedure outer;
        var x: integer;
          procedure inner;
          begin x := x + 1 end;
        begin x := 0; inner; inner; writeln(x) end;
        begin outer end.
    """,
}


def transform_corpus():
    factors: dict[str, float] = {}
    for name, source in CORPUS.items():
        transformed = transform_source(source)
        for routine, factor in transformed.routine_growth_factors().items():
            factors[f"{name}.{routine}"] = factor
    return factors


def test_sec9_growth(benchmark):
    factors = benchmark(transform_corpus)

    values = sorted(factors.values())
    median = statistics.median(values)
    under_two = sum(1 for factor in values if factor < 2.0)

    assert median < 2.0
    assert under_two / len(values) >= 0.6  # "usually"

    print("\n[SEC9] per-procedure growth factors (lines, post-transform):")
    for name, factor in sorted(factors.items()):
        marker = "" if factor < 2.0 else "   <-- above 2x"
        print(f"  {name:30s} {factor:4.2f}{marker}")
    print(
        f"[SEC9] median {median:.2f}, {under_two}/{len(values)} under 2.0 "
        "(paper: 'usually grow less than a factor of two')"
    )
    benchmark.extra_info["median_growth"] = median
    benchmark.extra_info["fraction_under_two"] = under_two / len(values)
