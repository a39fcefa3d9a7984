"""Transformation phase (paper §5.1, §6).

Takes a program that may contain global side effects and global gotos
and produces an equivalent program without them, suitable for
procedure-level algorithmic debugging:

* :mod:`repro.transform.globals_to_params` — non-local variable accesses
  become ``in``/``out``/``var`` parameters threaded through call chains;
* :mod:`repro.transform.goto_taxonomy` — every goto-label pair is
  classified into an explicit :class:`GotoCase` (forward/backward; same
  block, out of loops/conditionals, into blocks, sibling blocks,
  global), the classify-then-reduce organization of bastors;
* :mod:`repro.transform.goto_elimination` — the reduction passes: same-
  block gotos become structured conditionals/loops, gotos jumping out
  of loops become flag-guarded exits, and global gotos become exit
  parameters plus structured local gotos;
* :mod:`repro.transform.loop_units` — loops are identified as debuggable
  units with their input/output variable sets;
* :mod:`repro.transform.instrument` — trace-generating actions are
  inserted (``gadt_enter_unit`` etc., the paper's ``create_exectree_rec``
  / ``save_incoming_values`` / ``save_outgoing_values``), on demand:
  ``TransformedProgram.instrumented`` builds it when first read;
* :mod:`repro.transform.mapping` — the original↔transformed construct
  mapping that keeps debugging transparent (paper §6.1);
* :mod:`repro.transform.pipeline` — runs everything in order and
  re-analyzes between passes.
"""

from repro.transform.goto_taxonomy import (
    GotoCase,
    GotoClassification,
    TaxonomyReport,
    classify_program,
)
from repro.transform.mapping import SourceMap
from repro.transform.pipeline import TransformedProgram, transform_program, transform_source

__all__ = [
    "GotoCase",
    "GotoClassification",
    "SourceMap",
    "TaxonomyReport",
    "TransformedProgram",
    "classify_program",
    "transform_program",
    "transform_source",
]
