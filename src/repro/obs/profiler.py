"""Hot-spot profiling: self-time and steps per unit and per line.

Two cost models, one report:

* **self-time** needs runtime timestamps, so :class:`HotspotProfiler`
  hangs off the *activation* boundaries both backends record through
  :class:`~repro.tracing.tracer.TreeRecorder` — its call, main and
  loop open/close methods (a single ``prof is not None`` test per
  activation; the per-statement hot path is untouched);
* **steps** are free after the fact: every executed statement already
  left an :class:`~repro.tracing.dynamic_deps.Occurrence` carrying its
  line, and every tree node carries its ``occurrence_ids`` — so
  per-unit and per-line step counts are derived from the finished trace
  with zero runtime cost, identically on both backends.

:func:`hotspot_report` combines both into the ``hotspots/1`` schema
consumed by ``repro profile`` / ``--hotspots N`` and embedded in
``BENCH_perf.json`` (``bench_perf/5``).

The step model also feeds the weighted search strategies:
:func:`step_count_weights` turns a trace's per-unit step counts into a
weight function for ``divide-and-query`` / ``dq-optimal``
(docs/STRATEGIES.md), so the search bisects execution *effort* instead
of activation *count*.
"""

from __future__ import annotations

import time

HOTSPOTS_SCHEMA = "hotspots/1"


class HotspotProfiler:
    """Self-time accounting over unit activations.

    Maintains a stack of open units; at every boundary (enter, exit) the
    time since the last boundary is charged to the unit that was running
    — classic self-time attribution, costing two ``perf_counter`` calls
    per activation, never per statement.
    """

    __slots__ = ("self_s", "activations", "_stack", "_mark")

    def __init__(self):
        #: unit name -> exclusive wall time
        self.self_s: dict[str, float] = {}
        #: unit name -> number of activations
        self.activations: dict[str, int] = {}
        self._stack: list[str] = []
        self._mark: float = 0.0

    def _charge(self, now: float) -> None:
        if self._stack:
            unit = self._stack[-1]
            self.self_s[unit] = self.self_s.get(unit, 0.0) + (now - self._mark)
        self._mark = now

    def enter_unit(self, name: str) -> None:
        self._charge(time.perf_counter())
        self._stack.append(name)
        self.activations[name] = self.activations.get(name, 0) + 1
        self.self_s.setdefault(name, 0.0)

    def exit_unit(self) -> None:
        self._charge(time.perf_counter())
        if self._stack:
            self._stack.pop()

    def skip(self, seconds: float) -> None:
        """Leave the last ``seconds`` uncharged: one-time work inside a
        unit that is not the program's own (a first-call compile)."""
        self._mark += seconds

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())


def _step_counts(trace) -> tuple[dict[str, int], dict[str, dict[int, int]]]:
    """Per-unit and per-(unit, line) executed-statement counts, derived
    from the trace's occurrences (post hoc; backend-independent)."""
    occurrences = trace.dependence_graph.occurrences
    unit_steps: dict[str, int] = {}
    line_steps: dict[str, dict[int, int]] = {}
    for node in trace.tree.walk():
        unit = node.unit_name
        occ_ids = node.occurrence_ids
        if not occ_ids:
            unit_steps.setdefault(unit, 0)
            continue
        unit_steps[unit] = unit_steps.get(unit, 0) + len(occ_ids)
        lines = line_steps.setdefault(unit, {})
        for occ_id in occ_ids:
            line = occurrences[occ_id].location_line
            lines[line] = lines.get(line, 0) + 1
    return unit_steps, line_steps


def step_count_weights(trace):
    """A per-unit step-count weight function for the weighted search
    strategies (``repro.core.strategies``): each suspect activation is
    weighed by the statements its unit executed over the whole run, so
    ``OptimalDivideAndQueryStrategy(weights=step_count_weights(trace))``
    bisects execution effort rather than activation count. Weights are
    clamped to 1 so structural units keep search weight."""
    unit_steps, _ = _step_counts(trace)

    def weight(node) -> int:
        return max(1, unit_steps.get(node.unit_name, 0))

    return weight


def hotspot_report(
    trace, profiler: HotspotProfiler | None = None, top: int | None = None
) -> dict:
    """The ``hotspots/1`` document for one traced run.

    Units are ranked by self-time when a profiler observed the run, by
    step count otherwise; ``top`` truncates the ranking (per-line rows
    are always capped at the ten hottest lines per unit).
    """
    unit_steps, line_steps = _step_counts(trace)
    activations: dict[str, int] = {}
    for node in trace.tree.walk():
        activations[node.unit_name] = activations.get(node.unit_name, 0) + 1

    names = set(unit_steps) | (set(profiler.self_s) if profiler else set())
    units = []
    for name in names:
        lines = sorted(
            line_steps.get(name, {}).items(),
            key=lambda item: (-item[1], item[0]),
        )[:10]
        units.append(
            {
                "unit": name,
                "activations": activations.get(
                    name, profiler.activations.get(name, 0) if profiler else 0
                ),
                "steps": unit_steps.get(name, 0),
                "self_s": profiler.self_s.get(name) if profiler else None,
                "lines": [
                    {"line": line, "steps": steps} for line, steps in lines
                ],
            }
        )
    if profiler is not None:
        units.sort(key=lambda row: (-(row["self_s"] or 0.0), -row["steps"]))
    else:
        units.sort(key=lambda row: (-row["steps"], row["unit"]))
    if top is not None:
        units = units[:top]
    return {
        "schema": HOTSPOTS_SCHEMA,
        "backend": trace.backend,
        "total_steps": trace.execution.steps,
        "total_self_s": profiler.total_s if profiler is not None else None,
        "units": units,
    }


def render_hotspots(report: dict) -> str:
    """Text table of a ``hotspots/1`` report (the ``repro profile`` body)."""
    lines = [
        f"hot spots ({report['backend']} backend, "
        f"{report['total_steps']} steps):"
    ]
    header = f"  {'unit':<20} {'activations':>11} {'steps':>8}"
    timed = report.get("total_self_s") is not None
    if timed:
        header += f" {'self(s)':>9} {'self%':>6}"
    header += "  hottest lines"
    lines.append(header)
    total_self = report.get("total_self_s") or 0.0
    for row in report["units"]:
        text = f"  {row['unit']:<20} {row['activations']:>11} {row['steps']:>8}"
        if timed:
            self_s = row["self_s"] or 0.0
            share = (self_s / total_self * 100.0) if total_self else 0.0
            text += f" {self_s:>9.4f} {share:>5.1f}%"
        hottest = ", ".join(
            f"L{entry['line']}×{entry['steps']}" for entry in row["lines"][:3]
        )
        text += f"  {hottest}"
        lines.append(text)
    return "\n".join(lines)
