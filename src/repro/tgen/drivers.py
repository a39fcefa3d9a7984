"""Generation of executable test-case driver programs (paper §2).

"By extending the test specification with declarations and executable
statements the system can generate executable test cases from test
frames."

:func:`generate_driver` emits a *Mini-Pascal program* that exercises the
unit under test with every case's concrete values and prints one
``pass``/``fail`` verdict line per case; :func:`run_driver` executes the
driver and turns its output back into :class:`TestReport` rows — the
same executable-test-case round trip T-GEN performs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pascal import ast_nodes as ast
from repro.pascal.errors import PascalError
from repro.pascal.interpreter import run_source
from repro.pascal.pretty import PrettyPrinter, print_routine
from repro.pascal.semantics import AnalyzedProgram
from repro.pascal.symbols import ArrayTypeInfo, BOOLEAN, INTEGER
from repro.pascal.values import ArrayValue, UNDEFINED
from repro.tgen.cases import TestCase
from repro.tgen.reports import TestReport, TestReportDatabase, Verdict


class DriverError(Exception):
    """Raised when a driver cannot be generated for the given cases."""


@dataclass
class DriverProgram:
    """A generated executable test driver."""

    source: str
    unit: str
    cases: list[TestCase]


def generate_driver(
    analysis: AnalyzedProgram, unit: str, cases: list[TestCase]
) -> DriverProgram:
    """Emit a runnable Mini-Pascal driver for ``cases`` against ``unit``.

    The driver copies the host program's declarations (types, constants,
    and every routine) and replaces the main body with one block per
    case: argument setup, the unit call, and an expected-value check
    printing ``pass <n>`` / ``fail <n>``.
    """
    info = analysis.routine_named(unit)
    if info.is_main:
        raise DriverError("cannot generate a driver for the main program")
    for case in cases:
        if case.unit != unit:
            raise DriverError(
                f"case for {case.unit!r} given to a driver for {unit!r}"
            )
        if case.globals_in:
            raise DriverError(
                "driver generation does not support seeded globals"
            )

    printer = PrettyPrinter()
    lines: list[str] = [f"program drive_{unit};"]
    block = analysis.program.block
    if block.consts:
        lines.append("const")
        for const in block.consts:
            lines.append(f"  {const.name} = {printer.format_expr(const.value)};")
    if block.types:
        lines.append("type")
        for decl in block.types:
            lines.append(f"  {decl.name} = {printer.format_type(decl.type_expr)};")

    declarations: list[str] = []
    body: list[str] = []
    for index, case in enumerate(cases, start=1):
        declarations.extend(_case_declarations(info, index, printer))
        body.extend(_case_statements(info, case, index))

    if declarations:
        lines.append("var")
        lines.extend(f"  {declaration}" for declaration in declarations)
    for routine in block.routines:
        lines.append(print_routine(routine).rstrip())
    lines.append("begin")
    for statement in body:
        lines.append(f"  {statement}")
    if body and lines[-1].endswith(";"):
        lines[-1] = lines[-1][:-1]
    lines.append("end.")
    return DriverProgram(
        source="\n".join(lines) + "\n", unit=unit, cases=list(cases)
    )


def _case_declarations(info, index: int, printer: PrettyPrinter) -> list[str]:
    declarations = []
    for position, param in enumerate(info.params):
        decl = param.decl
        assert isinstance(decl, ast.Param)
        declarations.append(
            f"arg{index}_{position}: {printer.format_type(decl.type_expr)};"
        )
    if info.result_symbol is not None:
        result_type = "boolean" if info.result_symbol.type is BOOLEAN else "integer"
        declarations.append(f"res{index}: {result_type};")
    return declarations


def _literal(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    raise DriverError(f"cannot render {value!r} as a Pascal literal")


def _case_statements(info, case: TestCase, index: int) -> list[str]:
    statements: list[str] = []
    arg_names: list[str] = []
    for position, (param, value) in enumerate(zip(info.params, case.args)):
        name = f"arg{index}_{position}"
        arg_names.append(name)
        if value is UNDEFINED:
            continue
        if isinstance(value, ArrayValue):
            for element_index in range(value.low, value.high + 1):
                element = value.get(element_index)
                if element is UNDEFINED:
                    continue
                statements.append(
                    f"{name}[{element_index}] := {_literal(element)};"
                )
        else:
            statements.append(f"{name} := {_literal(value)};")

    call = f"{info.name}({', '.join(arg_names)})"
    if info.result_symbol is not None:
        statements.append(f"res{index} := {call};")
    else:
        statements.append(f"{call};")

    checks = _expected_checks(info, case, index)
    if checks:
        condition = " and ".join(checks)
        statements.append(
            f"if {condition} then writeln('pass {index}') "
            f"else writeln('fail {index}');"
        )
    else:
        statements.append(f"writeln('pass {index}');")
    return statements


def _expected_checks(info, case: TestCase, index: int) -> list[str]:
    if callable(case.expected):
        raise DriverError(
            "predicate expectations cannot be compiled into a driver; "
            "use a mapping of expected values"
        )
    checks: list[str] = []
    param_positions = {param.name: pos for pos, param in enumerate(info.params)}
    for key, expected in case.expected.items():
        if key == "result":
            checks.append(f"(res{index} = {_literal(expected)})")
        elif key in param_positions:
            position = param_positions[key]
            checks.append(f"(arg{index}_{position} = {_literal(expected)})")
        else:
            raise DriverError(f"expected key {key!r} is not an output of {info.name}")
    return checks


def run_driver(
    driver: DriverProgram, database: TestReportDatabase | None = None
) -> TestReportDatabase:
    """Execute a generated driver and collect its verdicts as reports."""
    db = database if database is not None else TestReportDatabase()
    try:
        result = run_source(driver.source)
        lines = result.io.lines
    except PascalError as error:
        for case in driver.cases:
            db.add(
                TestReport(
                    unit=driver.unit,
                    frame_key=case.frame.key,
                    verdict=Verdict.ERROR,
                    case_args=tuple(case.args),
                    detail=f"driver crashed: {error}",
                    script=case.script,
                )
            )
        return db

    verdicts: dict[int, str] = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("pass", "fail") and parts[1].isdigit():
            verdicts[int(parts[1])] = parts[0]
    for index, case in enumerate(driver.cases, start=1):
        verdict_text = verdicts.get(index)
        verdict = {
            "pass": Verdict.PASS,
            "fail": Verdict.FAIL,
            None: Verdict.ERROR,
        }[verdict_text]
        db.add(
            TestReport(
                unit=driver.unit,
                frame_key=case.frame.key,
                verdict=verdict,
                case_args=tuple(case.args),
                detail="" if verdict_text else "no verdict line in driver output",
                script=case.script,
            )
        )
    return db
