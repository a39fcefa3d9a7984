"""Pretty-printer tests, including reparse round trips on real programs."""

import pytest

from pathlib import Path

from repro.pascal import analyze_source
from repro.pascal import ast_nodes as ast
from repro.pascal.parser import parse_expression, parse_program
from repro.pascal.pretty import format_expr, print_program, print_statement
from repro.tgen.corpus import generate_program
from repro.workloads import (
    ARRSUM_SOURCE,
    FIGURE2_SOURCE,
    FIGURE4_SOURCE,
    SECTION3_SOURCE,
    paper_programs,
)
from repro.workloads.ledger import ledger_program


def ast_equal(a: ast.Node, b: ast.Node) -> bool:
    """Structural equality ignoring node ids and locations."""
    if type(a) is not type(b):
        return False
    from dataclasses import fields

    for f in fields(a):
        if f.name in ("location", "node_id"):
            continue
        left, right = getattr(a, f.name), getattr(b, f.name)
        if isinstance(left, ast.Node):
            if not isinstance(right, ast.Node) or not ast_equal(left, right):
                return False
        elif isinstance(left, list):
            if len(left) != len(right):
                return False
            for l_item, r_item in zip(left, right):
                if isinstance(l_item, ast.Node):
                    if not ast_equal(l_item, r_item):
                        return False
                elif l_item != r_item:
                    return False
        elif left != right:
            return False
    return True


def normalize(node: ast.Node) -> ast.Node:
    """Drop empty statements (they have no printed form)."""
    if isinstance(node, ast.Compound):
        node.statements = [
            normalize(child)
            for child in node.statements
            if not (isinstance(child, ast.EmptyStmt) and child.label is None)
        ]
    elif isinstance(node, ast.Repeat):
        node.body = [
            normalize(child)
            for child in node.body
            if not (isinstance(child, ast.EmptyStmt) and child.label is None)
        ]
    else:
        for child in node.children():
            normalize(child)
    return node


@pytest.mark.parametrize(
    "source",
    [FIGURE4_SOURCE, FIGURE2_SOURCE, SECTION3_SOURCE, ARRSUM_SOURCE],
    ids=["figure4", "figure2", "section3", "arrsum"],
)
def test_paper_program_round_trips(source):
    original = normalize(parse_program(source))
    printed = print_program(original)
    reparsed = normalize(parse_program(printed))
    assert ast_equal(original, reparsed), printed


#: the hosts mutants are made from: the paper's programs, the ledger,
#: the hand-made corpus files and corpus seeds 0-199
_MUTANT_HOSTS = [
    *(getattr(paper_programs, name) for name in dir(paper_programs) if name.endswith("_SOURCE")),
    ledger_program().source,
    ledger_program().fixed_source,
    *(path.read_text() for path in sorted((Path(__file__).parent / "corpus").glob("*.pas"))),
]


@pytest.mark.parametrize("first", range(0, 200, 50))
def test_printed_programs_are_fixed_points(first):
    """Mutants are edits of a host's printed text, analysed as patches of
    that text's analysis: printing its parse must give the text back,
    and the parse must be the host's tree up to ids and locations."""
    hosts = [generate_program(seed) for seed in range(first, first + 50)]
    if first == 0:
        hosts += _MUTANT_HOSTS
    for source in hosts:
        host = analyze_source(source).program
        text = print_program(host)
        reparsed = analyze_source(text).program
        assert print_program(reparsed) == text
        assert ast_equal(host, reparsed), text


class TestExpressions:
    @pytest.mark.parametrize(
        "text",
        [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "a div b mod c",
            "not p and q",
            "not (p and q)",
            "x < y",
            "(x < y) and (y < z)",
            "-x",
            "-(x + 1)",
            "a - -b",
            "f(1, 2) + a[i]",
            "[1, 2, 3]",
            "a[i + 1]",
            "x = y",
            "(a = b) = c",
        ],
    )
    def test_expression_round_trip(self, text):
        expr = parse_expression(text)
        printed = format_expr(expr)
        reparsed = parse_expression(printed)
        assert ast_equal(expr, reparsed), printed

    def test_string_escaping(self):
        expr = parse_expression("'it''s'")
        assert format_expr(expr) == "'it''s'"
        assert ast_equal(expr, parse_expression(format_expr(expr)))

    def test_needless_parens_dropped(self):
        assert format_expr(parse_expression("(((1)))")) == "1"
        assert format_expr(parse_expression("(a * b) + c")) == "a * b + c"

    def test_required_parens_kept(self):
        assert format_expr(parse_expression("a * (b + c)")) == "a * (b + c)"


class TestStatements:
    def test_if_with_empty_then_prints_reparseably(self):
        stmt = ast.If(
            condition=parse_expression("x < 1"),
            then_branch=ast.EmptyStmt(),
            else_branch=ast.Assign(
                target=ast.VarRef(name="y"), value=ast.IntLiteral(value=2)
            ),
        )
        text = print_statement(stmt)
        assert "then" in text and "else" in text

    def test_labelled_statement(self):
        program = parse_program("program p; label 9; begin 9: x := 1 end.")
        # need var decl for a legal program; simpler: print the statement only
        stmt = program.block.body.statements[0]
        assert print_statement(stmt).startswith("9: ")

    def test_for_statement_format(self):
        program = parse_program(
            "program p; var i: integer; begin for i := 1 to 3 do i := i end."
        )
        text = print_statement(program.block.body.statements[0])
        assert "for i := 1 to 3 do" in text

    def test_repeat_until_format(self):
        program = parse_program(
            "program p; var i: integer; begin repeat i := 1 until true end."
        )
        text = print_statement(program.block.body.statements[0])
        assert text.startswith("repeat")
        assert "until true" in text


class TestDeclarations:
    def test_param_groups_merged(self):
        program = parse_program(
            "program p; procedure q(a, b: integer; var c: integer); begin end; "
            "begin end."
        )
        text = print_program(program)
        assert "q(a, b: integer; var c: integer)" in text

    def test_in_out_modes_printed(self):
        program = parse_program(
            "program p; procedure q(in a: integer; out b: integer); begin end; "
            "begin end."
        )
        text = print_program(program)
        assert "in a: integer" in text
        assert "out b: integer" in text

    def test_array_type_printed(self):
        program = parse_program(
            "program p; var a: array[1..3] of integer; begin end."
        )
        assert "array[1..3] of integer" in print_program(program)

    def test_const_section_printed(self):
        program = parse_program("program p; const n = 10; begin end.")
        assert "n = 10;" in print_program(program)
