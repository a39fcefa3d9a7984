"""Recursive-descent parser for Mini-Pascal.

The grammar is classic Pascal restricted to the constructs the paper's
method covers (no pointers, no records, no files), plus two extensions
used by the paper itself:

* array constructors ``[1, 2]`` in expression position (the paper's main
  program calls ``sqrtest([1,2], 2, isok)``), and
* ``in`` / ``out`` parameter modes, which the transformation phase emits
  when global variables become parameters.
"""

from __future__ import annotations

from repro import obs
from repro.pascal import ast_nodes as ast
from repro.pascal.errors import ParseError
from repro.pascal.lexer import tokenize
from repro.pascal.tokens import Token, TokenType

_RELATIONAL_OPS = {
    TokenType.EQ: "=",
    TokenType.NEQ: "<>",
    TokenType.LT: "<",
    TokenType.LE: "<=",
    TokenType.GT: ">",
    TokenType.GE: ">=",
}

_ADDITIVE_OPS = {
    TokenType.PLUS: "+",
    TokenType.MINUS: "-",
    TokenType.OR: "or",
}

_MULTIPLICATIVE_OPS = {
    TokenType.STAR: "*",
    TokenType.SLASH: "/",
    TokenType.DIV: "div",
    TokenType.MOD: "mod",
    TokenType.AND: "and",
}

# Tokens that may legally follow a statement; used to recover the classic
# Pascal "empty statement" (e.g. a semicolon directly before `end`).
_STATEMENT_TERMINATORS = {
    TokenType.END,
    TokenType.ELSE,
    TokenType.UNTIL,
    TokenType.SEMICOLON,
    TokenType.EOF,
}


class Parser:
    """Parses a token list that ends with EOF.

    ``_advance`` never moves past the EOF token, so ``self._pos`` always
    indexes the list and the current token needs no bounds check.
    """

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # token-stream helpers

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _peek_next(self) -> Token:
        """The token after the current one (EOF at the end)."""
        return self._tokens[min(self._pos + 1, len(self._tokens) - 1)]

    def _check(self, token_type: TokenType) -> bool:
        return self._tokens[self._pos].type is token_type

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _match(self, token_type: TokenType) -> Token | None:
        if self._tokens[self._pos].type is token_type:
            return self._advance()
        return None

    def _expect(self, token_type: TokenType, context: str = "") -> Token:
        if self._check(token_type):
            return self._advance()
        where = f" in {context}" if context else ""
        raise ParseError(
            f"expected '{token_type.value}'{where}, found {self._peek()}",
            self._peek().location,
        )

    def _expect_ident(self, context: str = "") -> Token:
        return self._expect(TokenType.IDENT, context)

    # ------------------------------------------------------------------
    # program structure

    def parse_program(self) -> ast.Program:
        start = self._peek().location
        self._expect(TokenType.PROGRAM, "program header")
        name = self._expect_ident("program header").normalized
        # Optional (input, output) file list, ignored.
        if self._match(TokenType.LPAREN):
            while not self._check(TokenType.RPAREN):
                self._advance()
            self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMICOLON, "program header")
        block = self._parse_block()
        self._expect(TokenType.DOT, "end of program")
        return ast.Program(name=name, block=block, location=start)

    def _parse_block(self) -> ast.Block:
        start = self._peek().location
        block = ast.Block(location=start)
        while True:
            if self._check(TokenType.LABEL):
                block.labels.extend(self._parse_label_section())
            elif self._check(TokenType.CONST):
                block.consts.extend(self._parse_const_section())
            elif self._check(TokenType.TYPE):
                block.types.extend(self._parse_type_section())
            elif self._check(TokenType.VAR):
                block.variables.extend(self._parse_var_section())
            elif self._check(TokenType.PROCEDURE) or self._check(TokenType.FUNCTION):
                block.routines.append(self._parse_routine())
            else:
                break
        block.body = self._parse_compound()
        return block

    def _parse_label_section(self) -> list[ast.LabelDecl]:
        self._expect(TokenType.LABEL)
        labels = []
        while True:
            token = self._expect(TokenType.INT_LITERAL, "label declaration")
            labels.append(ast.LabelDecl(label=token.text, location=token.location))
            if not self._match(TokenType.COMMA):
                break
        self._expect(TokenType.SEMICOLON, "label declaration")
        return labels

    def _parse_const_section(self) -> list[ast.ConstDecl]:
        self._expect(TokenType.CONST)
        consts = []
        while self._check(TokenType.IDENT):
            name_token = self._advance()
            self._expect(TokenType.EQ, "constant declaration")
            value = self._parse_expression()
            self._expect(TokenType.SEMICOLON, "constant declaration")
            consts.append(
                ast.ConstDecl(
                    name=name_token.normalized, value=value, location=name_token.location
                )
            )
        return consts

    def _parse_type_section(self) -> list[ast.TypeDecl]:
        self._expect(TokenType.TYPE)
        types = []
        while self._check(TokenType.IDENT):
            name_token = self._advance()
            self._expect(TokenType.EQ, "type declaration")
            type_expr = self._parse_type_expr()
            self._expect(TokenType.SEMICOLON, "type declaration")
            types.append(
                ast.TypeDecl(
                    name=name_token.normalized,
                    type_expr=type_expr,
                    location=name_token.location,
                )
            )
        return types

    def _parse_var_section(self) -> list[ast.VarDecl]:
        self._expect(TokenType.VAR)
        decls: list[ast.VarDecl] = []
        while self._check(TokenType.IDENT):
            names = [self._advance()]
            while self._match(TokenType.COMMA):
                names.append(self._expect_ident("variable declaration"))
            self._expect(TokenType.COLON, "variable declaration")
            type_expr = self._parse_type_expr()
            self._expect(TokenType.SEMICOLON, "variable declaration")
            for name_token in names:
                decls.append(
                    ast.VarDecl(
                        name=name_token.normalized,
                        type_expr=ast.clone(type_expr),  # type: ignore[arg-type]
                        location=name_token.location,
                    )
                )
        return decls

    def _parse_type_expr(self) -> ast.TypeExpr:
        start = self._peek().location
        if self._match(TokenType.ARRAY):
            self._expect(TokenType.LBRACKET, "array type")
            low = self._parse_expression()
            self._expect(TokenType.DOTDOT, "array type")
            high = self._parse_expression()
            self._expect(TokenType.RBRACKET, "array type")
            self._expect(TokenType.OF, "array type")
            element = self._parse_type_expr()
            return ast.ArrayType(low=low, high=high, element=element, location=start)
        name_token = self._expect_ident("type expression")
        return ast.NamedType(name=name_token.normalized, location=start)

    def _parse_routine(self) -> ast.RoutineDecl:
        start = self._peek().location
        is_function = self._advance().type is TokenType.FUNCTION
        name = self._expect_ident("routine header").normalized
        params: list[ast.Param] = []
        if self._match(TokenType.LPAREN):
            if not self._check(TokenType.RPAREN):
                params.extend(self._parse_param_group())
                while self._match(TokenType.SEMICOLON):
                    params.extend(self._parse_param_group())
            self._expect(TokenType.RPAREN, "parameter list")
        result_type: ast.TypeExpr | None = None
        if is_function:
            self._expect(TokenType.COLON, "function header")
            result_type = self._parse_type_expr()
        self._expect(TokenType.SEMICOLON, "routine header")
        block = self._parse_block()
        self._expect(TokenType.SEMICOLON, "routine declaration")
        return ast.RoutineDecl(
            name=name, params=params, result_type=result_type, block=block, location=start
        )

    def _parse_param_group(self) -> list[ast.Param]:
        mode = ast.ParamMode.VALUE
        if self._match(TokenType.VAR):
            mode = ast.ParamMode.VAR
        elif self._match(TokenType.IN):
            mode = ast.ParamMode.IN_
        elif self._match(TokenType.OUT):
            mode = ast.ParamMode.OUT
        names = [self._expect_ident("parameter")]
        while self._match(TokenType.COMMA):
            names.append(self._expect_ident("parameter"))
        self._expect(TokenType.COLON, "parameter group")
        type_expr = self._parse_type_expr()
        return [
            ast.Param(
                name=token.normalized,
                type_expr=ast.clone(type_expr),  # type: ignore[arg-type]
                mode=mode,
                location=token.location,
            )
            for token in names
        ]

    # ------------------------------------------------------------------
    # statements

    def _parse_compound(self) -> ast.Compound:
        start = self._expect(TokenType.BEGIN, "compound statement").location
        statements: list[ast.Stmt] = []
        if not self._check(TokenType.END):
            statements.append(self._parse_statement())
            while self._match(TokenType.SEMICOLON):
                if self._check(TokenType.END):
                    break
                statements.append(self._parse_statement())
        self._expect(TokenType.END, "compound statement")
        return ast.Compound(statements=statements, location=start)

    def _parse_statement(self) -> ast.Stmt:
        label: str | None = None
        if self._check(TokenType.INT_LITERAL) and self._peek_next().type is TokenType.COLON:
            label = self._advance().text
            self._advance()  # colon
        stmt = self._parse_unlabeled_statement()
        stmt.label = label
        return stmt

    def _parse_unlabeled_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.type is TokenType.BEGIN:
            return self._parse_compound()
        if token.type is TokenType.IF:
            return self._parse_if()
        if token.type is TokenType.WHILE:
            return self._parse_while()
        if token.type is TokenType.REPEAT:
            return self._parse_repeat()
        if token.type is TokenType.FOR:
            return self._parse_for()
        if token.type is TokenType.GOTO:
            return self._parse_goto()
        if token.type is TokenType.IDENT:
            return self._parse_assignment_or_call()
        if token.type in _STATEMENT_TERMINATORS:
            return ast.EmptyStmt(location=token.location)
        raise ParseError(f"expected a statement, found {token}", token.location)

    def _parse_if(self) -> ast.If:
        start = self._expect(TokenType.IF).location
        condition = self._parse_expression()
        self._expect(TokenType.THEN, "if statement")
        then_branch = self._parse_statement()
        else_branch: ast.Stmt | None = None
        if self._match(TokenType.ELSE):
            else_branch = self._parse_statement()
        return ast.If(
            condition=condition,
            then_branch=then_branch,
            else_branch=else_branch,
            location=start,
        )

    def _parse_while(self) -> ast.While:
        start = self._expect(TokenType.WHILE).location
        condition = self._parse_expression()
        self._expect(TokenType.DO, "while statement")
        body = self._parse_statement()
        return ast.While(condition=condition, body=body, location=start)

    def _parse_repeat(self) -> ast.Repeat:
        start = self._expect(TokenType.REPEAT).location
        body = [self._parse_statement()]
        while self._match(TokenType.SEMICOLON):
            if self._check(TokenType.UNTIL):
                break
            body.append(self._parse_statement())
        self._expect(TokenType.UNTIL, "repeat statement")
        condition = self._parse_expression()
        return ast.Repeat(body=body, condition=condition, location=start)

    def _parse_for(self) -> ast.For:
        start = self._expect(TokenType.FOR).location
        variable = self._expect_ident("for statement").normalized
        self._expect(TokenType.ASSIGN, "for statement")
        first = self._parse_expression()
        if self._match(TokenType.DOWNTO):
            downto = True
        else:
            self._expect(TokenType.TO, "for statement")
            downto = False
        stop = self._parse_expression()
        self._expect(TokenType.DO, "for statement")
        body = self._parse_statement()
        return ast.For(
            variable=variable,
            start=first,
            stop=stop,
            downto=downto,
            body=body,
            location=start,
        )

    def _parse_goto(self) -> ast.Goto:
        start = self._expect(TokenType.GOTO).location
        target = self._expect(TokenType.INT_LITERAL, "goto statement").text
        return ast.Goto(target=target, location=start)

    def _parse_assignment_or_call(self) -> ast.Stmt:
        start = self._peek().location
        name_token = self._advance()
        # Procedure call with or without arguments?
        if self._check(TokenType.LPAREN):
            args = self._parse_argument_list()
            return ast.ProcCall(name=name_token.normalized, args=args, location=start)
        # Assignment target: possibly indexed.
        target: ast.Expr = ast.VarRef(name=name_token.normalized, location=name_token.location)
        while self._check(TokenType.LBRACKET):
            self._advance()
            index = self._parse_expression()
            self._expect(TokenType.RBRACKET, "array index")
            target = ast.IndexedRef(base=target, index=index, location=start)
        if self._match(TokenType.ASSIGN):
            value = self._parse_expression()
            return ast.Assign(target=target, value=value, location=start)
        if isinstance(target, ast.VarRef):
            # Parameterless procedure call.
            return ast.ProcCall(name=target.name, args=[], location=start)
        raise ParseError("expected ':=' after indexed target", self._peek().location)

    def _parse_argument_list(self) -> list[ast.Expr]:
        self._expect(TokenType.LPAREN, "argument list")
        args: list[ast.Expr] = []
        if not self._check(TokenType.RPAREN):
            args.append(self._parse_expression())
            while self._match(TokenType.COMMA):
                args.append(self._parse_expression())
        self._expect(TokenType.RPAREN, "argument list")
        return args

    # ------------------------------------------------------------------
    # expressions

    def _parse_expression(self) -> ast.Expr:
        left = self._parse_simple_expression()
        op = _RELATIONAL_OPS.get(self._peek().type)
        if op is not None:
            op_token = self._advance()
            right = self._parse_simple_expression()
            return ast.BinaryOp(op=op, left=left, right=right, location=op_token.location)
        return left

    def _parse_simple_expression(self) -> ast.Expr:
        start = self._peek().location
        if self._check(TokenType.MINUS) or self._check(TokenType.PLUS):
            sign = self._advance()
            operand = self._parse_term()
            left: ast.Expr = (
                operand
                if sign.type is TokenType.PLUS
                else ast.UnaryOp(op="-", operand=operand, location=start)
            )
        else:
            left = self._parse_term()
        while True:
            op = _ADDITIVE_OPS.get(self._peek().type)
            if op is None:
                return left
            op_token = self._advance()
            right = self._parse_term()
            left = ast.BinaryOp(op=op, left=left, right=right, location=op_token.location)

    def _parse_term(self) -> ast.Expr:
        left = self._parse_factor()
        while True:
            op = _MULTIPLICATIVE_OPS.get(self._peek().type)
            if op is None:
                return left
            op_token = self._advance()
            right = self._parse_factor()
            left = ast.BinaryOp(op=op, left=left, right=right, location=op_token.location)

    def _parse_factor(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.INT_LITERAL:
            self._advance()
            return ast.IntLiteral(value=int(token.text), location=token.location)
        if token.type is TokenType.TRUE:
            self._advance()
            return ast.BoolLiteral(value=True, location=token.location)
        if token.type is TokenType.FALSE:
            self._advance()
            return ast.BoolLiteral(value=False, location=token.location)
        if token.type is TokenType.STRING_LITERAL:
            self._advance()
            return ast.StringLiteral(value=token.text, location=token.location)
        if token.type is TokenType.NOT:
            self._advance()
            operand = self._parse_factor()
            return ast.UnaryOp(op="not", operand=operand, location=token.location)
        if token.type is TokenType.MINUS:
            # Extension over strict Pascal: a signed factor (e.g. `a - -b`),
            # which keeps pretty-printed trees reparseable.
            self._advance()
            operand = self._parse_factor()
            return ast.UnaryOp(op="-", operand=operand, location=token.location)
        if token.type is TokenType.PLUS:
            self._advance()
            return self._parse_factor()
        if token.type is TokenType.LPAREN:
            self._advance()
            expr = self._parse_expression()
            self._expect(TokenType.RPAREN, "parenthesized expression")
            return expr
        if token.type is TokenType.LBRACKET:
            return self._parse_array_literal()
        if token.type is TokenType.IDENT:
            return self._parse_designator()
        raise ParseError(f"expected an expression, found {token}", token.location)

    def _parse_array_literal(self) -> ast.ArrayLiteral:
        start = self._expect(TokenType.LBRACKET).location
        elements: list[ast.Expr] = []
        if not self._check(TokenType.RBRACKET):
            elements.append(self._parse_expression())
            while self._match(TokenType.COMMA):
                elements.append(self._parse_expression())
        self._expect(TokenType.RBRACKET, "array literal")
        return ast.ArrayLiteral(elements=elements, location=start)

    def _parse_designator(self) -> ast.Expr:
        name_token = self._advance()
        if self._check(TokenType.LPAREN):
            args = self._parse_argument_list()
            return ast.FuncCall(name=name_token.normalized, args=args, location=name_token.location)
        expr: ast.Expr = ast.VarRef(name=name_token.normalized, location=name_token.location)
        while self._check(TokenType.LBRACKET):
            self._advance()
            index = self._parse_expression()
            self._expect(TokenType.RBRACKET, "array index")
            expr = ast.IndexedRef(base=expr, index=index, location=name_token.location)
        return expr


def parse_program(source: str) -> ast.Program:
    """Parse Mini-Pascal source text into a :class:`~repro.pascal.ast_nodes.Program`."""
    with obs.span("pascal.parse"):
        return Parser(tokenize(source)).parse_program()


def parse_expression(source: str) -> ast.Expr:
    """Parse a standalone expression (used by the assertion language)."""
    parser = Parser(tokenize(source))
    expr = parser._parse_expression()
    token = parser._peek()
    if token.type is not TokenType.EOF:
        raise ParseError(f"unexpected trailing input: {token}", token.location)
    return expr
