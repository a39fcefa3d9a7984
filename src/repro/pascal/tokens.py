"""Token definitions for the Mini-Pascal lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.pascal.errors import SourceLocation


class TokenType(enum.Enum):
    # Literals and identifiers
    IDENT = "identifier"
    INT_LITERAL = "integer literal"
    STRING_LITERAL = "string literal"

    # Keywords
    AND = "and"
    ARRAY = "array"
    BEGIN = "begin"
    CONST = "const"
    DIV = "div"
    DO = "do"
    DOWNTO = "downto"
    ELSE = "else"
    END = "end"
    FALSE = "false"
    FOR = "for"
    FUNCTION = "function"
    GOTO = "goto"
    IF = "if"
    IN = "in"
    LABEL = "label"
    MOD = "mod"
    NOT = "not"
    OF = "of"
    OR = "or"
    OUT = "out"
    PROCEDURE = "procedure"
    PROGRAM = "program"
    REPEAT = "repeat"
    THEN = "then"
    TO = "to"
    TRUE = "true"
    TYPE = "type"
    UNTIL = "until"
    VAR = "var"
    WHILE = "while"

    # Punctuation and operators
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    ASSIGN = ":="
    EQ = "="
    NEQ = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMICOLON = ";"
    COLON = ":"
    DOT = "."
    DOTDOT = ".."

    EOF = "end of input"


KEYWORDS: dict[str, TokenType] = {
    "and": TokenType.AND,
    "array": TokenType.ARRAY,
    "begin": TokenType.BEGIN,
    "const": TokenType.CONST,
    "div": TokenType.DIV,
    "do": TokenType.DO,
    "downto": TokenType.DOWNTO,
    "else": TokenType.ELSE,
    "end": TokenType.END,
    "false": TokenType.FALSE,
    "for": TokenType.FOR,
    "function": TokenType.FUNCTION,
    "goto": TokenType.GOTO,
    "if": TokenType.IF,
    "in": TokenType.IN,
    "label": TokenType.LABEL,
    "mod": TokenType.MOD,
    "not": TokenType.NOT,
    "of": TokenType.OF,
    "out": TokenType.OUT,
    "or": TokenType.OR,
    "procedure": TokenType.PROCEDURE,
    "program": TokenType.PROGRAM,
    "repeat": TokenType.REPEAT,
    "then": TokenType.THEN,
    "to": TokenType.TO,
    "true": TokenType.TRUE,
    "type": TokenType.TYPE,
    "until": TokenType.UNTIL,
    "var": TokenType.VAR,
    "while": TokenType.WHILE,
}


class Token(NamedTuple):
    """A single lexical token.

    ``text`` preserves the original spelling (Pascal identifiers are
    case-insensitive; ``normalized`` carries the lowercase form used for
    all name resolution). A tuple, so the lexer can build one cheaply.
    """

    type: TokenType
    text: str
    location: SourceLocation

    @property
    def normalized(self) -> str:
        return self.text.lower()

    def __str__(self) -> str:
        if self.type in (TokenType.IDENT, TokenType.INT_LITERAL, TokenType.STRING_LITERAL):
            return f"{self.type.value} '{self.text}'"
        return f"'{self.text}'"
