"""Regex-driven scanner for Mini-Pascal.

Supports both Pascal comment styles (``{ ... }`` and ``(* ... *)``),
case-insensitive keywords, integer literals, and single-quoted string
literals with ``''`` escaping. Program text is ASCII outside comments
and strings: any other character there is an ``unexpected character``.

One compiled master pattern, matched at the current position, skips
blanks and classifies what follows (newline, word, number, operator, or
the opening of a comment or string). A string is finished by its own
small pattern, a comment by a search for its closing delimiter; a
column is the distance from the start of the current line.
"""

from __future__ import annotations

import re

from repro import obs
from repro.pascal.errors import LexError, SourceLocation
from repro.pascal.tokens import KEYWORDS, Token, TokenType

_OPERATORS = {
    ":=": TokenType.ASSIGN,
    "<=": TokenType.LE,
    "<>": TokenType.NEQ,
    ">=": TokenType.GE,
    "..": TokenType.DOTDOT,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "=": TokenType.EQ,
    "<": TokenType.LT,
    ">": TokenType.GT,
    ":": TokenType.COLON,
    ".": TokenType.DOT,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ";": TokenType.SEMICOLON,
}

# Group numbers of the master pattern below, read back through ``lastindex``.
_NEWLINE, _WORD, _NUMBER, _OPENER, _OPERATOR = 1, 2, 3, 4, 5

#: blanks, then one of: newline | word | number | the opening of a
#: comment or string | operator | nothing (end of input or a bad
#: character). ``(*`` is tried before the ``(`` operator.
_MASTER = re.compile(
    r"[ \t\r]*(?:"
    r"(\n)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|([0-9]+)"
    r"|(\{|\(\*|')"
    r"|(:=|<=|<>|>=|\.\.|[-+*/=<>:.()\[\],;])"
    r")?"
)

#: the body of a string literal after its opening quote: ``''`` is a
#: quote, a newline ends the literal unterminated (the lookahead stops
#: a trailing ``''`` from being split to close the literal early)
_STRING_TAIL = re.compile(r"((?:[^'\n]|'')*)'(?!')")


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into a token list ending with EOF."""
    with obs.span("pascal.lex"):
        tokens = _scan(source)
        obs.add("pascal.tokens", len(tokens))
        return tokens


def _scan(source: str) -> list[Token]:
    # tokens and locations are built with tuple.__new__, skipping the
    # NamedTuple constructor's Python-level argument handling
    new = tuple.__new__
    match = _MASTER.match
    keywords = KEYWORDS.get
    operators = _OPERATORS
    ident = TokenType.IDENT
    number = TokenType.INT_LITERAL
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    pos = 0
    while True:
        found = match(source, pos)
        group = found.lastindex
        end = found.end()
        if group is None:
            location = new(SourceLocation, (line, end - line_start + 1))
            if end == len(source):
                append(new(Token, (TokenType.EOF, "", location)))
                return tokens
            raise LexError(f"unexpected character {source[end]!r}", location)
        if group == _NEWLINE:
            line += 1
            line_start = pos = end
            continue
        text = found[group]
        start = end - len(text)
        location = new(SourceLocation, (line, start - line_start + 1))
        if group == _WORD:
            append(new(Token, (keywords(text.lower(), ident), text, location)))
        elif group == _OPERATOR:
            append(new(Token, (operators[text], text, location)))
        elif group == _NUMBER:
            append(new(Token, (number, text, location)))
        elif text == "'":
            tail = _STRING_TAIL.match(source, end)
            if tail is None:
                raise LexError("unterminated string literal", location)
            body = tail.group(1)
            append(new(Token, (TokenType.STRING_LITERAL, body.replace("''", "'"), location)))
            end = tail.end()
        else:
            close = "}" if text == "{" else "*)"
            stop = source.find(close, end)
            if stop < 0:
                raise LexError(f"unterminated '{text}' comment", location)
            end = stop + len(close)
            newlines = source.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", start, end) + 1
        pos = end
