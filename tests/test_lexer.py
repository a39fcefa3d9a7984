"""Unit tests for the Mini-Pascal scanner."""

import random

import pytest

from repro.pascal.errors import LexError, PascalError, SourceLocation
from repro.pascal.interpreter import run_source
from repro.pascal.lexer import tokenize
from repro.pascal.tokens import KEYWORDS, Token, TokenType


def kinds(source):
    return [token.type for token in tokenize(source)]


def texts(source):
    return [token.text for token in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].type is TokenType.INT_LITERAL
        assert tokens[0].text == "42"

    def test_identifier(self):
        tokens = tokenize("foo_bar9")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].text == "foo_bar9"

    def test_identifier_normalization_preserves_spelling(self):
        token = tokenize("CamelCase")[0]
        assert token.text == "CamelCase"
        assert token.normalized == "camelcase"

    def test_keywords_are_case_insensitive(self):
        assert kinds("BEGIN End wHiLe")[:3] == [
            TokenType.BEGIN,
            TokenType.END,
            TokenType.WHILE,
        ]

    def test_all_keywords_recognized(self):
        source = "and array begin const div do downto else end for function goto"
        expected = [
            TokenType.AND,
            TokenType.ARRAY,
            TokenType.BEGIN,
            TokenType.CONST,
            TokenType.DIV,
            TokenType.DO,
            TokenType.DOWNTO,
            TokenType.ELSE,
            TokenType.END,
            TokenType.FOR,
            TokenType.FUNCTION,
            TokenType.GOTO,
        ]
        assert kinds(source)[: len(expected)] == expected

    def test_boolean_literals_are_keywords(self):
        assert kinds("true false")[:2] == [TokenType.TRUE, TokenType.FALSE]


class TestOperators:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (":=", TokenType.ASSIGN),
            ("<=", TokenType.LE),
            (">=", TokenType.GE),
            ("<>", TokenType.NEQ),
            ("<", TokenType.LT),
            (">", TokenType.GT),
            ("=", TokenType.EQ),
            ("..", TokenType.DOTDOT),
            (".", TokenType.DOT),
            ("+", TokenType.PLUS),
            ("-", TokenType.MINUS),
            ("*", TokenType.STAR),
            ("/", TokenType.SLASH),
            (";", TokenType.SEMICOLON),
            (":", TokenType.COLON),
            (",", TokenType.COMMA),
            ("(", TokenType.LPAREN),
            (")", TokenType.RPAREN),
            ("[", TokenType.LBRACKET),
            ("]", TokenType.RBRACKET),
        ],
    )
    def test_single_operator(self, text, expected):
        assert kinds(text)[0] is expected

    def test_maximal_munch_for_compound_operators(self):
        assert kinds("a:=b<=c")[:5] == [
            TokenType.IDENT,
            TokenType.ASSIGN,
            TokenType.IDENT,
            TokenType.LE,
            TokenType.IDENT,
        ]

    def test_dotdot_inside_array_bounds(self):
        assert kinds("[1..10]")[:5] == [
            TokenType.LBRACKET,
            TokenType.INT_LITERAL,
            TokenType.DOTDOT,
            TokenType.INT_LITERAL,
            TokenType.RBRACKET,
        ]


class TestComments:
    def test_brace_comment_skipped(self):
        assert texts("a { this is a comment } b") == ["a", "b"]

    def test_paren_star_comment_skipped(self):
        assert texts("a (* comment *) b") == ["a", "b"]

    def test_paren_star_comment_with_stars_inside(self):
        assert texts("a (* ** x * *) b") == ["a", "b"]

    def test_multiline_comment(self):
        assert texts("a (* line1\nline2 *) b") == ["a", "b"]

    def test_unterminated_brace_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("{ never closed")

    def test_unterminated_paren_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("(* never closed")

    def test_lone_paren_is_not_comment(self):
        assert kinds("(a)")[:3] == [
            TokenType.LPAREN,
            TokenType.IDENT,
            TokenType.RPAREN,
        ]


class TestStrings:
    def test_simple_string(self):
        token = tokenize("'hello'")[0]
        assert token.type is TokenType.STRING_LITERAL
        assert token.text == "hello"

    def test_doubled_quote_escapes(self):
        token = tokenize("'it''s'")[0]
        assert token.text == "it's"

    def test_empty_string(self):
        assert tokenize("''")[0].text == ""

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'never closed")

    def test_newline_in_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'line\nbreak'")

    @pytest.mark.parametrize("source", ["'abc''", "'abc''''", "'''''x", "'a''\n'"])
    def test_trailing_doubled_quote_does_not_close(self, source):
        with pytest.raises(LexError, match="unterminated string literal"):
            tokenize(source)

    @pytest.mark.parametrize(
        "source, expected",
        [("'abc'''", ["abc'"]), ("''''", ["'"]), ("'a'''x", ["a'", "x"]), ("'' ''", ["", ""])],
    )
    def test_doubled_quote_before_close(self, source, expected):
        assert texts(source) == expected


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_location_after_comment(self):
        tokens = tokenize("{x\ny}\nz")
        assert tokens[0].location.line == 3

    def test_unexpected_character_raises_with_location(self):
        with pytest.raises(LexError) as info:
            tokenize("a\n  @")
        assert info.value.location.line == 2


class TestWholeProgram:
    def test_figure4_lexes_cleanly(self):
        from repro.workloads import FIGURE4_SOURCE

        tokens = tokenize(FIGURE4_SOURCE)
        assert tokens[-1].type is TokenType.EOF
        assert len(tokens) > 200


class TestNonAsciiProgramText:
    """Program text is ASCII outside comments and strings."""

    @pytest.mark.parametrize(
        "char",
        ["\u00b2", "\u0663", "\u00e9", "\u00a0"],
        ids=["superscript-two", "arabic-indic-three", "e-acute", "no-break-space"],
    )
    def test_rejected_with_location(self, char):
        with pytest.raises(LexError) as info:
            tokenize(f"x :=\n  {char}1")
        assert info.value.message == f"unexpected character {char!r}"
        assert info.value.location == SourceLocation(2, 3)

    def test_letter_after_ascii_word_is_rejected(self):
        with pytest.raises(LexError) as info:
            tokenize("caf\u00e9")
        assert info.value.location == SourceLocation(1, 4)

    def test_superscript_digit_is_a_pascal_error_at_run_time(self):
        source = "program p; var x: integer; begin x := \u00b2; writeln(x) end."
        with pytest.raises(PascalError) as info:
            run_source(source)
        assert isinstance(info.value, LexError)
        assert info.value.location == SourceLocation(1, 39)

    def test_allowed_in_comments_and_strings(self):
        tokens = tokenize("{ \u00e9 } (* \u00b2 *) '\u0663\u00a0'")
        assert [(t.type, t.text) for t in tokens] == [
            (TokenType.STRING_LITERAL, "\u0663\u00a0"),
            (TokenType.EOF, ""),
        ]


class TestValueTypes:
    def test_token_fields_and_str(self):
        token = tokenize("  Foo")[0]
        assert (token.type, token.text, token.location) == (
            TokenType.IDENT,
            "Foo",
            SourceLocation(1, 3),
        )
        assert str(token) == "identifier 'Foo'"
        assert str(tokenize(":=")[0]) == "':='"

    def test_location_repr_and_hash(self):
        location = SourceLocation(3, 7)
        assert repr(location) == "SourceLocation(line=3, column=7)"
        assert hash(location) == hash(SourceLocation(3, 7))
        assert {location: 1}[SourceLocation(3, 7)] == 1

    def test_tokens_are_immutable(self):
        token = tokenize("a")[0]
        with pytest.raises(AttributeError):
            token.text = "b"  # type: ignore[misc]


# ----------------------------------------------------------------------
# differential check against the character-by-character scanner that the
# regex lexer replaced, kept here verbatim as the reference


_SINGLE_CHAR_TOKENS = {
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "=": TokenType.EQ,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ";": TokenType.SEMICOLON,
}


class ReferenceLexer:
    """The former scanner, one character at a time via ``_peek``/``_advance``."""

    def __init__(self, source: str):
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> list[Token]:
        """Scan the whole input, returning tokens ending with EOF."""
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.type is TokenType.EOF:
                return tokens

    # ------------------------------------------------------------------
    # scanning machinery

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._column)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._source):
            return self._source[index]
        return ""

    def _advance(self) -> str:
        char = self._source[self._pos]
        self._pos += 1
        if char == "\n":
            self._line += 1
            self._column = 1
        else:
            self._column += 1
        return char

    def _skip_trivia(self) -> None:
        """Skip whitespace and both comment styles."""
        while self._pos < len(self._source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "{":
                self._skip_brace_comment()
            elif char == "(" and self._peek(1) == "*":
                self._skip_paren_comment()
            else:
                return

    def _skip_brace_comment(self) -> None:
        start = self._location()
        self._advance()  # consume '{'
        while self._pos < len(self._source):
            if self._advance() == "}":
                return
        raise LexError("unterminated '{' comment", start)

    def _skip_paren_comment(self) -> None:
        start = self._location()
        self._advance()  # consume '('
        self._advance()  # consume '*'
        while self._pos < len(self._source):
            if self._peek() == "*" and self._peek(1) == ")":
                self._advance()
                self._advance()
                return
            self._advance()
        raise LexError("unterminated '(*' comment", start)

    def _next_token(self) -> Token:
        self._skip_trivia()
        location = self._location()
        if self._pos >= len(self._source):
            return Token(TokenType.EOF, "", location)

        char = self._peek()
        if char.isalpha() or char == "_":
            return self._scan_word(location)
        if char.isdigit():
            return self._scan_number(location)
        if char == "'":
            return self._scan_string(location)
        return self._scan_operator(location)

    def _scan_word(self, location: SourceLocation) -> Token:
        chars: list[str] = []
        while self._peek().isalnum() or self._peek() == "_":
            chars.append(self._advance())
        text = "".join(chars)
        keyword = KEYWORDS.get(text.lower())
        if keyword is not None:
            return Token(keyword, text, location)
        return Token(TokenType.IDENT, text, location)

    def _scan_number(self, location: SourceLocation) -> Token:
        chars: list[str] = []
        while self._peek().isdigit():
            chars.append(self._advance())
        return Token(TokenType.INT_LITERAL, "".join(chars), location)

    def _scan_string(self, location: SourceLocation) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self._pos >= len(self._source) or self._peek() == "\n":
                raise LexError("unterminated string literal", location)
            char = self._advance()
            if char == "'":
                if self._peek() == "'":  # '' escapes a quote
                    chars.append(self._advance())
                else:
                    return Token(TokenType.STRING_LITERAL, "".join(chars), location)
            else:
                chars.append(char)

    def _scan_operator(self, location: SourceLocation) -> Token:
        char = self._advance()
        if char == ":":
            if self._peek() == "=":
                self._advance()
                return Token(TokenType.ASSIGN, ":=", location)
            return Token(TokenType.COLON, ":", location)
        if char == "<":
            if self._peek() == "=":
                self._advance()
                return Token(TokenType.LE, "<=", location)
            if self._peek() == ">":
                self._advance()
                return Token(TokenType.NEQ, "<>", location)
            return Token(TokenType.LT, "<", location)
        if char == ">":
            if self._peek() == "=":
                self._advance()
                return Token(TokenType.GE, ">=", location)
            return Token(TokenType.GT, ">", location)
        if char == ".":
            if self._peek() == ".":
                self._advance()
                return Token(TokenType.DOTDOT, "..", location)
            return Token(TokenType.DOT, ".", location)
        if char == "(":
            return Token(TokenType.LPAREN, "(", location)
        token_type = _SINGLE_CHAR_TOKENS.get(char)
        if token_type is not None:
            return Token(token_type, char, location)
        raise LexError(f"unexpected character {char!r}", location)


def _outcome(scan, source):
    """(type, text, line, column) per token, or the error's message and
    location."""
    try:
        tokens = scan(source)
    except LexError as error:
        return ("error", error.message, error.location.line, error.location.column)
    return [(t.type, t.text, t.location.line, t.location.column) for t in tokens]


def _reference_tokenize(source):
    return ReferenceLexer(source).tokenize()


def _assert_same(source):
    assert _outcome(tokenize, source) == _outcome(_reference_tokenize, source), source


#: what the fuzz splices in: comment and string boundaries, line ends,
#: halves of compound operators, and characters no token starts with
_FRAGMENTS = [
    "(*", "*)", "(**)", "(*)", "{", "}", "{}", "'", "''", "'''", "'a''b'",
    "\r", "\r\n", "\t", "\n", " ", "(", "*", ":", "=", ":=", "<", ">",
    "<>", ".", "..", "0", "9x", "_", "@", "#", "$", "!", "?", "~", "`",
    '"', "\\", "&", "|", "^", "%", "\x0c", "\x0b", "\x00",
]

#: openers left dangling at the end of the input
_OPENERS_AT_EOF = ["(*", "{", "'", "(", "'it''", "(* x *", "{ x"]


def _fuzz_cases(seed: int, hosts: list[str], count: int):
    """``count`` ASCII edits of windows cut from ``hosts``: a spliced
    fragment, a short deletion, a truncation, or an opener at EOF. A
    window may itself start or end inside a comment or string."""
    rng = random.Random(seed)
    for _ in range(count):
        host = rng.choice(hosts)
        at = rng.randrange(len(host) + 1)
        lo = max(0, at - rng.randrange(1, 120))
        hi = min(len(host), at + rng.randrange(1, 120))
        edit = rng.randrange(4)
        if edit == 0:
            yield host[lo:at] + rng.choice(_FRAGMENTS) + host[at:hi]
        elif edit == 1:
            yield host[lo:at] + host[min(hi, at + rng.randrange(1, 4)):hi]
        elif edit == 2:
            yield host[lo:at]
        else:
            yield host[lo:at] + rng.choice(_OPENERS_AT_EOF)


class TestDifferentialAgainstReference:
    def test_paper_programs(self):
        from repro.workloads import paper_programs

        sources = [
            getattr(paper_programs, name)
            for name in dir(paper_programs)
            if name.endswith("_SOURCE")
        ]
        assert len(sources) >= 6
        for source in sources:
            _assert_same(source)

    def test_corpus_seeds(self):
        from repro.tgen.corpus import generate_program

        for seed in range(200):
            _assert_same(generate_program(seed))

    def test_fuzzed_boundaries(self):
        from repro.tgen.corpus import generate_program
        from repro.workloads import FIGURE4_SOURCE, SECTION3_SOURCE

        hosts = [
            FIGURE4_SOURCE,
            SECTION3_SOURCE,
            generate_program(7),
            generate_program(8),
            "a (* x *) b { y\n } 'it''s' c := d <= e <> f .. g.\r\n\th (**) i",
        ]
        errors = 0
        for text in _fuzz_cases(20261017, hosts, 3000):
            _assert_same(text)
            errors += _outcome(tokenize, text)[0] == "error"
        assert 300 < errors < 2700  # both outcomes are well exercised
