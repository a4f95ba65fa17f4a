"""What the dappl and pineappl front ends share.

Source positions, the lexer, a recursive-descent base class over its tokens
with the rules both grammars spell the same way, and the flip-chain encoding
of categoricals.  Each language keeps its own grammar, AST, keyword and
symbol tables, and error class.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    line: int = 0
    col: int = 0

    def __str__(self):
        return f"line {self.line}, column {self.col}"


NO_SPAN = Span()


class SourceSyntaxError(Exception):
    """A malformed program, reported with its line and column."""

    def __init__(self, message, line=0, col=0):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def tokenize(source: str, keywords, symbols, error) -> list:
    """Split ``source`` into num/kw/ident/sym tokens, ending with an eof token.

    ``symbols`` are tried in order, so a longer symbol must precede its
    prefixes; ``//`` starts a line comment.  An unknown character raises
    ``error(message, line, col)``.
    """
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            tokens.append(Token("num", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            tokens.append(Token("kw" if word in keywords else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for sym in symbols:
            if source.startswith(sym, i):
                tokens.append(Token("sym", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise error(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenParser:
    """Recursive-descent base; a language sets ``KEYWORDS``, ``SYMBOLS``, ``Error``."""

    KEYWORDS: frozenset
    SYMBOLS: tuple
    Error: type

    def __init__(self, source: str):
        self.tokens = tokenize(source, self.KEYWORDS, self.SYMBOLS, self.Error)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind, text=None, ahead=0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind, text=None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            self.error(f"expected {want!r}, found {tok.text!r}")
        return self.next()

    def span(self) -> Span:
        tok = self.peek()
        return Span(tok.line, tok.col)

    def error(self, message, where=None):
        """Raise ``Error`` at ``where`` (a token or span), else at the next token."""
        if where is None:
            where = self.peek()
        raise self.Error(message, where.line, where.col)

    # -- shared rules ---------------------------------------------------------

    def number(self, allow_negative=True) -> float:
        neg = False
        if allow_negative and self.at("sym", "-"):
            self.next()
            neg = True
        tok = self.expect("num")
        try:
            value = float(tok.text)
        except ValueError:
            self.error(f"bad number {tok.text!r}", tok)
        return -value if neg else value

    def loop_count(self) -> int:
        tok = self.expect("num")
        if "." in tok.text:
            self.error("loop bound must be an integer", tok)
        return int(tok.text)

    def names(self) -> tuple:
        """``IDENT (',' IDENT)*``"""
        names = [self.expect("ident").text]
        while self.at("sym", ","):
            self.next()
            names.append(self.expect("ident").text)
        return tuple(names)

    def disc_pairs(self, sp: Span, allow_negative=True) -> tuple:
        """``'disc' '[' IDENT ':' NUM (',' IDENT ':' NUM)* ']'`` as ``((name, p), ...)``.

        Duplicate outcome names are reported at ``sp``.
        """
        self.expect("kw", "disc")
        self.expect("sym", "[")
        pairs = []
        while True:
            name = self.expect("ident").text
            self.expect("sym", ":")
            pairs.append((name, self.number(allow_negative)))
            if not self.at("sym", ","):
                break
            self.next()
        self.expect("sym", "]")
        if len({name for name, _ in pairs}) != len(pairs):
            self.error("duplicate outcome names", sp)
        return tuple(pairs)


def chain_biases(probs) -> list:
    """Conditional flip biases that encode a categorical as a one-hot chain.

    Outcome ``i < n-1`` is taken when flips ``0..i-1`` fail and flip ``i``
    succeeds; the last outcome takes the rest.  ``probs`` must already be a
    distribution.
    """
    biases = []
    remaining = 1.0
    for p in probs[:-1]:
        biases.append(0.0 if remaining <= 0 else min(1.0, p / remaining))
        remaining -= p
    return biases
