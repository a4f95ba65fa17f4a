"""What the dappl and pineappl front ends share.

Source positions, the lexer, a recursive-descent base class over its tokens
with the rules both grammars spell the same way, the Boolean term language
(its AST, grammar, variables and compilation to a BDD), and the flip-chain
encoding of categoricals.  Each language adds its own statements or
effectful terms, keyword and symbol tables, and error class.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    line: int = 0
    col: int = 0

    def __str__(self):
        return f"line {self.line}, column {self.col}"


NO_SPAN = Span()


# -- Boolean terms ---------------------------------------------------------------

@dataclass
class Term:
    span: Span = field(default=NO_SPAN, repr=False, compare=False)


@dataclass
class Var(Term):
    name: str = ""


@dataclass
class Lit(Term):
    value: bool = False


@dataclass
class And(Term):
    left: Term = None
    right: Term = None


@dataclass
class Or(Term):
    left: Term = None
    right: Term = None


@dataclass
class Not(Term):
    operand: Term = None


def term_vars(t: Term) -> set:
    """The names a term reads.

    A language's own atoms read none here: pineappl's ``x is o`` is renamed
    to a plain name before any caller asks.
    """
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, (And, Or)):
        return term_vars(t.left) | term_vars(t.right)
    if isinstance(t, Not):
        return term_vars(t.operand)
    return set()


def compile_term(mgr, t: Term, read) -> int:
    """Compile a term to a BDD in ``mgr``; ``read(name)`` compiles a name.

    The left operand compiles before the right one.
    """
    if isinstance(t, Var):
        return read(t.name)
    if isinstance(t, Lit):
        return mgr.mk_true() if t.value else mgr.mk_false()
    if isinstance(t, And):
        return mgr.apply("and", compile_term(mgr, t.left, read), compile_term(mgr, t.right, read))
    if isinstance(t, Or):
        return mgr.apply("or", compile_term(mgr, t.left, read), compile_term(mgr, t.right, read))
    if isinstance(t, Not):
        return mgr.negate(compile_term(mgr, t.operand, read))
    raise TypeError(f"not a Boolean term: {t!r}")


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


@functools.lru_cache(maxsize=32)
def _token_regex(symbols: tuple, digits: str, numerals: str):
    """The lexer's one regex for a symbol table.

    Each match skips the blanks before one token, a newline or a comment;
    its named groups are tried in order.

    ``\\d`` is ``str.isdecimal`` and ``\\w`` is ``str.isalnum`` or ``_``, so
    ``digits`` adds the characters ``str.isdigit`` accepts beyond ``\\d``, and
    ``numerals`` the numeric non-letters that ``[^\\W\\d]`` would take as a
    name's first character.  Both are empty for ASCII sources.
    """
    digit = r"\d" + re.escape(digits)
    not_numeral = f"(?![{re.escape(numerals)}])" if numerals else ""
    return re.compile(
        rf"[ \t\r]*(?:(?P<nl>\n)|(?P<comment>//[^\n]*)"
        rf"|(?P<num>\.?[{digit}][{digit}.]*)"
        rf"|(?P<word>{not_numeral}[^\W\d]\w*)"
        rf"|(?P<sym>{'|'.join(map(re.escape, symbols))})"
        rf"|(?P<bad>[^ \t\r]))"
    )


def tokenize(source: str, keywords, symbols, error) -> list:
    """Split ``source`` into num/kw/ident/sym tokens, ending with an eof token.

    A number starts with a digit (``str.isdigit``) or a dot and a digit and
    runs over digits and dots; a name starts with a letter (``str.isalpha``)
    or ``_`` and runs over ``str.isalnum`` characters and ``_``.
    ``symbols`` are tried in order, so a longer symbol must precede its
    prefixes; ``//`` starts a line comment.  An unknown character raises
    ``error(message, line, col)``.
    """
    digits = numerals = ""
    if not source.isascii():
        wide = sorted({c for c in source if not c.isascii()})
        digits = "".join(c for c in wide if c.isdigit() and not c.isdecimal())
        numerals = "".join(c for c in wide if c.isnumeric() and not (c.isdigit() or c.isalpha()))
    tokens = []
    line, line_start, m = 1, 0, None
    for m in _token_regex(tuple(symbols), digits, numerals).finditer(source):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind != "comment":
            text = m.group(kind)
            col = m.start(kind) - line_start + 1
            if kind == "word":
                kind = "kw" if text in keywords else "ident"
            elif kind == "bad":
                raise error(f"unexpected character {text!r}", line, col)
            tokens.append(Token(kind, text, line, col))
    # the column does not move over a comment, which ends its line
    end = m.start("comment") if m is not None and m.lastgroup == "comment" else len(source)
    tokens.append(Token("eof", "", line, end - line_start + 1))
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
        # pos never passes the eof token, so ahead == 0 needs no clamp
        if not ahead:
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind, text=None, ahead=0) -> bool:
        tok = self.peek(ahead) if ahead else self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind, text=None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
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

    def number(self) -> float:
        neg = False
        if self.at("sym", "-"):
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

    def disc_pairs(self, sp: Span) -> tuple:
        """``'disc' '[' IDENT ':' NUM (',' IDENT ':' NUM)* ']'`` as ``((name, p), ...)``.

        Duplicate outcome names are reported at ``sp``.
        """
        self.expect("kw", "disc")
        self.expect("sym", "[")
        pairs = []
        while True:
            name = self.expect("ident").text
            self.expect("sym", ":")
            pairs.append((name, self.number()))
            if not self.at("sym", ","):
                break
            self.next()
        self.expect("sym", "]")
        if len({name for name, _ in pairs}) != len(pairs):
            self.error("duplicate outcome names", sp)
        return tuple(pairs)

    # -- Boolean terms ----------------------------------------------------------

    def term(self) -> Term:
        """The Boolean term rule both grammars share::

            term  := and ('||' and)*
            and   := unary ('&&' unary)*
            unary := '!' unary | atom
            atom  := IDENT | 'tt' | 'ff' | 'true' | 'false' | '(' term ')'

        A language adds atoms by extending :meth:`term_atom`.  Only a symbol
        token can spell an operator or a parenthesis, and both languages make
        the literals keywords, so the rules test a token's text alone.
        """
        left = self.term_and()
        while self.tokens[self.pos].text == "||":
            sp = self.span()
            self.pos += 1
            left = Or(span=sp, left=left, right=self.term_and())
        return left

    def term_and(self) -> Term:
        left = self.term_unary()
        while self.tokens[self.pos].text == "&&":
            sp = self.span()
            self.pos += 1
            left = And(span=sp, left=left, right=self.term_unary())
        return left

    def term_unary(self) -> Term:
        tok = self.tokens[self.pos]
        sp = Span(tok.line, tok.col)
        if tok.text == "!":
            self.pos += 1
            return Not(span=sp, operand=self.term_unary())
        return self.term_atom(sp)

    def term_atom(self, sp: Span) -> Term:
        tok = self.tokens[self.pos]
        if tok.kind == "ident":
            self.pos += 1
            return Var(span=sp, name=tok.text)
        if tok.text in _LITERALS:
            self.pos += 1
            return Lit(span=sp, value=_LITERALS[tok.text])
        if tok.text == "(":
            self.pos += 1
            inner = self.term()
            self.expect("sym", ")")
            return inner
        self.error(f"expected a Boolean term, found {tok.text!r}")


_LITERALS = {"tt": True, "true": True, "ff": False, "false": False}


def chain_biases(probs) -> list:
    """Conditional flip biases that encode a categorical as a one-hot chain.

    Outcome ``i < n-1`` is taken when flips ``0..i-1`` fail and flip ``i``
    succeeds; the last outcome takes the rest.  ``probs`` that are negative
    or do not sum to 1 raise ``ValueError``.
    """
    total = sum(probs)
    if abs(total - 1.0) > 1e-9 or any(p < 0 for p in probs):
        raise ValueError(
            f"categorical probabilities must be nonnegative and sum to 1, got {list(probs)}"
        )
    biases = []
    remaining = 1.0
    for p in probs[:-1]:
        biases.append(0.0 if remaining <= 0 else min(1.0, p / remaining))
        remaining -= p
    return biases
