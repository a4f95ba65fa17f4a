"""What the dappl and pineappl front ends share.

Source positions and the error that names one, the lexer and its
``(kind, text, line, col)`` token tuples, a recursive-descent base class
that reads them by index with the rules both grammars spell the same way
(a flip's bias among them), the Boolean term language
(its AST, grammar, variables and compilation to a BDD), and the flip-chain
encoding of categoricals.  One term, ``Mux``, has no syntax: pineappl's
expansion makes its join points of it, and it compiles to one
``BddManager.ite``.  Each language adds its own statements or
effectful terms, keyword and symbol tables, and error class.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field


class Span:
    """A source position.

    Every AST node has one, so it is a slotted class, cheap to build.  No
    AST compares spans, and two spans compare by identity.
    """

    __slots__ = ("line", "col")

    def __init__(self, line: int = 0, col: int = 0):
        self.line = line
        self.col = col

    def __str__(self):
        return f"line {self.line}, column {self.col}"

    def __repr__(self):
        return f"Span(line={self.line}, col={self.col})"


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


@dataclass
class Mux(Term):
    """If ``guard`` then ``then`` else ``els``; pineappl's join points, with no syntax."""

    guard: Term = None
    then: Term = None
    els: Term = None


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
    if isinstance(t, Mux):
        return term_vars(t.guard) | term_vars(t.then) | term_vars(t.els)
    return set()


def compile_term(mgr, t: Term, read) -> int:
    """Compile a term to a BDD in ``mgr``; ``read(name)`` compiles a name.

    The left operand compiles before the right one, and a mux's guard,
    then and else in that order.
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
    if isinstance(t, Mux):
        guard = compile_term(mgr, t.guard, read)
        then = compile_term(mgr, t.then, read)
        return mgr.ite(guard, then, compile_term(mgr, t.els, read))
    raise TypeError(f"not a Boolean term: {t!r}")


class SourceSyntaxError(Exception):
    """A malformed program, reported with its line and column."""

    def __init__(self, message, line=0, col=0):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class PositionedError(Exception):
    """An error about a parsed node, naming its position when it has one."""

    def __init__(self, message, span=None):
        if span is not None and span.line:
            message = f"{message} ({span})"
        super().__init__(message)


@functools.lru_cache(maxsize=32)
def _token_regex(symbols: tuple, digits: str, numerals: str):
    """The lexer's one regex for a symbol table.

    Each match skips the blanks before one token, a newline or a comment;
    its numbered groups are tried in order: a newline, a comment, a number,
    a word, a symbol, and any other character.

    ``\\d`` is ``str.isdecimal`` and ``\\w`` is ``str.isalnum`` or ``_``, so
    ``digits`` adds the characters ``str.isdigit`` accepts beyond ``\\d``, and
    ``numerals`` the numeric non-letters that ``[^\\W\\d]`` would take as a
    name's first character.  Both are empty for ASCII sources.
    """
    digit = r"\d" + re.escape(digits)
    not_numeral = f"(?![{re.escape(numerals)}])" if numerals else ""
    return re.compile(
        rf"[ \t\r]*(?:(\n)|(//[^\n]*)"
        rf"|(\.?[{digit}][{digit}.]*)"
        rf"|({not_numeral}[^\W\d]\w*)"
        rf"|({'|'.join(map(re.escape, symbols))})"
        rf"|([^ \t\r]))"
    )


def tokenize(source: str, keywords, symbols, error) -> list:
    """Split ``source`` into ``(kind, text, line, col)`` tuples, the last of kind eof.

    A kind is num, kw, ident or sym.  A number starts with a digit
    (``str.isdigit``) or a dot and a digit and runs over digits and dots; a
    name starts with a letter (``str.isalpha``) or ``_`` and runs over
    ``str.isalnum`` characters and ``_``.  ``symbols`` are tried in order,
    so a longer symbol must precede its prefixes; ``//`` starts a line
    comment.  An unknown character raises ``error(message, line, col)``.
    """
    digits = numerals = ""
    if not source.isascii():
        wide = sorted({c for c in source if not c.isascii()})
        digits = "".join(c for c in wide if c.isdigit() and not c.isdecimal())
        numerals = "".join(c for c in wide if c.isnumeric() and not (c.isdigit() or c.isalpha()))
    tokens = []
    append = tokens.append
    # a column is an offset less the offset just before its line
    line, before_line, m = 1, -1, None
    for m in _token_regex(tuple(symbols), digits, numerals).finditer(source):
        group = m.lastindex
        if group == 4:
            text = m[4]
            append(("kw" if text in keywords else "ident", text, line, m.start(4) - before_line))
        elif group == 5:
            append(("sym", m[5], line, m.start(5) - before_line))
        elif group == 1:
            line += 1
            before_line = m.end() - 1
        elif group == 3:
            append(("num", m[3], line, m.start(3) - before_line))
        elif group == 6:
            raise error(f"unexpected character {m[6]!r}", line, m.start(6) - before_line)
    # the column does not move over a comment, which ends its line
    end = m.start(2) if m is not None and m.lastindex == 2 else len(source)
    append(("eof", "", line, end - before_line))
    return tokens


class TokenParser:
    """Recursive-descent base; a language sets ``KEYWORDS``, ``SYMBOLS``, ``Error``.

    ``tokens`` is :func:`tokenize`'s list and ``pos`` the index of the next
    token, which never passes the eof token.  The rules tell a keyword or a
    symbol by its text alone: no name or number spells one, and eof's text
    is empty.
    """

    KEYWORDS: frozenset
    SYMBOLS: tuple
    Error: type

    def __init__(self, source: str):
        self.tokens = tokenize(source, self.KEYWORDS, self.SYMBOLS, self.Error)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def expect(self, kind, text=None) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            self.error(f"expected {text or kind!r}, found {tok[1]!r}")
        if kind != "eof":
            self.pos += 1
        return tok

    def span(self) -> Span:
        tok = self.tokens[self.pos]
        return Span(tok[2], tok[3])

    def error(self, message, where=None):
        """Raise ``Error`` at ``where`` (a span), else at the next token."""
        if where is None:
            where = self.span()
        raise self.Error(message, where.line, where.col)

    # -- shared rules ---------------------------------------------------------

    def number(self) -> float:
        neg = self.tokens[self.pos][1] == "-"
        if neg:
            self.pos += 1
        tok = self.expect("num")
        try:
            value = float(tok[1])
        except ValueError:
            self.error(f"bad number {tok[1]!r}", Span(tok[2], tok[3]))
        if value == math.inf:  # too many digits for a finite double
            self.error("number out of range", Span(tok[2], tok[3]))
        return -value if neg else value

    def flip_bias(self, sp: Span) -> float:
        """``'flip' NUM`` as its bias, at a ``flip``; one outside [0, 1] is reported at ``sp``."""
        self.pos += 1
        theta = self.number()
        if not 0.0 <= theta <= 1.0:
            self.error(f"flip bias {theta} outside [0, 1]", sp)
        return theta

    def loop_count(self) -> int:
        tok = self.expect("num")
        if "." in tok[1]:
            self.error("loop bound must be an integer", Span(tok[2], tok[3]))
        return int(tok[1])

    def names(self) -> tuple:
        """``IDENT (',' IDENT)*``"""
        names = [self.expect("ident")[1]]
        while self.tokens[self.pos][1] == ",":
            self.pos += 1
            names.append(self.expect("ident")[1])
        return tuple(names)

    def disc_pairs(self, sp: Span) -> tuple:
        """``'disc' '[' IDENT ':' NUM (',' IDENT ':' NUM)* ']'`` as ``((name, p), ...)``.

        Duplicate outcome names are reported at ``sp``.
        """
        self.expect("kw", "disc")
        self.expect("sym", "[")
        pairs = []
        while True:
            name = self.expect("ident")[1]
            self.expect("sym", ":")
            pairs.append((name, self.number()))
            if self.tokens[self.pos][1] != ",":
                break
            self.pos += 1
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

        A language adds atoms by extending :meth:`term_atom`.  Both languages
        make the literals keywords.
        """
        left = self.term_and()
        while self.tokens[self.pos][1] == "||":
            sp = self.span()
            self.pos += 1
            left = Or(span=sp, left=left, right=self.term_and())
        return left

    def term_and(self) -> Term:
        left = self.term_unary()
        while self.tokens[self.pos][1] == "&&":
            sp = self.span()
            self.pos += 1
            left = And(span=sp, left=left, right=self.term_unary())
        return left

    def term_unary(self) -> Term:
        _, text, line, col = self.tokens[self.pos]
        sp = Span(line, col)
        if text == "!":
            self.pos += 1
            return Not(span=sp, operand=self.term_unary())
        return self.term_atom(sp)

    def term_atom(self, sp: Span) -> Term:
        kind, text, _, _ = self.tokens[self.pos]
        if kind == "ident":
            self.pos += 1
            return Var(span=sp, name=text)
        if text in _LITERALS:
            self.pos += 1
            return Lit(span=sp, value=_LITERALS[text])
        if text == "(":
            self.pos += 1
            inner = self.term()
            self.expect("sym", ")")
            return inner
        self.error(f"expected a Boolean term, found {text!r}")


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
