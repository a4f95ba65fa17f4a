"""Recursive-descent parser for the imperative staged-query language.

Grammar sketch (``//`` comments; semicolons after simple statements are
accepted and optional after braces)::

    program := stmt* query+
    stmt    := IDENT '=' 'flip' NUM ';'?
             | IDENT '=' 'disc' '[' IDENT ':' NUM , ... ']' ';'?
             | IDENT '=' expr ';'?
             | lhs '=' 'mmap' '(' IDENT , ... ')' ('with' '{' expr '}')? ';'?
             | 'if' expr '{' stmt* '}' ('else' 'if' ... | 'else' '{' stmt* '}')
             | 'loop' INT '{' stmt* '}'
    lhs     := IDENT | '(' IDENT , ... ')'
    query   := 'pr' '(' expr ')' ('with' '{' expr '}')? ';'?
             | 'mmap' '(' IDENT , ... ')' ('with' '{' expr '}')? ';'?
    expr    := term               -- TokenParser.term, shared with dappl
    atom    += IDENT 'is' IDENT   -- the one term atom dappl lacks
"""

from __future__ import annotations

from ..frontend import SourceSyntaxError, TokenParser
from . import ast as A


class PineapplSyntaxError(SourceSyntaxError):
    pass


class Parser(TokenParser):
    KEYWORDS = frozenset({
        "if", "else", "flip", "mmap", "with", "pr", "loop", "disc", "is",
        "tt", "ff", "true", "false",
    })
    SYMBOLS = ("&&", "||", "=", ";", "(", ")", "{", "}", "[", "]", ":", ",", "!", "-")
    Error = PineapplSyntaxError

    def skip_semis(self):
        while self.tokens[self.pos][1] == ";":
            self.pos += 1

    # -- program ------------------------------------------------------------

    def parse_program(self) -> A.Program:
        statements = []
        queries = []
        self.skip_semis()
        while self.tokens[self.pos][0] != "eof":
            if self.tokens[self.pos][1] in ("pr", "mmap"):
                # a bare mmap(...) is a terminal query; an mmap *statement*
                # always starts with its binding target
                queries.append(self.parse_query())
            elif queries:
                self.error("statements cannot follow a query")
            else:
                statements.append(self.parse_stmt())
            self.skip_semis()
        if not queries:
            self.error("a program needs at least one query")
        return A.Program(statements=statements, queries=queries)

    # -- statements -----------------------------------------------------------

    def parse_stmt(self) -> A.Stmt:
        text = self.tokens[self.pos][1]
        if text == "if":
            return self.parse_if()
        sp = self.span()
        if text == "loop":
            self.pos += 1
            return A.SLoop(span=sp, count=self.loop_count(), body=self.parse_block())
        if text == "(":
            self.pos += 1
            outs = self.names()
            self.expect("sym", ")")
            self.expect("sym", "=")
            return self.parse_mmap_rhs(sp, outs)
        name = self.expect("ident")[1]
        self.expect("sym", "=")
        text = self.tokens[self.pos][1]
        if text == "flip":
            return A.SFlip(span=sp, name=name, theta=self.flip_bias(sp))
        if text == "disc":
            return A.SDisc(span=sp, name=name, pairs=self.disc_pairs(sp))
        if text == "mmap":
            return self.parse_mmap_rhs(sp, (name,))
        return A.SAssign(span=sp, name=name, value=self.term())

    def parse_mmap_rhs(self, sp, outs) -> A.SMmap:
        queried, evidence = self.parse_mmap_call()
        if len(outs) != len(queried):
            self.error(f"mmap binds {len(outs)} names to {len(queried)} variables", sp)
        return A.SMmap(span=sp, outputs=outs, queried=queried, evidence=evidence)

    def parse_mmap_call(self):
        """``'mmap' '(' IDENT, ... ')' ('with' '{' expr '}')?`` as ``(queried, evidence)``."""
        self.expect("kw", "mmap")
        self.expect("sym", "(")
        queried = self.names()
        self.expect("sym", ")")
        return queried, self.parse_with()

    def parse_with(self):
        if self.tokens[self.pos][1] != "with":
            return None
        self.pos += 1
        self.expect("sym", "{")
        expr = self.term()
        self.expect("sym", "}")
        return expr

    def parse_if(self) -> A.SIf:
        sp = self.span()
        self.expect("kw", "if")
        guard = self.term()
        then = self.parse_block()
        els = []
        if self.tokens[self.pos][1] == "else":
            self.pos += 1
            if self.tokens[self.pos][1] == "if":
                els = [self.parse_if()]
            else:
                els = self.parse_block()
        return A.SIf(span=sp, guard=guard, then=then, els=els)

    def parse_block(self) -> list:
        self.expect("sym", "{")
        stmts = []
        self.skip_semis()
        while self.tokens[self.pos][1] != "}":
            stmts.append(self.parse_stmt())
            self.skip_semis()
        self.expect("sym", "}")
        return stmts

    # -- queries ---------------------------------------------------------------

    def parse_query(self):
        start, sp = self.pos, self.span()
        if self.tokens[start][1] == "pr":
            self.pos += 1
            self.expect("sym", "(")
            expr = self.term()
            self.expect("sym", ")")
            evidence = self.parse_with()
            return A.QPr(span=sp, expr=expr, evidence=evidence, text=self._slice(start))
        queried, evidence = self.parse_mmap_call()
        return A.QMmap(span=sp, queried=queried, evidence=evidence, text=self._slice(start))

    def _slice(self, start):
        return " ".join(tok[1] for tok in self.tokens[start:self.pos])

    # -- expressions ----------------------------------------------------------------

    def term_atom(self, sp):
        # an ident token is never the last one, and only the keyword spells "is"
        tokens, pos = self.tokens, self.pos
        if tokens[pos][0] == "ident" and tokens[pos + 1][1] == "is":
            self.pos += 2
            return A.EIs(span=sp, name=tokens[pos][1], outcome=self.expect("ident")[1])
        return super().term_atom(sp)


def parse(source: str) -> A.Program:
    return Parser(source).parse_program()
