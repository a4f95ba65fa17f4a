"""Recursive-descent parser for the decision language.

Grammar sketch (sugar included; ``//`` starts a line comment)::

    expr  := IDENT '<-' expr ';' expr
           | 'observe' pure ';' expr
           | 'if' guard 'then' expr 'else' expr
           | 'choose' scrut ('|' IDENT '->' expr)+
           | 'reward' NUM expr?          -- trailing form when no expr follows
           | 'flip' NUM | 'return' pure | 'loop' INT '{' expr '}'
           | '[' IDENT (',' IDENT)* ']' | 'disc' '[' IDENT ':' NUM , ... ']'
           | '(' ')' | '(' expr ')' | pure        -- bare pure means return
    pure  := term                 -- TokenParser.term, shared with pineappl

A guard may also be a one-name choice introduction, desugared later into a
binary decision.  Nested ``choose`` inside an arm must be parenthesized.
"""

from __future__ import annotations

from ..frontend import SourceSyntaxError, TokenParser
from . import ast as A


class DapplSyntaxError(SourceSyntaxError):
    pass


class Parser(TokenParser):
    KEYWORDS = frozenset({
        "if", "then", "else", "choose", "observe", "reward", "return",
        "flip", "loop", "disc", "tt", "ff", "true", "false", "with",
    })
    SYMBOLS = ("<-", "->", "&&", "||", ";", "|", "[", "]", "(", ")", "{", "}", ":", ",", "!", "-")
    Error = DapplSyntaxError

    # -- expressions -----------------------------------------------------------

    def parse_program(self) -> A.Expr:
        expr = self.parse_expr()
        self.expect("eof")
        return expr

    def parse_expr(self) -> A.Expr:
        sp = self.span()
        if self.at("ident") and self.at("sym", "<-", ahead=1):
            name = self.next().text
            self.next()
            value = self.parse_expr_no_seq()
            self.expect("sym", ";")
            body = self.parse_expr()
            return A.Bind(span=sp, name=name, value=value, body=body)
        if self.at("kw", "observe"):
            self.next()
            guard = self.term()
            self.expect("sym", ";")
            body = self.parse_expr()
            return A.Observe(span=sp, guard=guard, body=body)
        return self.parse_expr_no_seq()

    def parse_expr_no_seq(self) -> A.Expr:
        sp = self.span()
        if self.at("kw", "if"):
            return self.parse_ite()
        if self.at("kw", "choose"):
            return self.parse_choose()
        if self.at("kw", "reward"):
            self.next()
            amount = self.number()
            if self.starts_expr():
                return A.Reward(span=sp, amount=amount, body=self.parse_expr_no_seq())
            return A.Reward(span=sp, amount=amount, body=None)
        if self.at("kw", "flip"):
            self.next()
            theta = self.number()
            if not 0.0 <= theta <= 1.0:
                self.error(f"flip bias {theta} outside [0, 1]", sp)
            return A.Flip(span=sp, theta=theta)
        if self.at("kw", "return"):
            self.next()
            return A.Return(span=sp, pure=self.term())
        if self.at("kw", "loop"):
            self.next()
            count = self.loop_count()
            self.expect("sym", "{")
            body = self.parse_expr()
            self.expect("sym", "}")
            return A.Loop(span=sp, count=count, body=body)
        if self.at("sym", "["):
            return self.parse_choice_intro()
        if self.at("kw", "disc"):
            return self.parse_disc()
        if self.at("sym", "("):
            if self.at("sym", ")", ahead=1):
                self.next()
                self.next()
                return A.Unit(span=sp)
            # could be a parenthesized expression or a pure term; expressions
            # subsume pures via return-promotion, but a pure may continue with
            # a binary operator after the closing paren.
            start = self.pos
            self.next()
            inner = self.parse_expr()
            self.expect("sym", ")")
            if isinstance(inner, A.Return) and (self.at("sym", "&&") or self.at("sym", "||")):
                self.pos = start
                return A.Return(span=sp, pure=self.term())
            return inner
        if self.at("ident") or self.at("kw", "tt") or self.at("kw", "ff") \
                or self.at("kw", "true") or self.at("kw", "false") or self.at("sym", "!"):
            return A.Return(span=sp, pure=self.term())
        self.error(f"expected an expression, found {self.peek().text!r}")

    def starts_expr(self) -> bool:
        if self.at("ident"):
            return True
        if self.at("sym") and self.peek().text in ("[", "(", "!"):
            return True
        if self.at("kw") and self.peek().text in (
            "if", "choose", "observe", "reward", "return", "flip", "loop",
            "disc", "tt", "ff", "true", "false",
        ):
            return True
        return False

    def parse_ite(self) -> A.Expr:
        sp = self.span()
        self.expect("kw", "if")
        if self.at("sym", "["):
            # decision guard: a one-alternative choice introduction
            intro = self.parse_choice_intro()
            if len(intro.names) != 1:
                self.error("an if-guard decision must have exactly one alternative", sp)
            guard = intro
        else:
            guard = self.term()
        self.expect("kw", "then")
        then = self.parse_expr_no_seq()
        self.expect("kw", "else")
        els = self.parse_expr_no_seq()
        return A.Ite(span=sp, guard=guard, then=then, els=els)

    def parse_choose(self) -> A.Expr:
        sp = self.span()
        self.expect("kw", "choose")
        if self.at("sym", "["):
            scrut = self.parse_choice_intro()
        elif self.at("kw", "disc"):
            scrut = self.parse_disc()
        else:
            scrut = A.ScrutVar(span=self.span(), name=self.expect("ident").text)
        if self.at("kw", "with"):  # optional ML-style keyword before the arms
            self.next()
        arms = []
        while self.at("sym", "|"):
            self.next()
            name = self.expect("ident").text
            self.expect("sym", "->")
            arms.append((name, self.parse_expr_no_seq()))
        if not arms:
            self.error("choose requires at least one '| name -> expr' arm")
        return A.Choose(span=sp, scrutinee=scrut, arms=tuple(arms))

    def parse_choice_intro(self) -> A.ChoiceIntro:
        sp = self.span()
        self.expect("sym", "[")
        names = self.names()
        self.expect("sym", "]")
        if len(set(names)) != len(names):
            self.error("duplicate alternative names", sp)
        return A.ChoiceIntro(span=sp, names=names)

    def parse_disc(self) -> A.Disc:
        sp = self.span()
        return A.Disc(span=sp, pairs=self.disc_pairs(sp))


def parse(source: str) -> A.Expr:
    """Parse a program; sugar is preserved in the AST."""
    return Parser(source).parse_program()
