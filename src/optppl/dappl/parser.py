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
    #
    # A rule is picked by the next token's text (see _RULES below); a name
    # is the one start no text names.

    def parse_program(self) -> A.Expr:
        expr = self.parse_expr()
        self.expect("eof")
        return expr

    def parse_expr(self) -> A.Expr:
        tok = self.tokens[self.pos]
        rule = _SEQ_RULES.get(tok[1])
        if rule is not None:
            return rule(self)
        # a name is never the last token
        if tok[0] == "ident" and self.tokens[self.pos + 1][1] == "<-":
            return self.parse_bind()
        return self.parse_name(tok)

    def parse_expr_no_seq(self) -> A.Expr:
        tok = self.tokens[self.pos]
        rule = _RULES.get(tok[1])
        if rule is not None:
            return rule(self)
        return self.parse_name(tok)

    def parse_name(self, tok) -> A.Return:
        if tok[0] != "ident":
            self.error(f"expected an expression, found {tok[1]!r}")
        return self.parse_return()

    def parse_bind(self) -> A.Bind:
        sp = self.span()
        name = self.tokens[self.pos][1]
        self.pos += 2  # the name and '<-'
        value = self.parse_expr_no_seq()
        self.expect("sym", ";")
        return A.Bind(span=sp, name=name, value=value, body=self.parse_expr())

    def parse_observe(self) -> A.Observe:
        sp = self.span()
        self.pos += 1
        guard = self.term()
        self.expect("sym", ";")
        return A.Observe(span=sp, guard=guard, body=self.parse_expr())

    def parse_reward(self) -> A.Reward:
        sp = self.span()
        self.pos += 1
        amount = self.number()
        tok = self.tokens[self.pos]
        if tok[0] == "ident" or tok[1] in _SEQ_RULES:
            return A.Reward(span=sp, amount=amount, body=self.parse_expr_no_seq())
        return A.Reward(span=sp, amount=amount, body=None)

    def parse_flip(self) -> A.Flip:
        sp = self.span()
        return A.Flip(span=sp, theta=self.flip_bias(sp))

    def parse_return(self) -> A.Return:
        """``'return' pure``, or a bare pure, which means the same."""
        sp = self.span()
        if self.tokens[self.pos][1] == "return":
            self.pos += 1
        return A.Return(span=sp, pure=self.term())

    def parse_loop(self) -> A.Loop:
        sp = self.span()
        self.pos += 1
        count = self.loop_count()
        self.expect("sym", "{")
        body = self.parse_expr()
        self.expect("sym", "}")
        return A.Loop(span=sp, count=count, body=body)

    def parse_paren(self) -> A.Expr:
        sp = self.span()
        start = self.pos
        self.pos += 1
        if self.tokens[self.pos][1] == ")":
            self.pos += 1
            return A.Unit(span=sp)
        # could be a parenthesized expression or a pure term; expressions
        # subsume pures via return-promotion, but a pure may continue with
        # a binary operator after the closing paren.
        inner = self.parse_expr()
        self.expect("sym", ")")
        if isinstance(inner, A.Return) and self.tokens[self.pos][1] in ("&&", "||"):
            self.pos = start
            return A.Return(span=sp, pure=self.term())
        return inner

    def parse_ite(self) -> A.Ite:
        sp = self.span()
        self.pos += 1
        if self.tokens[self.pos][1] == "[":
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

    def parse_choose(self) -> A.Choose:
        sp = self.span()
        self.pos += 1
        text = self.tokens[self.pos][1]
        if text == "[":
            scrut = self.parse_choice_intro()
        elif text == "disc":
            scrut = self.parse_disc()
        else:
            scrut = A.ScrutVar(span=self.span(), name=self.expect("ident")[1])
        if self.tokens[self.pos][1] == "with":  # optional ML-style keyword before the arms
            self.pos += 1
        arms = []
        while self.tokens[self.pos][1] == "|":
            self.pos += 1
            name = self.expect("ident")[1]
            self.expect("sym", "->")
            arms.append((name, self.parse_expr_no_seq()))
        if not arms:
            self.error("choose requires at least one '| name -> expr' arm")
        return A.Choose(span=sp, scrutinee=scrut, arms=tuple(arms))

    def parse_choice_intro(self) -> A.ChoiceIntro:
        sp = self.span()
        self.pos += 1
        names = self.names()
        self.expect("sym", "]")
        if len(set(names)) != len(names):
            self.error("duplicate alternative names", sp)
        return A.ChoiceIntro(span=sp, names=names)

    def parse_disc(self) -> A.Disc:
        sp = self.span()
        return A.Disc(span=sp, pairs=self.disc_pairs(sp))


# the rule each token text starts, where a sequence cannot stand
_RULES = {
    "if": Parser.parse_ite,
    "choose": Parser.parse_choose,
    "reward": Parser.parse_reward,
    "flip": Parser.parse_flip,
    "return": Parser.parse_return,
    "loop": Parser.parse_loop,
    "[": Parser.parse_choice_intro,
    "disc": Parser.parse_disc,
    "(": Parser.parse_paren,
    **dict.fromkeys(("tt", "ff", "true", "false", "!"), Parser.parse_return),
}
# where one can
_SEQ_RULES = {**_RULES, "observe": Parser.parse_observe}


def parse(source: str) -> A.Expr:
    """Parse a program; sugar is preserved in the AST."""
    return Parser(source).parse_program()
