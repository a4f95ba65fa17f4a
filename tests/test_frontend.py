"""What both front ends share: one lexer, one Boolean term grammar, one AST.

The lexer and syntax-error tests pin every token's kind, text, line and
column, and the place of every syntax error the parsers report.
"""

import itertools

import pytest

from optppl import TRUE, BddManager
from optppl.dappl import DapplSyntaxError
from optppl.dappl import ast as A
from optppl.dappl import parse as parse_dappl
from optppl.dappl.parser import Parser as DapplParser
from optppl.frontend import (
    And, Lit, Mux, Not, Or, SourceSyntaxError, Var, chain_biases, compile_term, term_vars,
    tokenize,
)
from optppl.oracle import eval_term
from optppl.pineappl import parse as parse_pineappl
from optppl.pineappl.ast import EIs
from optppl.pineappl.parser import Parser as PineapplParser

from helpers import render_term

TERMS = {
    # '!' binds tighter than '&&', which binds tighter than '||'
    "!a && b || c": Or(
        left=And(left=Not(operand=Var(name="a")), right=Var(name="b")), right=Var(name="c")
    ),
    "a && b && c": And(left=And(left=Var(name="a"), right=Var(name="b")), right=Var(name="c")),
    "a || (b && !(c || d))": Or(
        left=Var(name="a"),
        right=And(
            left=Var(name="b"), right=Not(operand=Or(left=Var(name="c"), right=Var(name="d")))
        ),
    ),
    "((a))": Var(name="a"),
    "!!a": Not(operand=Not(operand=Var(name="a"))),
    "tt || ff": Or(left=Lit(value=True), right=Lit(value=False)),
    "true && !false": And(left=Lit(value=True), right=Not(operand=Lit(value=False))),
}


@pytest.mark.parametrize("text", list(TERMS))
def test_both_languages_parse_a_term_alike(text):
    dappl = parse_dappl(f"return {text}")
    assert isinstance(dappl, A.Return)
    pineappl = parse_pineappl(f"pr({text})").queries[0].expr
    assert dappl.pure == pineappl == TERMS[text]


def test_only_pineappl_has_membership_tests():
    assert parse_pineappl("pr(x is a)").queries[0].expr == EIs(name="x", outcome="a")
    with pytest.raises(DapplSyntaxError):
        parse_dappl("return x is a")


def test_term_vars():
    assert term_vars(TERMS["a || (b && !(c || d))"]) == {"a", "b", "c", "d"}
    assert term_vars(TERMS["tt || ff"]) == set()


def test_mux_reads_compiles_and_evaluates_as_if_then_else():
    mux = Mux(guard=Var(name="g"), then=Var(name="t"), els=Var(name="e"))
    assert term_vars(mux) == {"g", "t", "e"}
    assert render_term(mux) == "((g && t) || (!g && e))"
    mgr = BddManager()
    var = {name: mgr.new_var(name) for name in "gte"}
    root = compile_term(mgr, mux, lambda name: mgr.mk_var(var[name]))
    for values in itertools.product([False, True], repeat=3):
        env = dict(zip("gte", values))
        expected = env["t"] if env["g"] else env["e"]
        assert eval_term(mux, env) == expected
        assigned = mgr.condition_all(root, {var[name]: env[name] for name in env})
        assert (assigned == TRUE) == expected


@pytest.mark.parametrize("probs", [[0.5, 0.2], [1.2, -0.2], [0.5, 0.6, -0.1]])
def test_chain_biases_reject_a_non_distribution(probs):
    with pytest.raises(ValueError, match="nonnegative and sum to 1"):
        chain_biases(probs)


def test_chain_biases_of_a_distribution():
    assert chain_biases([0.5, 0.3, 0.2]) == pytest.approx([0.5, 0.6])


# -- the lexer's contract ----------------------------------------------------------


def lex(parser, source):
    """``(kind, text, line, col)`` of every token, eof included."""
    return tokenize(source, parser.KEYWORDS, parser.SYMBOLS, parser.Error)


# source -> its tokens, in either language
SHARED_TOKENS = {
    # the eof column stops where a trailing comment starts
    "ab // end": [("ident", "ab", 1, 1), ("eof", "", 1, 4)],
    "ab // a\n// b": [("ident", "ab", 1, 1), ("eof", "", 2, 1)],
    "ab\n// a\n": [("ident", "ab", 1, 1), ("eof", "", 3, 1)],
    # a carriage return is a blank; a tab is one column
    "a\r\n\tb\r\n": [("ident", "a", 1, 1), ("ident", "b", 2, 2), ("eof", "", 3, 1)],
    # the lexer takes any run of digits and dots; the parser judges it
    ".5 1.2.3": [("num", ".5", 1, 1), ("num", "1.2.3", 1, 4), ("eof", "", 1, 9)],
    # a superscript two is a digit (str.isdigit) but not decimal; it and an
    # Arabic-Indic three start numbers, and both may follow a name's letter
    "x²y ² xé ٣ a٣": [
        ("ident", "x²y", 1, 1), ("num", "²", 1, 5), ("ident", "xé", 1, 7),
        ("num", "٣", 1, 10), ("ident", "a٣", 1, 12), ("eof", "", 1, 14),
    ],
    # a numeral that is not a digit may continue a name but not start one
    "x½ yⅫ": [("ident", "x½", 1, 1), ("ident", "yⅫ", 1, 4), ("eof", "", 1, 6)],
    # a keyword is a whole word, never the prefix of a longer name
    "iff ifx if flipx flip": [
        ("ident", "iff", 1, 1), ("ident", "ifx", 1, 5), ("kw", "if", 1, 9),
        ("ident", "flipx", 1, 12), ("kw", "flip", 1, 18), ("eof", "", 1, 22),
    ],
    "": [("eof", "", 1, 1)],
}


@pytest.mark.parametrize("source", list(SHARED_TOKENS))
@pytest.mark.parametrize("parser", [DapplParser, PineapplParser])
def test_both_lexers_agree_on_words_numbers_and_comments(parser, source):
    assert lex(parser, source) == SHARED_TOKENS[source]


def test_dappl_tokens():
    assert lex(DapplParser, "x <- flip 0.5; // note\nreturn x") == [
        ("ident", "x", 1, 1), ("sym", "<-", 1, 3), ("kw", "flip", 1, 6),
        ("num", "0.5", 1, 11), ("sym", ";", 1, 14), ("kw", "return", 2, 1),
        ("ident", "x", 2, 8), ("eof", "", 2, 9),
    ]
    # the longest symbol is taken first
    assert lex(DapplParser, "a<-b->c-d||e|f") == [
        ("ident", "a", 1, 1), ("sym", "<-", 1, 2), ("ident", "b", 1, 4),
        ("sym", "->", 1, 5), ("ident", "c", 1, 7), ("sym", "-", 1, 8),
        ("ident", "d", 1, 9), ("sym", "||", 1, 10), ("ident", "e", 1, 12),
        ("sym", "|", 1, 13), ("ident", "f", 1, 14), ("eof", "", 1, 15),
    ]


def test_pineappl_tokens():
    assert lex(PineapplParser, "x = flip 0.5; // note\npr(x)") == [
        ("ident", "x", 1, 1), ("sym", "=", 1, 3), ("kw", "flip", 1, 5),
        ("num", "0.5", 1, 10), ("sym", ";", 1, 13), ("kw", "pr", 2, 1),
        ("sym", "(", 2, 3), ("ident", "x", 2, 4), ("sym", ")", 2, 5), ("eof", "", 2, 6),
    ]
    assert lex(PineapplParser, "a||b-c") == [
        ("ident", "a", 1, 1), ("sym", "||", 1, 2), ("ident", "b", 1, 4),
        ("sym", "-", 1, 5), ("ident", "c", 1, 6), ("eof", "", 1, 7),
    ]


@pytest.mark.parametrize("parser, source, message, col", [
    (DapplParser, "x <- a\n  ½x", "unexpected character '½'", 3),
    (PineapplParser, "x = a\n  Ⅻ", "unexpected character 'Ⅻ'", 3),
    (DapplParser, "a\n b = c", "unexpected character '='", 4),
    # pineappl has no '|', '<-' or '->'
    (PineapplParser, "a\n b | c", "unexpected character '|'", 4),
    (PineapplParser, "a\n b <- c", "unexpected character '<'", 4),
])
def test_an_unknown_character_is_reported_where_it_stands(parser, source, message, col):
    with pytest.raises(parser.Error) as err:
        lex(parser, source)
    assert str(err.value) == f"{message} (line 2, column {col})"
    assert (err.value.line, err.value.col) == (2, col)


# -- where a syntax error is reported ------------------------------------------------

SYNTAX_ERRORS = [
    # the shared rules: expect, number, loop_count, disc_pairs and term_atom
    (parse_dappl, "x <- flip 0.5\nreturn x", "expected ';', found 'return'", 2, 1),
    (parse_dappl, "x <- flip 0.5;\n  x )", "expected 'eof', found ')'", 2, 5),
    (parse_pineappl, "x = flip 0.5;\npr(x", "expected ')', found ''", 2, 5),
    (parse_pineappl, "x = flip 0.5;\n (a, 3) = mmap(x); pr(x)", "expected 'ident', found '3'", 2, 6),
    (parse_dappl, "x <- flip 0.5;\nreward 1.2.3 x", "bad number '1.2.3'", 2, 8),
    (parse_pineappl, "x = flip 0.5;\ny = flip 1.2.3; pr(x)", "bad number '1.2.3'", 2, 10),
    (parse_dappl, "x <- flip 0.5;\nloop 2.5 { x }", "loop bound must be an integer", 2, 6),
    (parse_pineappl, "x = flip 0.5;\nloop 2.5 { x = flip 0.5; } pr(x)",
     "loop bound must be an integer", 2, 6),
    (parse_dappl, "x <- flip 0.5;\ny <- disc[a: 0.5, a: 0.5]; x", "duplicate outcome names", 2, 6),
    (parse_pineappl, "x = flip 0.5;\ny = disc[a: 0.5, a: 0.5]; pr(x)",
     "duplicate outcome names", 2, 1),
    (parse_dappl, "x <- flip 0.5;\nreturn x &&", "expected a Boolean term, found ''", 2, 12),
    (parse_pineappl, "x = flip 0.5;\npr(x &&)", "expected a Boolean term, found ')'", 2, 8),
    (parse_pineappl, "x = flip 0.5;\n y = ; pr(x)", "expected a Boolean term, found ';'", 2, 6),
    # dappl
    (parse_dappl, "x <- flip 0.5;\ny <- flip 1.5; x", "flip bias 1.5 outside [0, 1]", 2, 6),
    (parse_dappl, "x <- flip 0.5;\n  then", "expected an expression, found 'then'", 2, 3),
    (parse_dappl, "x <- flip 0.5;\n  3", "expected an expression, found '3'", 2, 3),
    (parse_dappl, "x <- flip 0.5;\n  ", "expected an expression, found ''", 2, 3),
    (parse_dappl, "x <- flip 0.5;\n  choose 3", "expected 'ident', found '3'", 2, 10),
    (parse_dappl, "x <- flip 0.5;\nif [a, b] then x else x",
     "an if-guard decision must have exactly one alternative", 2, 1),
    (parse_dappl, "x <- flip 0.5;\n  choose [a, b] with",
     "choose requires at least one '| name -> expr' arm", 2, 21),
    (parse_dappl, "x <- flip 0.5;\ny <- [a, b, a]; x", "duplicate alternative names", 2, 6),
    # pineappl
    (parse_pineappl, "x = flip 0.5;\npr(x); y = flip 0.5;", "statements cannot follow a query", 2, 8),
    (parse_pineappl, "x = flip 0.5;\n  y = flip 0.5;", "a program needs at least one query", 2, 16),
    (parse_pineappl, "x = flip 0.5;\n  y = flip -0.5; pr(x)", "flip bias -0.5 outside [0, 1]", 2, 3),
    (parse_pineappl, "x = flip 0.5;\n  (a, b) = mmap(x); pr(x)", "mmap binds 2 names to 1 variables", 2, 3),
    (parse_pineappl, "x = flip 0.5;\n  else { } pr(x)", "expected 'ident', found 'else'", 2, 3),
]


@pytest.mark.parametrize("parse, source, message, line, col", SYNTAX_ERRORS)
def test_a_syntax_error_names_its_line_and_column(parse, source, message, line, col):
    with pytest.raises(SourceSyntaxError) as err:
        parse(source)
    assert str(err.value) == f"{message} (line {line}, column {col})"
    assert (err.value.line, err.value.col) == (line, col)
