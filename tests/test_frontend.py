"""The Boolean term language both front ends share: one grammar, one AST."""

import pytest

from optppl.dappl import DapplSyntaxError
from optppl.dappl import ast as A
from optppl.dappl import parse as parse_dappl
from optppl.frontend import And, Lit, Not, Or, Var, chain_biases, term_vars
from optppl.pineappl import parse as parse_pineappl
from optppl.pineappl.ast import EIs

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


@pytest.mark.parametrize("probs", [[0.5, 0.2], [1.2, -0.2], [0.5, 0.6, -0.1]])
def test_chain_biases_reject_a_non_distribution(probs):
    with pytest.raises(ValueError, match="nonnegative and sum to 1"):
        chain_biases(probs)


def test_chain_biases_of_a_distribution():
    assert chain_biases([0.5, 0.3, 0.2]) == pytest.approx([0.5, 0.6])
