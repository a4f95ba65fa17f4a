"""Algebraic laws and worked values for the two solver semirings."""

import math
import random
import struct

import pytest
from hypothesis import given, strategies as st

from optppl import EV, EXPECTATION, REAL
from optppl.semiring import EV_BOUND, EVBound

TOL = 1e-9


def close(a, b):
    return EXPECTATION.isclose(a, b, TOL)


class TestExpectationOps:
    def test_add_worked_example(self):
        assert close(EXPECTATION.add(EV(0.1, 1.0), EV(0.9, -4.5)), EV(1.0, -3.5))

    def test_add_unit(self):
        assert EXPECTATION.add(EV(0.4, 2.5), EXPECTATION.zero) == EV(0.4, 2.5)

    def test_add_componentwise(self):
        assert close(EXPECTATION.add(EV(0.35, 2.0), EV(0.15, -7.0)), EV(0.5, -5.0))

    def test_mul_worked_example(self):
        assert close(EXPECTATION.mul(EV(0.1, 0.0), EV(1.0, 10.0)), EV(0.1, 1.0))

    def test_mul_unit(self):
        assert EXPECTATION.mul(EV(0.3, -2.0), EXPECTATION.one) == EV(0.3, -2.0)

    def test_mul_formula(self):
        assert close(EXPECTATION.mul(EV(0.5, 2.0), EV(0.5, 2.0)), EV(0.25, 2.0))

    def test_join_picks_coordinatewise_max(self):
        assert EXPECTATION.join(EV(1.0, 10.0), EV(1.0, -100.0)) == EV(1.0, 10.0)

    def test_join_idempotent(self):
        a = EV(0.2, -3.0)
        assert EXPECTATION.join(a, a) == a

    def test_meet_coordinatewise_min(self):
        assert EXPECTATION.meet(EV(0.5, 1.0), EV(1.0, 0.0)) == EV(0.5, 0.0)

    def test_total_order_utility_first(self):
        assert EXPECTATION.total_le(EV(1.0, -10.0), EV(1.0, -3.5))

    def test_total_order_reflexive(self):
        assert EXPECTATION.total_le(EV(0.3, 5.0), EV(0.3, 5.0))

    def test_total_order_prob_tiebreak(self):
        assert not EXPECTATION.total_le(EV(0.9, 5.0), EV(0.1, 5.0))

    def test_scalar_div(self):
        assert close(EXPECTATION.scalar_div(EV(0.35, 3.5), 0.35), EV(1.0, 10.0))

    def test_scalar_div_unit(self):
        assert EXPECTATION.scalar_div(EV(0.2, -4.0), 1.0) == EV(0.2, -4.0)

    def test_scalar_div_by_zero_sentinel(self):
        assert EXPECTATION.scalar_div(EV(0.2, 4.0), 0.0) == EV(0.0, float("-inf"))

    def test_neg_inf_util_below_everything(self):
        bottom = EV(5.0, float("-inf"))
        assert EXPECTATION.total_le(bottom, EV(0.0, -1e18))

    def test_zero_prob_annihilates_infinite_util(self):
        # 0 * -inf must behave as the zero pair dictates, not as NaN
        out = EXPECTATION.mul(EV(0.0, float("-inf")), EV(0.5, 2.0))
        assert out.prob == 0.0 and not math.isnan(out.util)


def random_ev(rng, util_lo=-50.0):
    return EV(rng.uniform(0.0, 3.0), rng.uniform(util_lo, 50.0))


@pytest.mark.parametrize("seed", range(5))
def test_semiring_axioms_randomized(seed):
    rng = random.Random(seed)
    for _ in range(400):
        a, b, c = (random_ev(rng) for _ in range(3))
        assert close(EXPECTATION.add(a, b), EXPECTATION.add(b, a))
        assert close(
            EXPECTATION.add(EXPECTATION.add(a, b), c),
            EXPECTATION.add(a, EXPECTATION.add(b, c)),
        )
        assert close(
            EXPECTATION.mul(EXPECTATION.mul(a, b), c),
            EXPECTATION.mul(a, EXPECTATION.mul(b, c)),
        )
        assert close(
            EXPECTATION.mul(a, EXPECTATION.add(b, c)),
            EXPECTATION.add(EXPECTATION.mul(a, b), EXPECTATION.mul(a, c)),
        )
        assert close(
            EXPECTATION.mul(EXPECTATION.add(b, c), a),
            EXPECTATION.add(EXPECTATION.mul(b, a), EXPECTATION.mul(c, a)),
        )
        assert EXPECTATION.mul(a, EXPECTATION.zero) == EXPECTATION.zero
        assert EXPECTATION.mul(EXPECTATION.zero, a) == EXPECTATION.zero


@pytest.mark.parametrize("seed", range(3))
def test_orders_and_lattice_randomized(seed):
    rng = random.Random(1000 + seed)
    for _ in range(500):
        a, b, c, d = (random_ev(rng) for _ in range(4))
        # compatibility: the lattice order implies the total order
        if EXPECTATION.cmp_le(a, b):
            assert EXPECTATION.total_le(a, b)
        # the lattice order respects addition
        if EXPECTATION.cmp_le(a, b) and EXPECTATION.cmp_le(c, d):
            assert EXPECTATION.cmp_le(EXPECTATION.add(a, c), EXPECTATION.add(b, d))
        j = EXPECTATION.join(a, b)
        m = EXPECTATION.meet(a, b)
        assert EXPECTATION.cmp_le(a, j) and EXPECTATION.cmp_le(b, j)
        assert EXPECTATION.cmp_le(m, a) and EXPECTATION.cmp_le(m, b)
        # join is the least upper bound on the coordinatewise lattice
        if EXPECTATION.cmp_le(a, c) and EXPECTATION.cmp_le(b, c):
            assert EXPECTATION.cmp_le(j, c)


@pytest.mark.parametrize("seed", range(3))
def test_commuting_bound_on_random_tables(seed):
    # join of row-sums is dominated by the sum of column-joins
    rng = random.Random(2000 + seed)
    for _ in range(200):
        nx, ny = rng.randint(1, 4), rng.randint(1, 4)
        table = [[random_ev(rng) for _ in range(ny)] for _ in range(nx)]
        row_sums = []
        for x in range(nx):
            acc = EXPECTATION.zero
            for y in range(ny):
                acc = EXPECTATION.add(acc, table[x][y])
            row_sums.append(acc)
        left = row_sums[0]
        for v in row_sums[1:]:
            left = EXPECTATION.join(left, v)
        right = EXPECTATION.zero
        for y in range(ny):
            col = table[0][y]
            for x in range(1, nx):
                col = EXPECTATION.join(col, table[x][y])
            right = EXPECTATION.add(right, col)
        assert right.prob >= left.prob - TOL and right.util >= left.util - TOL


finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
prob = st.floats(min_value=0, max_value=10, allow_nan=False)
evs = st.builds(EV, prob, finite)


@given(evs, evs)
def test_join_meet_are_bounds(a, b):
    j, m = EXPECTATION.join(a, b), EXPECTATION.meet(a, b)
    assert EXPECTATION.cmp_le(m, a) and EXPECTATION.cmp_le(a, j)
    assert EXPECTATION.cmp_le(m, b) and EXPECTATION.cmp_le(b, j)


@given(evs, evs, evs)
def test_total_order_is_total_and_transitive(a, b, c):
    assert EXPECTATION.total_le(a, b) or EXPECTATION.total_le(b, a)
    if EXPECTATION.total_le(a, b) and EXPECTATION.total_le(b, c):
        assert EXPECTATION.total_le(a, c)


def test_real_semiring_basics():
    assert REAL.add(0.25, 0.5) == 0.75
    assert REAL.mul(0.25, 0.5) == 0.125
    assert REAL.join(0.2, 0.9) == 0.9
    assert REAL.meet(0.2, 0.9) == 0.2
    assert REAL.total_le(0.2, 0.9) and REAL.cmp_le(0.2, 0.9)
    assert REAL.scalar_div(1.0, 0.0) == float("-inf")
    assert REAL.mul(0.0, float("inf")) == 0.0


def bits(*xs):
    """The IEEE-754 bit patterns of ``xs``, so -0.0 differs from 0.0."""
    return struct.pack(f"<{len(xs)}d", *xs)


def random_component(rng, lo, hi):
    # zeros, tiny values whose products underflow (to -0.0 if negative), plain values
    tiny = rng.choice((1e-170, -1e-170)) if lo < 0 else 1e-170
    return rng.choice((0.0, tiny, rng.uniform(lo, hi)))


def random_ev_bound(rng):
    return EVBound(
        random_component(rng, 0.0, 3.0),
        random_component(rng, -50.0, 50.0),
        random_component(rng, 0.0, 3.0),
    )


@pytest.mark.parametrize("seed", range(5))
def test_ev_bound_components_equal_their_own_semirings_bit_for_bit(seed):
    rng = random.Random(3000 + seed)
    for _ in range(1000):
        a, b = random_ev_bound(rng), random_ev_bound(rng)
        a_ev, b_ev = EV(a.prob, a.util), EV(b.prob, b.util)
        for op, ev_op, real_op in (
            (EV_BOUND.mul, EXPECTATION.mul, REAL.mul),
            (EV_BOUND.add, EXPECTATION.add, REAL.add),
            (EV_BOUND.join, EXPECTATION.join, REAL.meet),
        ):
            out = op(a, b)
            assert type(out) is EVBound
            assert bits(*out) == bits(*ev_op(a_ev, b_ev), real_op(a.low, b.low))


def test_ev_bound_units_and_lift():
    w = EV(0.25, -3.0)
    assert EVBound.lift(w) == EVBound(0.25, -3.0, 0.25)
    lifted = EVBound.lift(w)
    assert EV_BOUND.mul(lifted, EV_BOUND.one) == lifted
    assert EV_BOUND.add(lifted, EV_BOUND.zero) == lifted
    assert EV_BOUND.mul(EV_BOUND.zero, lifted) == EV_BOUND.zero


def _term(a: float, b: float) -> float:
    # the reference product: 0 * inf would be NaN under IEEE, and a zero
    # probability annihilates
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


@pytest.mark.parametrize("seed", range(5))
def test_real_mul_equals_the_term_formula_bit_for_bit(seed):
    rng = random.Random(3200 + seed)
    for _ in range(1000):
        a, b = random_component(rng, -3.0, 3.0), random_component(rng, -3.0, 3.0)
        assert bits(REAL.mul(a, b)) == bits(_term(a, b))
    assert REAL.mul(0.0, float("inf")) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_expectation_mul_equals_the_term_formula_bit_for_bit(seed):
    rng = random.Random(3100 + seed)
    for _ in range(1000):
        a = EV(random_component(rng, 0.0, 3.0), random_component(rng, -50.0, 50.0))
        b = EV(random_component(rng, 0.0, 3.0), random_component(rng, -50.0, 50.0))
        out = EXPECTATION.mul(a, b)
        assert type(out) is EV
        want = (_term(a.prob, b.prob), _term(a.prob, b.util) + _term(b.prob, a.util))
        assert bits(*out) == bits(*want)
