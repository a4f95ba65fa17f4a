"""Branch-and-bound semirings: the reals and the expectation semiring.

A branch-and-bound semiring is a commutative semiring carrying two orders:
a lattice partial order ``cmp_le`` that respects addition (joins/meets are
its least upper / greatest lower bounds) and a total order ``total_le``
compatible with it.  The solver is parameterized over one of the two
instances ``EXPECTATION`` and ``REAL``; values themselves are immutable
plain data.  ``EV_BOUND``, their product, only carries the walk that bounds
an MEU quotient: it computes the numerator and denominator bounds at once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

NEG_INF = float("-inf")
POS_INF = float("inf")


class EV(NamedTuple):
    """Element of the expectation semiring: (probability mass, utility mass).

    ``prob`` is always >= 0.  ``util`` may be any real, or -inf as the
    sentinel produced by dividing by a zero probability.
    """

    prob: float
    util: float

    def __repr__(self):
        return f"EV({self.prob:g}, {self.util:g})"


class ExpectationSemiring:
    """Pairs (p, u) with componentwise +, product (pq, pv+qu)."""

    zero = EV(0.0, 0.0)
    one = EV(1.0, 0.0)
    #: <=-least element, used to seed branch-and-bound incumbents.
    bottom = EV(0.0, NEG_INF)
    #: Conservative "prune nothing" bound (see bbir._div_bound on zero denominators).
    top = EV(POS_INF, POS_INF)

    @staticmethod
    def add(a: EV, b: EV) -> EV:
        return EV(a.prob + b.prob, a.util + b.util)

    @staticmethod
    def mul(a: EV, b: EV) -> EV:
        # (pq, pv + qu); a zero factor makes a zero product, since 0 * inf
        # would be NaN under IEEE: a zero probability annihilates
        ap, au = a
        bp, bu = b
        return tuple.__new__(EV, (
            0.0 if ap == 0.0 or bp == 0.0 else ap * bp,
            (0.0 if ap == 0.0 or bu == 0.0 else ap * bu)
            + (0.0 if bp == 0.0 or au == 0.0 else bp * au),
        ))

    @staticmethod
    def join(a: EV, b: EV) -> EV:
        return EV(max(a.prob, b.prob), max(a.util, b.util))

    @staticmethod
    def meet(a: EV, b: EV) -> EV:
        return EV(min(a.prob, b.prob), min(a.util, b.util))

    @staticmethod
    def cmp_le(a: EV, b: EV) -> bool:
        """Coordinatewise lattice order."""
        return a.prob <= b.prob and a.util <= b.util

    @staticmethod
    def total_le(a: EV, b: EV) -> bool:
        """Total order: utility first, probability breaks ties."""
        return a.util < b.util or (a.util == b.util and a.prob <= b.prob)

    @staticmethod
    def scalar_div(a: EV, r: float) -> EV:
        """Divide both components by r >= 0; division by 0 yields (0, -inf)."""
        if r == 0.0:
            return EV(0.0, NEG_INF)
        return EV(a.prob / r, a.util / r)

    @staticmethod
    def isclose(a: EV, b: EV, tol: float = 1e-9) -> bool:
        return _close(a.prob, b.prob, tol) and _close(a.util, b.util, tol)


class RealSemiring:
    """The nonnegative reals with +, *; both orders are numeric <=."""

    zero = 0.0
    one = 1.0
    bottom = NEG_INF
    top = POS_INF

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        # the zero guard of ExpectationSemiring.mul
        return 0.0 if a == 0.0 or b == 0.0 else a * b

    @staticmethod
    def join(a, b):
        return max(a, b)

    @staticmethod
    def meet(a, b):
        return min(a, b)

    @staticmethod
    def cmp_le(a, b):
        return a <= b

    @staticmethod
    def total_le(a, b):
        return a <= b

    @staticmethod
    def scalar_div(a, r):
        if r == 0.0:
            return NEG_INF
        return a / r

    @staticmethod
    def isclose(a, b, tol: float = 1e-9) -> bool:
        return _close(a, b, tol)


class EVBound(NamedTuple):
    """Element of :data:`EV_BOUND`: an expectation pair and a second probability.

    In a bound walk (prob, util) is the expectation count with joins at the
    branch variables, and ``low`` the probability count with meets there.
    """

    prob: float
    util: float
    low: float

    @classmethod
    def lift(cls, w: EV) -> "EVBound":
        """The weight ``w`` in both components."""
        return cls(w.prob, w.util, w.prob)


class EVBoundSemiring:
    """The product of the expectation semiring and the reals.

    ``add`` and ``mul`` act componentwise, with the operations (and operand
    order) of ``EXPECTATION`` on (prob, util) and of ``REAL`` on ``low``, so
    each component is bit for bit the count that its own semiring gives.
    The product order reverses the reals, so ``join`` is (join, meet): the
    direction in which a quotient (prob, util) / low can grow.
    """

    zero = EVBound(0.0, 0.0, 0.0)
    one = EVBound(1.0, 0.0, 1.0)

    @staticmethod
    def add(a: EVBound, b: EVBound) -> EVBound:
        ap, au, al = a
        bp, bu, bl = b
        return tuple.__new__(EVBound, (ap + bp, au + bu, al + bl))

    @staticmethod
    def mul(a: EVBound, b: EVBound) -> EVBound:
        ap, au, al = a
        bp, bu, bl = b
        return tuple.__new__(EVBound, (
            0.0 if ap == 0.0 or bp == 0.0 else ap * bp,
            (0.0 if ap == 0.0 or bu == 0.0 else ap * bu)
            + (0.0 if bp == 0.0 or au == 0.0 else bp * au),
            0.0 if al == 0.0 or bl == 0.0 else al * bl,
        ))

    @staticmethod
    def join(a: EVBound, b: EVBound) -> EVBound:
        # max(x, y) and min(x, y) keep x unless y is strictly beyond it
        ap, au, al = a
        bp, bu, bl = b
        return tuple.__new__(EVBound, (
            bp if bp > ap else ap,
            bu if bu > au else au,
            bl if bl < al else al,
        ))


def _close(a: float, b: float, tol: float) -> bool:
    if a == b:  # covers equal infinities
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol


EXPECTATION = ExpectationSemiring()
REAL = RealSemiring()
EV_BOUND = EVBoundSemiring()
