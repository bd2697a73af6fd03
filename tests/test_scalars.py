import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmat.constants import constants_for
from gradedmat.forms import DerivationVector
from gradedmat.matrices import GradedMatrix
from gradedmat.scalars import I, ONE, ZERO, Scalar
from tests.reference import trace

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
scalars = st.builds(Scalar, rationals, rationals)


def test_construction_and_equality():
    assert Scalar(1) == ONE
    assert Scalar(0, 1) == I
    assert Scalar(2) != Scalar(2, 1)
    assert Scalar(Fraction(2, 4)) == Scalar(Fraction(1, 2))


def test_of_coercions():
    assert Scalar.of(3) == Scalar(3)
    assert Scalar.of(Fraction(-1, 3)) == Scalar(Fraction(-1, 3))
    assert Scalar.of(ONE) is ONE
    with pytest.raises(TypeError):
        Scalar.of(0.5)


def test_arithmetic_is_exact():
    third = Scalar(Fraction(1, 3))
    assert third + third + third == ONE
    assert (ONE / Scalar(7)) * Scalar(7) == ONE
    assert I * I == Scalar(-1)


def test_truthiness_and_as_fraction():
    assert not ZERO
    assert ONE
    assert Scalar(0, Fraction(1, 5))
    real = Scalar(Fraction(3, 4))
    assert real.re == Fraction(3, 4) and not real.im
    assert I.im and not I.re


def test_string_forms():
    assert str(Scalar(Fraction(1, 2))) == "1/2"
    assert str(Scalar(0, 2)) == "2i"
    assert str(Scalar(1, -1)) == "1-1i"
    assert str(ZERO) == "0"


def _assert_exact(*values):
    for x in values:
        assert type(x.re) is Fraction and type(x.im) is Fraction


def test_zero_results_equal_zero():
    zeros = (Scalar(0), Scalar(Fraction(0), Fraction(0)), Scalar.of(0),
             ONE - ONE, I * I + ONE, -ZERO, ZERO * I, ZERO / I)
    for z in zeros:
        assert z == ZERO and z == 0 and not z
        assert hash(z) == hash(0)
    _assert_exact(*zeros, ZERO, ONE, I, Scalar(0, Fraction(1, 5)))


@settings(max_examples=80, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    # every slot also runs with ZERO
    for x, y, z in itertools.product((a, ZERO), (b, ZERO), (c, ZERO)):
        results = (
            x + y, y + x, x * y, y * x, x - y, -x,
            (x + y) + z, x + (y + z), x * (y + z), x * y + x * z,
        )
        _assert_exact(*results)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x - y == x + (-y)
        assert x + ZERO == x and x * ZERO == ZERO and x * ONE == x


@settings(max_examples=80, deadline=None)
@given(rationals, scalars)
def test_mixed_real_gaussian_products(r, z):
    # a real factor gives the full formula
    x = Scalar(r)
    for a, b in ((x, z), (z, x), (x, Scalar(0, z.im)), (Scalar(0, z.im), x)):
        got = a * b
        _assert_exact(got)
        assert got.re == a.re * b.re - a.im * b.im
        assert got.im == a.re * b.im + a.im * b.re
        if not got.im:
            assert got.im == Fraction(0) and got == got.re


@settings(max_examples=60, deadline=None)
@given(scalars)
def test_field_inverse(a):
    for x in (a, ZERO):
        if x:
            inv = ONE / x
            _assert_exact(inv, x * inv, x / x)
            assert x * inv == ONE
        else:
            with pytest.raises(ZeroDivisionError):
                ONE / x
            _assert_exact(x / ONE, x / I)
            assert x / ONE == ZERO
        assert x - x == ZERO
        assert not x - x
        assert bool(x) == (x.re != 0 or x.im != 0)


def test_every_scalar_passes_through_init(monkeypatch):
    made = []
    real_init = Scalar.__init__

    def counted_init(self, *args):
        made.append(self)
        real_init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counted_init)
    x, y = Scalar(Fraction(1, 2), 3), Scalar(-2, Fraction(1, 5))
    assert [id(s) for s in made] == [id(x), id(y)]  # the counter counts
    sc = constants_for(2, 1)
    unit = GradedMatrix.unit(2, 1, 0, 2)
    results = [
        ONE + I, I * I, -x, x - x, x / y, Scalar.of(3),
        *(s for row in unit.entries for s in row if s),
        trace(unit), trace(GradedMatrix.identity(2, 1)),
        *DerivationVector.basis(sc, 1).coords,
    ]
    counted = {id(s) for s in made}
    assert [s for s in results if id(s) not in counted] == []
    assert all(type(s.re) is Fraction and type(s.im) is Fraction for s in made)
