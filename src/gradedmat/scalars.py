"""Exact scalar arithmetic over the Gaussian rationals: the value type of
views and report text, and of the tests' reference implementations.  No
computation of the package builds a ``Scalar``; it runs on integers."""
from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class Scalar:
    """A complex number a + b*i with exact rational parts, both ``Fraction``.

    Immutable.  All arithmetic is exact; there is no floating point.

    The zero scalar is a singleton: every zero result is ``ZERO`` itself,
    so ``x is ZERO`` is an exact zero test and ``bool(x)`` costs no
    arithmetic.  A zero imaginary part is likewise always the shared
    ``Fraction(0)``, which makes the real fast paths identity tests.
    """

    __slots__ = ("re", "im")

    def __new__(cls, re: Rational = 0, im: Rational = 0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        return _make(re, im)

    def __init__(self, re: Rational = 0, im: Rational = 0):
        """Both parts are set by ``__new__``, which interns zero."""

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # ---- coercion -----------------------------------------------------

    @staticmethod
    def of(x) -> "Scalar":
        if type(x) is Scalar:
            return x
        if type(x) is int:
            return _SMALL.get(x) or Scalar(x)
        if isinstance(x, (int, Fraction)):
            return Scalar(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar.of(other)
        if other is ZERO:
            return self
        if self is ZERO:
            return other
        if self.im is _F0 and other.im is _F0:
            return _make(self.re + other.re, _F0)
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = Scalar.of(other)
        if other is ZERO:
            return self
        if self is ZERO:
            return -other
        if self.im is _F0 and other.im is _F0:
            return _make(self.re - other.re, _F0)
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = Scalar.of(other)
        if self is ZERO or other is ZERO:
            return ZERO
        if other is ONE:
            return self
        if self is ONE:
            return other
        if other is _MINUS_ONE:
            return -self
        if self is _MINUS_ONE:
            return -other
        # real fast paths: nearly all values in this package are real, and
        # a real factor scales both parts of the other
        if self.im is _F0:
            r = self.re
            if other.im is _F0:
                return _make(r * other.re, _F0)
            return _make(r * other.re, r * other.im)
        if other.im is _F0:
            r = other.re
            return _make(self.re * r, self.im * r)
        return _make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = Scalar.of(other)
        if other is ZERO:
            raise ZeroDivisionError("Scalar division by zero")
        if self is ZERO:
            return ZERO
        if self.im is _F0 and other.im is _F0:
            return _make(self.re / other.re, _F0)
        n = other.re * other.re + other.im * other.im
        return _make(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def __neg__(self):
        if self is ZERO:
            return ZERO
        return _make(-self.re, _F0 if self.im is _F0 else -self.im)

    def __pos__(self):
        return self

    # ---- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        if type(other) is Scalar:
            return self is other or (self.re == other.re and self.im == other.im)
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self is not ZERO

    # ---- properties ---------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.im:
            raise ValueError(f"{self} is not real")
        return self.re

    # ---- formatting ---------------------------------------------------

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})" if self.im else f"Scalar({self.re!r})"


_F0 = Fraction(0)
_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__

ZERO = object.__new__(Scalar)
_set_re(ZERO, _F0)
_set_im(ZERO, _F0)


def _make(re: Fraction, im: Fraction) -> Scalar:
    """A Scalar from two Fractions, interning zero and a zero imaginary part."""
    if im is not _F0 and not im:
        im = _F0
    if im is _F0 and not re:
        return ZERO
    s = object.__new__(Scalar)
    _set_re(s, re)
    _set_im(s, im)
    return s


ONE = Scalar(1)
I = Scalar(0, 1)
_MINUS_ONE = Scalar(-1)
_SMALL = {1: ONE, -1: _MINUS_ONE}

