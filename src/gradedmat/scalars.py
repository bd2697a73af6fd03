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
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # ---- coercion -----------------------------------------------------

    @staticmethod
    def of(x) -> "Scalar":
        if type(x) is Scalar:
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = Scalar.of(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar.of(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        other = Scalar.of(other)
        return Scalar(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.of(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("Scalar division by zero")
        return Scalar((self.re * other.re + self.im * other.im) / n,
                      (self.im * other.re - self.re * other.im) / n)

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __pos__(self):
        return self

    # ---- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

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


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
