"""Canonical homogeneous bases of the supertrace-free subalgebra of M(n|m).

The supertrace-free matrices form a graded Lie subalgebra of dimension
(n+m)^2 - 1, with n' = n^2 + m^2 - 1 even and m' = 2nm odd directions.
``build_sl_basis`` fixes one deterministic basis once and for all; every
structure constant, form coefficient and chain-complex matrix in the
package is written in it.  Indices are 0-based throughout: even elements
come first (0..n'-1), odd elements after (n'..n'+m'-1).

Ordering convention (documented contract, do not reorder):

  even part
    1. off-diagonal units e_ij of the first diagonal block, (i, j)
       lexicographic;
    2. first-block Cartan differences e_ii - e_(i+1)(i+1), i = 0..n-2;
    3. for m >= 1 the bridge element  m * (sum of first-block diagonal)
       + n * (sum of second-block diagonal), the unique supertrace-free
       diagonal direction meeting both blocks;
    4. off-diagonal units of the second diagonal block, lexicographic;
    5. second-block Cartan differences.

  odd part
    6. upper-right units e_ij (row in first block, column in second),
       (i, j) lexicographic;
    7. lower-left units, (i, j) lexicographic.

For (n|m) = (2|1) this yields the eight elements

  e01, e10, e00 - e11, e00 + e11 + 2 e22, e02, e12, e20, e21

in that order.

``body_adapted_basis`` permutes the even part so that the first
max(n,m)^2 - 1 elements span the copy of the traceless body block; for
n > m that is already the canonical order.
"""
from __future__ import annotations

from functools import cached_property
from typing import List, Tuple

from . import linalg
from .matrices import GradedMatrix


class HomogeneousBasis:
    """An ordered homogeneous basis of the supertrace-free subalgebra.

    Immutable; bases are equal when their (n|m), elements and parities are.
    """

    def __init__(self, n: int, m: int, elements: Tuple[GradedMatrix, ...],
                 parities: Tuple[int, ...]):
        # the fields go straight into the instance dict, past __setattr__
        self.__dict__.update(n=n, m=m, elements=elements, parities=parities)

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousBasis is immutable")

    def _key(self):
        return (self.n, self.m, self.elements, self.parities)

    def __eq__(self, other):
        if type(other) is not HomogeneousBasis:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def even_dim(self) -> int:
        return self.n * self.n + self.m * self.m - 1

    @property
    def odd_dim(self) -> int:
        return 2 * self.n * self.m

    def parity(self, a: int) -> int:
        return self.parities[a]

    def validate(self) -> None:
        n, m = self.n, self.m
        if self.dim != (n + m) ** 2 - 1:
            raise ValueError("wrong number of basis elements")
        if list(self.parities) != [0] * self.even_dim + [1] * self.odd_dim:
            raise ValueError("parities must list all even elements first")
        for e, p in zip(self.elements, self.parities):
            if any(e.diagonal_sum(signed=True)):
                raise ValueError("basis element has nonzero supertrace")
            hp = e.homogeneous_parity()
            if hp is None or hp != p or e.is_zero():
                raise ValueError("basis element not homogeneous of declared parity")
        if linalg.factor([e.ints for e in self.elements]).rank != self.dim:
            raise ValueError("basis elements are linearly dependent")

    @cached_property
    def _expansion_inverse(self) -> Tuple[List[List[Tuple[int, int, int]]], int]:
        """The inverse of the matrix whose columns are the flattened elements
        and the identity, column u (a matrix unit) as sparse (element, 0,
        numerator) entries over one denominator.  For the canonical basis
        the column of an off-diagonal unit is its one element, and only the
        diagonal units reach the diagonal elements and the identity."""
        columns = [e.ints for e in self.elements]
        columns.append(GradedMatrix.identity(self.n, self.m).ints)
        if any(part for col in columns for _, part, _ in col):
            raise ValueError("basis elements must be real")
        scales = [e.den for e in self.elements] + [1]
        inv, den = linalg.inverse(columns)
        return [[(a, 0, y * scales[a]) for a, _, y in col] for col in inv], den

    def expand(self, mat: GradedMatrix) -> Tuple[List[int], int, int]:
        """(coeffs, u, den) with  mat = (sum_A coeffs[A] E_A + u * identity) / den,
        for a real ``mat``, in integers."""
        if (mat.n, mat.m) != (self.n, self.m):
            raise ValueError("shape mismatch in basis expansion")
        inv, den = self._expansion_inverse
        coeffs = [0] * (self.dim + 1)
        for u, part, y in mat.ints:
            if part:
                raise ValueError("basis expansion of a matrix with imaginary entries")
            for a, _, x in inv[u]:
                coeffs[a] += x * y
        return coeffs[:-1], coeffs[-1], den * mat.den


def _diagonal(n: int, m: int, values) -> GradedMatrix:
    return GradedMatrix(n, m, ((i, i, v) for i, v in enumerate(values)))


def _even_block_groups(n: int, m: int):
    """The five even ordering groups, as lists of matrices."""
    off1 = [
        GradedMatrix.unit(n, m, i, j)
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    cart1 = [
        _diagonal(n, m, [1 if t == i else (-1 if t == i + 1 else 0) for t in range(n + m)])
        for i in range(n - 1)
    ]
    bridge = []
    if m >= 1:
        bridge.append(_diagonal(n, m, [m] * n + [n] * m))
    off2 = [
        GradedMatrix.unit(n, m, n + i, n + j)
        for i in range(m)
        for j in range(m)
        if i != j
    ]
    cart2 = [
        _diagonal(
            n, m, [0] * n + [1 if t == i else (-1 if t == i + 1 else 0) for t in range(m)]
        )
        for i in range(m - 1)
    ]
    return off1, cart1, bridge, off2, cart2


def _odd_elements(n: int, m: int) -> List[GradedMatrix]:
    upper = [GradedMatrix.unit(n, m, i, n + j) for i in range(n) for j in range(m)]
    lower = [GradedMatrix.unit(n, m, n + j, i) for j in range(m) for i in range(n)]
    return upper + lower


def _assembled(n: int, m: int, second_block_first: bool) -> HomogeneousBasis:
    """The validated basis: the even groups in the documented order, or with
    the second diagonal block's groups ahead of the first's when
    ``second_block_first``, then the odd elements."""
    off1, cart1, bridge, off2, cart2 = _even_block_groups(n, m)
    if second_block_first:
        even = off2 + cart2 + bridge + off1 + cart1
    else:
        even = off1 + cart1 + bridge + off2 + cart2
    odd = _odd_elements(n, m)
    basis = HomogeneousBasis(
        n, m, tuple(even + odd), tuple([0] * len(even) + [1] * len(odd))
    )
    basis.validate()
    return basis


def build_sl_basis(n: int, m: int) -> HomogeneousBasis:
    """The canonical basis in the ordering documented at module level."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if n == m:
        raise ValueError(
            "n == m is not supported: the bridge direction degenerates and "
            "the quadratic pairing is singular"
        )
    return _assembled(n, m, second_block_first=False)


def body_adapted_basis(n: int, m: int) -> HomogeneousBasis:
    """Canonical basis reordered so the body copy comes first.

    The first max(n,m)^2 - 1 elements are supported on the body block and
    restrict there to the canonical basis of the traceless matrices; the
    remaining even elements span the bridge and the small block.  For
    n > m this coincides with ``build_sl_basis``.
    """
    if n == m:
        raise ValueError("body is undefined for n == m")
    return _assembled(n, m, second_block_first=n < m)
