import random
from fractions import Fraction

import pytest

from gradedmat.basis import (
    HomogeneousBasis,
    body_adapted_basis,
    build_sl_basis,
)
from gradedmat.matrices import GradedMatrix
from gradedmat.scalars import Scalar
from tests.reference import adjoint_action, derivation_dimension


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (1, 2), (2, 0), (3, 0)])
def test_build_sl_basis_validates(n, m):
    basis = build_sl_basis(n, m)
    basis.validate()
    assert basis.dim == (n + m) ** 2 - 1
    assert basis.even_dim == n * n + m * m - 1
    assert basis.odd_dim == 2 * n * m
    # even elements first, then odd, per the ordering contract
    assert list(basis.parities) == [0] * basis.even_dim + [1] * basis.odd_dim


def test_expand_round_trip():
    basis = build_sl_basis(2, 1)
    for a, e in enumerate(basis.elements):
        coords, ident, den = basis.expand(e)
        assert ident == 0
        assert [Fraction(c, den) for c in coords] == [int(i == a) for i in range(basis.dim)]
    coords, ident, den = basis.expand(GradedMatrix.identity(2, 1))
    assert Fraction(ident, den) == 1
    assert not any(coords)


@pytest.mark.parametrize("n,m", [(2, 1), (1, 2), (3, 1), (2, 0)])
def test_expand_rebuilds_random_real_matrices(n, m):
    basis = build_sl_basis(n, m)
    rng = random.Random(41)
    ident = GradedMatrix.identity(n, m)
    for _ in range(10):
        k = n + m
        mat = GradedMatrix(n, m, [(i, j, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                                  for i in range(k) for j in range(k)])
        coords, unit, den = basis.expand(mat)
        rebuilt = ident.scale(Fraction(unit, den))
        for e, c in zip(basis.elements, coords):
            rebuilt = rebuilt + e.scale(Fraction(c, den))
        assert rebuilt == mat
    with pytest.raises(ValueError, match="imaginary"):
        basis.expand(GradedMatrix.unit(n, m, 0, 0, Scalar(0, 1)))


def test_expand_reads_a_basis_that_mixes_units():
    # e01 + e10 and e01 - e10 share their two positions, and the Cartan
    # element is halved: an element over a denominator
    std = build_sl_basis(2, 1)
    e01, e10, h = std.elements[:3]
    elements = (e01 + e10, e01 - e10, h.scale(Fraction(1, 2))) + std.elements[3:]
    mixed = HomogeneousBasis(2, 1, elements, std.parities)
    mixed.validate()
    coords, unit, den = mixed.expand(e01.scale(3) + h)
    assert [Fraction(c, den) for c in coords[:3]] == [Fraction(3, 2), Fraction(3, 2), 2]
    assert unit == 0 and not any(coords[3:])


def test_derivation_dimension_counts():
    n_even, m_odd = derivation_dimension(build_sl_basis(2, 1))
    assert (n_even, m_odd) == (4, 4)
    n_even, m_odd = derivation_dimension(build_sl_basis(3, 1))
    assert (n_even, m_odd) == (9, 6)


def test_adjoint_action_is_bracket_with_element():
    basis = build_sl_basis(2, 1)
    e, f = basis.elements[0], basis.elements[5]
    # e is even, so the graded bracket is the plain commutator
    assert adjoint_action(e, f) == e @ f - f @ e


def test_body_adapted_basis_orders_dominant_block_first():
    adapted = body_adapted_basis(1, 2)
    adapted.validate()
    blk = 2 * 2 - 1  # dominant block is the 2x2 one
    for a in range(blk):
        e = adapted.elements[a]
        # supported entirely inside the lower-right block
        for i in range(3):
            for j in range(3):
                if i == 0 or j == 0:
                    assert e[i, j] == Scalar(0)


def test_body_adapted_is_plain_order_when_first_block_dominates():
    plain = build_sl_basis(2, 1)
    adapted = body_adapted_basis(2, 1)
    assert adapted.elements == plain.elements
