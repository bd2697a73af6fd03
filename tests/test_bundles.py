import random
from fractions import Fraction

import pytest

from gradedmat.bundles import (
    Connection,
    conjugated_rho,
    connection_form_from_rho,
    flat_curvature_coefficients,
    fm_is_zero,
    fm_wedge,
    graded_inverse,
    identity_form_matrix,
    is_graded_free,
    rank_one_connection,
    rho_is_flat,
    rho_map_injective,
)
from gradedmat.forms import (
    GradedForm,
    canonical_one_form,
    exterior_derivative,
    wedge,
    wedge_matrix_form,
)
from gradedmat.matrices import GradedMatrix
from gradedmat.scalars import Scalar
from gradedmat.sampling import (
    random_even_invertible,
    random_form,
    random_homogeneous_matrix,
)
from tests.helpers import brute_force_free, idempotent_cover_connection
from tests.reference import connection_difference_is_corner, curvature_from_coefficients


def test_graded_freeness_matches_brute_force():
    for r in range(11):
        for s in range(11):
            assert is_graded_free(2, 1, r, s) == brute_force_free(2, 1, r, s)
    assert is_graded_free(2, 1, 5, 4) == (2, 1)
    assert is_graded_free(2, 1, 1, 1) is None
    assert is_graded_free(2, 1, 3, 3) == (1, 1)
    assert is_graded_free(3, 1, 7, 5) == (2, 1)
    with pytest.raises(ValueError):
        is_graded_free(2, 2, 4, 4)


def test_connection_validation(sc21):
    z1 = GradedForm.zero(sc21, 1)
    # degree mismatches in either matrix
    with pytest.raises(ValueError):
        Connection(sc21, 1, 0, [[z1]], [[z1]])
    with pytest.raises(ValueError):
        Connection(
            sc21, 1, 0,
            [[GradedForm.from_matrix(sc21, GradedMatrix.identity(2, 1))]],
            [[GradedForm.zero(sc21, 2)]],
        )
    # non-idempotent projection
    two = GradedForm.from_matrix(sc21, GradedMatrix.identity(2, 1).scale(2))
    with pytest.raises(ValueError):
        Connection(sc21, 1, 0, [[two]], [[z1]])
    # connection form sticking out of the corner
    z0 = GradedForm.zero(sc21, 0)
    one = GradedForm.from_matrix(sc21, GradedMatrix.identity(2, 1))
    proj = [[one, z0], [z0, z0]]
    th = canonical_one_form(sc21)
    with pytest.raises(ValueError):
        Connection(sc21, 2, 0, proj, [[z1, z1], [z1, th]])
    Connection(sc21, 2, 0, proj, [[th, z1], [z1, z1]])
    # even 1-form in an off-diagonal slot breaks the parity pattern
    with pytest.raises(ValueError):
        Connection.free(sc21, 1, 1, [[z1, th], [z1, z1]])


def test_canonical_connection_is_flat(sc21):
    conn = rank_one_connection(sc21, canonical_one_form(sc21))
    assert fm_is_zero(conn.curvature())
    assert conn.bianchi_holds()


def test_doubled_connection_is_not_flat(sc21):
    conn = rank_one_connection(sc21, canonical_one_form(sc21).scale(2))
    assert not fm_is_zero(conn.curvature())
    assert conn.bianchi_holds()
    # same thing through the coefficient route: alpha = Theta - (-E) theta
    rho = [e.scale(-1) for e in sc21.basis.elements]
    assert connection_form_from_rho(sc21, rho) == (
        canonical_one_form(sc21).scale(2)
    )
    om = flat_curvature_coefficients(sc21, rho)
    assert sum(1 for row in om for mat in row if not mat.is_zero()) == 38
    assert not rho_is_flat(sc21, rho)
    assert curvature_from_coefficients(sc21, om) == conn.curvature()[0][0]


def test_coefficient_route_matches_direct_curvature(sc21):
    rng = random.Random(73)
    zero = GradedMatrix.zero(2, 1)
    families = [
        [zero] * sc21.dim,
        list(sc21.basis.elements),
        [
            random_homogeneous_matrix(rng, 2, 1, sc21.parity(a))
            for a in range(sc21.dim)
        ],
    ]
    for rho in families:
        conn = rank_one_connection(sc21, connection_form_from_rho(sc21, rho))
        om = flat_curvature_coefficients(sc21, rho)
        assert curvature_from_coefficients(sc21, om) == conn.curvature()[0][0]
        assert rho_is_flat(sc21, rho) == fm_is_zero(conn.curvature())
        assert conn.bianchi_holds()


def test_flat_coefficients_reject_wrong_parity(sc21):
    rho = [GradedMatrix.zero(2, 1)] * sc21.dim
    rho[5] = sc21.basis.elements[0]   # even matrix in an odd slot
    with pytest.raises(ValueError):
        flat_curvature_coefficients(sc21, rho)
    with pytest.raises(ValueError):
        flat_curvature_coefficients(sc21, rho[:4])


def test_conjugated_families_are_flat(sc21):
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        g = random_even_invertible(rng, 2, 1)
        rho = conjugated_rho(sc21, g)
        assert rho_is_flat(sc21, rho)
        assert rho_map_injective(sc21, rho)
        conn = rank_one_connection(
            sc21, connection_form_from_rho(sc21, rho)
        )
        assert fm_is_zero(conn.curvature())
        assert conn.bianchi_holds()
    # identity conjugation gives rho_A = E_A and alpha = 0
    rho = conjugated_rho(sc21, GradedMatrix.identity(2, 1))
    assert connection_form_from_rho(sc21, rho).is_zero()
    with pytest.raises(ValueError):
        conjugated_rho(sc21, random_homogeneous_matrix(random.Random(0), 2, 1, 1))


def test_graded_inverse(sc21):
    rng = random.Random(79)
    g = random_even_invertible(rng, 2, 1)
    assert g @ graded_inverse(g) == GradedMatrix.identity(2, 1)
    # complex even invertible matrices, and the same over a denominator
    for n, m in ((2, 1), (1, 2), (3, 1), (2, 0)):
        ident = GradedMatrix.identity(n, m)
        complex_seen = 0
        for seed in range(8):
            g = random_even_invertible(random.Random(seed), n, m)
            complex_seen += any(part for _, part, _ in g.ints)
            for mat in (g, g.scale(Scalar(Fraction(2, 3), Fraction(-1, 5)))):
                inv = graded_inverse(mat)
                assert mat @ inv == ident
                assert inv @ mat == ident
        assert complex_seen
        singular = GradedMatrix(n, m, [(0, 0, Scalar(1, 1)), (0, 1, 2)])
        with pytest.raises(ValueError, match="singular"):
            graded_inverse(singular)


def test_idempotent_cover_connection(sc21):
    rng = random.Random(71)
    conn = idempotent_cover_connection(sc21, rng)
    assert fm_wedge(conn.idempotent, conn.idempotent) == conn.idempotent
    assert conn.idempotent != identity_form_matrix(sc21, 3)
    curv = conn.curvature()
    assert not fm_is_zero(curv)
    assert conn.bianchi_holds()
    # nabla^2 is right-multiplication by the curvature matrix
    y0 = [random_form(rng, sc21, 0, terms=1) for _ in range(3)]
    (y,) = fm_wedge([y0], conn.idempotent)
    n1 = conn.covariant_derivative(y)
    n2 = conn.covariant_derivative(n1)
    assert [n2] == fm_wedge([y], curv)
    # and is module-linear, while nabla itself obeys the Leibniz rule
    mat = random_homogeneous_matrix(rng, 2, 1, 0)
    my = [wedge_matrix_form(mat, f) for f in y]
    dmat = exterior_derivative(sc21, GradedForm.from_matrix(sc21, mat))
    assert conn.covariant_derivative(my) == [
        wedge(dmat, f) + wedge_matrix_form(mat, g) for f, g in zip(y, n1)
    ]
    assert conn.covariant_derivative(
        conn.covariant_derivative(my)
    ) == [wedge_matrix_form(mat, f) for f in n2]


def test_connection_difference_lives_in_the_corner(sc21):
    rng = random.Random(83)
    a = idempotent_cover_connection(sc21, rng)
    zero_alpha = [[f.scale(0) for f in row] for row in a.alpha]
    b = Connection(sc21, 2, 1, a.idempotent, zero_alpha)
    assert connection_difference_is_corner(a, b)
    free = Connection.free(sc21, 2, 1)
    with pytest.raises(ValueError):
        connection_difference_is_corner(a, free)
