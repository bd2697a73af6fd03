"""Graded vector bundles: modules, connections, curvature, flatness.

Graded bundles over the algebra are the column modules M(n|m; r|s); a
bundle is graded-free exactly when  p n + q m = r  and  p m + q n = s
has a nonnegative integer solution.  Working over a free cover V^(p|q),
a connection is an even idempotent P together with a matrix alpha of
1-forms obeying alpha = P ^ alpha ^ P; its extension acts on row vectors
y of forms (with y ^ P = y) as

    nabla(y) = dy ^ P + (-1)^deg  y ^ alpha,

and the curvature matrix is

    R = -alpha^alpha + P^(d alpha)^P - P^(dP)^(dP)

which the tests tie to the double-application route entry by entry.
A row y is a 1 x k matrix of forms, so one product (``fm_wedge``, of any
(r x k) and (k x c) shapes) and one entry-wise d (``fm_d``) serve rows and
matrices alike.  Every d here runs the kernel route
(``exterior_derivative_generators``).
Matrices over the form bimodule are graded by declaring even those with
even diagonal-block entries and odd off-diagonal-block entries.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from . import linalg
from .constants import StructureConstants
from .forms import GradedForm, canonical_one_form, exterior_derivative_generators, wedge
from .matrices import GradedMatrix, combined, graded_commutator

FormMatrix = List[List[GradedForm]]
FormRow = List[GradedForm]


# ======================================================================
# Freeness
# ======================================================================


def is_graded_free(n: int, m: int, r: int, s: int) -> Optional[Tuple[int, int]]:
    """The unique (p, q) with pn+qm = r, pm+qn = s, if one exists.

    The 2x2 system has determinant n^2 - m^2, nonzero for n != m, so a
    solution is unique; it must be a pair of nonnegative integers.
    """
    if n == m:
        raise ValueError("freeness test needs n != m")
    det = n * n - m * m
    pnum = r * n - s * m
    qnum = s * n - r * m
    if pnum % det or qnum % det:
        return None
    p, q = pnum // det, qnum // det
    if p < 0 or q < 0:
        return None
    return (p, q)


# ======================================================================
# Matrices of forms
# ======================================================================


def zero_form_matrix(sc: StructureConstants, size: int, degree: int) -> FormMatrix:
    return [[GradedForm.zero(sc, degree) for _ in range(size)] for _ in range(size)]


def identity_form_matrix(sc: StructureConstants, size: int) -> FormMatrix:
    out = zero_form_matrix(sc, size, 0)
    one = GradedForm.from_matrix(sc, GradedMatrix.identity(sc.n, sc.m))
    for i in range(size):
        out[i][i] = one
    return out


def fm_sub(a: FormMatrix, b: FormMatrix) -> FormMatrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def fm_is_zero(a: FormMatrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def fm_wedge(a: FormMatrix, b: FormMatrix) -> FormMatrix:
    """The product a ^ b of an (r x k) and a (k x c) matrix of forms."""
    out: FormMatrix = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = None
            for x, b_row in zip(row, b):
                term = wedge(x, b_row[j])
                acc = term if acc is None else acc + term
            out_row.append(acc)
        out.append(out_row)
    return out


def fm_d(sc: StructureConstants, a: FormMatrix) -> FormMatrix:
    return [[exterior_derivative_generators(sc, x) for x in row] for row in a]


def fm_parity_pattern_ok(a: FormMatrix, p: int) -> bool:
    """Whether the matrix is even.

    Entry (A,B) of an even matrix must be an even form when A and B fall
    in the same generator block (both < p or both >= p) and odd across
    blocks.
    """
    for i, row in enumerate(a):
        for j, f in enumerate(row):
            if f.is_zero():
                continue
            want = 0 if (i < p) == (j < p) else 1
            if f.homogeneous_parity() != want:
                return False
    return True


# ======================================================================
# Connections
# ======================================================================


class Connection:
    """A connection on the image of an even idempotent over a free cover."""

    def __init__(self, sc: StructureConstants, p: int, q: int,
                 idempotent: FormMatrix, alpha: FormMatrix):
        size = p + q
        if len(idempotent) != size or len(alpha) != size:
            raise ValueError("matrix sizes do not match p + q")
        if any(f.degree != 0 for row in idempotent for f in row):
            raise ValueError("idempotent entries must be 0-forms")
        if any(f.degree != 1 for row in alpha for f in row):
            raise ValueError("connection-form entries must be 1-forms")
        if not fm_parity_pattern_ok(idempotent, p):
            raise ValueError("idempotent is not even")
        if not fm_parity_pattern_ok(alpha, p):
            raise ValueError("connection-form matrix is not even")
        if fm_wedge(idempotent, idempotent) != idempotent:
            raise ValueError("projection matrix is not idempotent")
        squeezed = fm_wedge(fm_wedge(idempotent, alpha), idempotent)
        if squeezed != alpha:
            raise ValueError("connection form must satisfy alpha = P^alpha^P")
        self.sc = sc
        self.p = p
        self.q = q
        self.idempotent = idempotent
        self.alpha = alpha

    @staticmethod
    def free(sc: StructureConstants, p: int, q: int,
             alpha: Optional[FormMatrix] = None) -> "Connection":
        """Connection on the graded-free bundle itself (P = identity)."""
        size = p + q
        if alpha is None:
            alpha = [[GradedForm.zero(sc, 1) for _ in range(size)]
                     for _ in range(size)]
        return Connection(sc, p, q, identity_form_matrix(sc, size), alpha)

    def covariant_derivative(self, y: FormRow) -> FormRow:
        """nabla on a row of forms representing an element of Omega(V)."""
        deg = y[0].degree
        sign = -1 if deg % 2 else 1
        (first,) = fm_wedge(fm_d(self.sc, [y]), self.idempotent)
        (second,) = fm_wedge([y], self.alpha)
        return [a + b.scale(sign) for a, b in zip(first, second)]

    def curvature(self) -> FormMatrix:
        """The curvature matrix from connection and projection forms."""
        sc = self.sc
        al, pm = self.alpha, self.idempotent
        da = fm_d(sc, al)
        dp = fm_d(sc, pm)
        out = fm_sub(
            fm_wedge(fm_wedge(pm, da), pm),
            fm_wedge(fm_wedge(pm, dp), dp),
        )
        return fm_sub(out, fm_wedge(al, al))

    def bianchi_holds(self) -> bool:
        """P^(dR)^P = alpha^R - R^alpha, exactly."""
        sc = self.sc
        r = self.curvature()
        lhs = fm_wedge(fm_wedge(self.idempotent, fm_d(sc, r)), self.idempotent)
        rhs = fm_sub(fm_wedge(self.alpha, r), fm_wedge(r, self.alpha))
        return fm_is_zero(fm_sub(lhs, rhs))


# ======================================================================
# Flat connections on the rank-one free bundle
# ======================================================================


def flat_curvature_coefficients(
    sc: StructureConstants, rho: Sequence[GradedMatrix]
) -> List[List[GradedMatrix]]:
    """Coefficients Omega_AB of the curvature of alpha = Theta - rho.

    Omega_AB = [rho_B, rho_A]_g - sum_C c_BA^C rho_C; the connection is
    flat exactly when every entry vanishes, which is the statement that
    A -> rho_A preserves brackets.
    """
    k = sc.dim
    if len(rho) != k:
        raise ValueError("need one coefficient per basis derivation")
    for a, mat in enumerate(rho):
        par = mat.homogeneous_parity()
        if not mat.is_zero() and par != sc.parity(a):
            raise ValueError(
                f"coefficient {a} must be {'odd' if sc.parity(a) else 'even'}"
            )
    # over the constants' denominator: den [rho_B, rho_A] - sum_C c_BA^C rho_C
    return [[GradedMatrix.from_ints(sc.n, sc.m, *combined(
        [(graded_commutator(rho[b], rho[a]), sc.den, 0)]
        + [(rho[cc], -v, 0) for cc, v in sc.c.get((b, a), {}).items()], sc.den))
        for b in range(k)] for a in range(k)]


def rho_is_flat(sc: StructureConstants, rho: Sequence[GradedMatrix]) -> bool:
    return all(
        mat.is_zero() for row in flat_curvature_coefficients(sc, rho) for mat in row
    )


def rho_one_form(sc: StructureConstants, rho: Sequence[GradedMatrix]) -> GradedForm:
    """sum_A rho_A ^ theta^A as a single 1-form."""
    return GradedForm.of(
        sc, 1, {(a,): rho[a] for a in range(sc.dim) if not rho[a].is_zero()}
    )


def connection_form_from_rho(
    sc: StructureConstants, rho: Sequence[GradedMatrix]
) -> GradedForm:
    """alpha = Theta - sum rho_A ^ theta^A on the rank-one free bundle."""
    return canonical_one_form(sc) - rho_one_form(sc, rho)


def rank_one_connection(sc: StructureConstants, alpha: GradedForm) -> Connection:
    """The V^(1|0) connection with a single connection form."""
    return Connection.free(sc, 1, 0, [[alpha]])


def graded_inverse(mat: GradedMatrix) -> GradedMatrix:
    """mat^-1; ValueError when ``mat`` is singular.  For mat = N / den,
    the inverse is den N^-1, and N^-1 comes column by column from one
    fraction-free elimination."""
    k = mat.size
    columns: List[list] = [[] for _ in range(k)]
    for u, part, y in mat.ints:
        columns[u % k].append((u // k, part, y))
    inv, den = linalg.inverse(columns)
    entries = sorted((i * k + j, part, mat.den * y)
                     for j, col in enumerate(inv) for i, part, y in col)
    return GradedMatrix.from_ints(mat.n, mat.m, entries, den)


def conjugated_rho(
    sc: StructureConstants, g: GradedMatrix
) -> List[GradedMatrix]:
    """rho_A = g E_A g^(-1): the inner-automorphism family, always flat."""
    if g.homogeneous_parity() != 0:
        raise ValueError("conjugating matrix must be even")
    ginv = graded_inverse(g)
    return [g @ e @ ginv for e in sc.basis.elements]


def rho_map_injective(sc: StructureConstants, rho: Sequence[GradedMatrix]) -> bool:
    """Whether E_A -> rho_A extends to an injective map on the traceless part."""
    return linalg.factor([mat.ints for mat in rho]).rank == len(rho)
