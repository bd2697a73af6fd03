"""Cohomology of the graded form complex and its classical body.

The exterior derivative turns the form spaces into a cochain complex; its
cohomology is computed through exact ranks.  For cross-validation the
module carries a small self-contained Chevalley-Eilenberg solver for
ordinary Lie algebras (own elimination code on purpose, so the comparison
does not share a line of linear algebra with the main path), plus the
body maps that relate the graded complex at (n|m) to the classical one
of the dominant diagonal block.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import linalg
from .basis import body_adapted_basis
from .constants import StructureConstants, compute_constants
from .forms import DerivationVector, GradedForm
from .formspace import (
    Label, LinearMapMatrix, basis_form, d_matrix, form_basis_labels,
    form_to_sparse,
)
from .indexset import index_count
from .matrices import GradedMatrix, body, embed_body
from .scalars import Scalar

DEFAULT_DEGREE_CAP = 4

# Largest rows x columns of one differential, estimated before it is built.
DIFFERENTIAL_ENTRIES_CAP = 2**32

# Largest n + m the CLI admits: `verify` takes about 35 s at (4|1) and grows
# about 3.5x per unit of n; the constants alone at (40|1) take about an hour.
MATRIX_SIZE_CAP = 8


class DegreeCapExceeded(Exception):
    """Raised when a computation would build forms above the degree cap."""


class DifferentialTooLarge(Exception):
    """Raised when d_p would have more entries than the cap allows."""


def differential_entries(sc: StructureConstants, p: int) -> int:
    """Rows x columns of d_p, from the label counts alone."""
    units = (sc.n + sc.m) ** 2
    rows = index_count(sc.even_dim, sc.odd_dim, p + 1) * units
    cols = index_count(sc.even_dim, sc.odd_dim, p) * units
    return rows * cols


@dataclass
class ChainDegreeData:
    """One degree of the complex: labels of the p-form basis and d_p."""

    p: int
    labels: List[Label]
    matrix: LinearMapMatrix

    @property
    def dim(self) -> int:
        return len(self.labels)

    def rank(self) -> int:
        return self.matrix.rank()

    def kernel_dim(self) -> int:
        return self.dim - self.matrix.rank()


def differential_matrix(
    sc: StructureConstants, p: int, max_degree: int = DEFAULT_DEGREE_CAP
) -> ChainDegreeData:
    """The matrix of d_p: degree p to degree p+1, in the label bases.

    Written by the sparse column kernel ``formspace.d_matrix``, built once
    per constants object and kept in ``sc.cache``.  Refused up front when
    it would have more than ``DIFFERENTIAL_ENTRIES_CAP`` entries.
    """
    if p < 0:
        raise ValueError("degree must be nonnegative")
    if p + 1 > max_degree:
        raise DegreeCapExceeded(
            f"d at degree {p} needs degree-{p + 1} forms, cap is {max_degree}"
        )
    need = differential_entries(sc, p)
    if need > DIFFERENTIAL_ENTRIES_CAP:
        raise DifferentialTooLarge(
            f"d at degree {p} has {need} entries (rows x columns), "
            f"cap is {DIFFERENTIAL_ENTRIES_CAP}"
        )
    key = ("differential", p)
    got = sc.cache.get(key)
    if got is None:
        mat = d_matrix(sc, p)
        got = ChainDegreeData(p, list(mat.in_labels), mat)
        sc.cache[key] = got
    return got


def betti_numbers(
    sc: StructureConstants, max_p: int, max_degree: int = DEFAULT_DEGREE_CAP
) -> List[int]:
    """b_p = dim ker d_p - rank d_(p-1) for p = 0..max_p, exact."""
    out = []
    prev_rank = 0
    for p in range(max_p + 1):
        data = differential_matrix(sc, p, max_degree=max_degree)
        out.append(data.kernel_dim() - prev_rank)
        prev_rank = data.rank()
    return out


# ======================================================================
# Chevalley-Eilenberg oracle for ordinary Lie algebras
# ======================================================================
#
# Deliberately self-contained: dense Fraction elimination and its own
# structure-constant extraction, so agreement with betti_numbers is a real
# cross-check and not a tautology.


def _dense_rank(rows: List[List[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = 1 / pr[col]
        rows[rank] = pr = [x * inv for x in pr]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _dense_solve(mat: List[List[Fraction]], rhs: List[Fraction]) -> List[Fraction]:
    nr = len(mat)
    nc = len(mat[0])
    aug = [list(mat[i]) + [rhs[i]] for i in range(nr)]
    pivots = []
    rank = 0
    for col in range(nc):
        piv = None
        for i in range(rank, nr):
            if aug[i][col]:
                piv = i
                break
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        pr = aug[rank]
        inv = 1 / pr[col]
        aug[rank] = pr = [x * inv for x in pr]
        for i in range(nr):
            if i != rank and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], pr)]
        pivots.append(col)
        rank += 1
    for i in range(rank, nr):
        if aug[i][nc]:
            raise ValueError("inconsistent system")
    if rank < nc:
        raise ValueError("underdetermined system")
    out = [Fraction(0)] * nc
    for i, col in enumerate(pivots):
        out[col] = aug[i][nc]
    return out


def _ordinary_constants(basis: Sequence[Sequence[Sequence]]) -> List[List[List[Fraction]]]:
    mats = [
        [[Fraction(x) for x in row] for row in m] for m in basis
    ]
    k = len(mats)
    size = len(mats[0])
    cols = [[m[i][j] for m in mats] for i in range(size) for j in range(size)]
    f = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            comm = [
                [
                    sum(mats[a][i][t] * mats[b][t][j] - mats[b][i][t] * mats[a][t][j]
                        for t in range(size))
                    for j in range(size)
                ]
                for i in range(size)
            ]
            rhs = [comm[i][j] for i in range(size) for j in range(size)]
            f[a][b] = _dense_solve(cols, rhs)
    return f


def ce_oracle(basis: Sequence[Sequence[Sequence]], max_p: int) -> List[int]:
    """Betti numbers of an ordinary Lie algebra, trivial coefficients.

    ``basis`` is a list of square matrices (nested sequences of rationals)
    spanning the algebra; the standard alternating-form complex is built
    from the extracted structure constants and ranked densely.
    """
    f = _ordinary_constants(basis)
    k = len(f)

    def subsets(p):
        return list(itertools.combinations(range(k), p))

    def d_matrix(p):
        dom = subsets(p)
        cod = subsets(p + 1)
        idx = {s: i for i, s in enumerate(dom)}
        rows = [[Fraction(0)] * len(dom) for _ in cod]
        for r, big in enumerate(cod):
            for i in range(p + 1):
                for j in range(i + 1, p + 1):
                    rest = tuple(
                        big[t] for t in range(p + 1) if t != i and t != j
                    )
                    sign = (-1) ** (i + j)
                    for cc, val in enumerate(f[big[i]][big[j]]):
                        if not val or cc in rest:
                            continue
                        merged = sorted(rest + (cc,))
                        pos = merged.index(cc)
                        rows[r][idx[tuple(merged)]] += sign * val * (-1) ** pos
        return rows

    out = []
    prev_rank = 0
    for p in range(max_p + 1):
        dim = len(subsets(p))
        rk = _dense_rank(d_matrix(p)) if p < k else 0
        out.append(dim - rk - prev_rank)
        prev_rank = rk
    return out


def ordinary_sl_basis(k: int) -> List[List[List[Fraction]]]:
    """Basis of sl(k) as plain rational matrices, for the oracle."""
    out = []
    for i in range(k):
        for j in range(k):
            if i != j:
                m = [[Fraction(0)] * k for _ in range(k)]
                m[i][j] = Fraction(1)
                out.append(m)
    for i in range(k - 1):
        m = [[Fraction(0)] * k for _ in range(k)]
        m[i][i] = Fraction(1)
        m[i + 1][i + 1] = Fraction(-1)
        out.append(m)
    return out


def ordinary_abelian_basis(d: int) -> List[List[List[Fraction]]]:
    """d commuting independent diagonal matrices: an abelian algebra."""
    out = []
    for i in range(d):
        m = [[Fraction(0)] * d for _ in range(d)]
        m[i][i] = Fraction(1)
        out.append(m)
    return out


def ordinary_direct_sum(
    b1: Sequence[Sequence[Sequence]], b2: Sequence[Sequence[Sequence]]
) -> List[List[List[Fraction]]]:
    s1 = len(b1[0])
    s2 = len(b2[0])
    size = s1 + s2
    out = []
    for m in b1:
        big = [[Fraction(0)] * size for _ in range(size)]
        for i in range(s1):
            for j in range(s1):
                big[i][j] = Fraction(m[i][j])
        out.append(big)
    for m in b2:
        big = [[Fraction(0)] * size for _ in range(size)]
        for i in range(s2):
            for j in range(s2):
                big[s1 + i][s1 + j] = Fraction(m[i][j])
        out.append(big)
    return out


# ======================================================================
# Body maps
# ======================================================================


def adapted_constants_for(n: int, m: int) -> StructureConstants:
    """Constants over the body-adapted basis (dominant block listed first)."""
    return compute_constants(body_adapted_basis(n, m))


def ensure_body_adapted(sc: StructureConstants, sc_body: StructureConstants):
    """Check the basis is body-adapted; raise ValueError otherwise.

    Adapted means: the first nt^2-1 elements are supported purely in the
    dominant diagonal block and project exactly onto the body basis, and
    every other even element has central body (so its body derivation
    vanishes).  A passed check is remembered in ``sc.cache``; the entry
    holds ``sc_body`` itself, so its id cannot be reused while it lives.
    """
    key = ("body_adapted", id(sc_body))
    if sc.cache.get(key) is sc_body:
        return
    nt = max(sc.n, sc.m)
    if (sc_body.n, sc_body.m) != (nt, 0):
        raise ValueError("body constants do not match the dominant block")
    blk = nt * nt - 1
    if sc_body.dim != blk:
        raise ValueError("body basis has unexpected dimension")
    for a in range(blk):
        e = sc.basis.elements[a]
        be = body(e)
        if embed_body(be, sc.n, sc.m) != e:
            raise ValueError(f"element {a} is not purely dominant-block")
        if be.as_graded() != sc_body.basis.elements[a]:
            raise ValueError(f"element {a} does not project onto body element {a}")
    for a in range(blk, sc.even_dim):
        be = body(sc.basis.elements[a])
        lead = be.entries[0][0]
        for i in range(be.size):
            for j in range(be.size):
                want = lead if i == j else Scalar.of(0)
                if be.entries[i][j] != want:
                    raise ValueError(f"even element {a} has non-central body")
    sc.cache[key] = sc_body


def body_map_forms(
    sc: StructureConstants, sc_body: StructureConstants, form: GradedForm
) -> GradedForm:
    """Project a graded form onto the classical complex of the body.

    Coefficients survive only on index tuples lying entirely in the
    dominant-block range; each surviving matrix is replaced by its body.
    """
    ensure_body_adapted(sc, sc_body)
    blk = sc_body.dim
    coeffs: Dict[Tuple[int, ...], GradedMatrix] = {}
    for key, mat in form.coeffs.items():
        if all(i < blk for i in key):
            coeffs[key] = body(mat).as_graded()
    return GradedForm.of(sc_body, form.degree, coeffs)


def body_vector_field(
    sc: StructureConstants, sc_body: StructureConstants, d: DerivationVector
) -> DerivationVector:
    """Push an even derivation down to the body."""
    ensure_body_adapted(sc, sc_body)
    if d.homogeneous_parity() != 0 and not d.is_zero():
        raise ValueError("only even derivations descend to the body")
    blk = sc_body.dim
    return DerivationVector(sc_body.even_dim, 0, tuple(d.coords[:blk]))


def embed_vector_field(
    sc: StructureConstants, sc_body: StructureConstants, d: DerivationVector
) -> DerivationVector:
    """Lift a body derivation; right inverse to body_vector_field."""
    ensure_body_adapted(sc, sc_body)
    pad = (Scalar.of(0),) * (sc.dim - sc_body.dim)
    return DerivationVector(sc.even_dim, sc.odd_dim, tuple(d.coords) + pad)


def body_map_matrix(
    sc: StructureConstants, sc_body: StructureConstants, p: int
) -> LinearMapMatrix:
    """The body projection as a matrix between form spaces at degree p."""
    in_labels = form_basis_labels(sc, p)
    out_labels = form_basis_labels(sc_body, p)
    index = {lab: i for i, lab in enumerate(out_labels)}
    cols = []
    for lab in in_labels:
        img = body_map_forms(sc, sc_body, basis_form(sc, lab))
        cols.append(form_to_sparse(img, index))
    return LinearMapMatrix(in_labels, out_labels, cols)


# ======================================================================
# Representatives and the induced map on cohomology
# ======================================================================


def _int_row_of_fracs(vec: Sequence[Fraction]) -> linalg.SparseIntRow:
    return linalg.sparse_row_from_fractions(
        {i: x for i, x in enumerate(vec) if x}
    )


def cocycle_representatives(
    sc: StructureConstants, p: int, max_degree: int = DEFAULT_DEGREE_CAP
) -> List[List[Fraction]]:
    """Kernel vectors of d_p completing the image of d_(p-1) to ker d_p.

    Their classes form a basis of H^p; the list length equals b_p.
    """
    data = differential_matrix(sc, p, max_degree=max_degree)
    ech = linalg.SparseEchelon(data.dim)
    if p > 0:
        prev = differential_matrix(sc, p - 1, max_degree=max_degree)
        for col in prev.matrix.columns:
            ech.add_row(linalg.sparse_row_from_scalars(col))
    reps = []
    for vec in data.matrix.kernel():
        if ech.add_row(_int_row_of_fracs(vec)):
            reps.append(vec)
    return reps


def body_h_map_injective(
    sc: StructureConstants,
    sc_body: StructureConstants,
    p: int,
    max_degree: int = DEFAULT_DEGREE_CAP,
) -> bool:
    """Whether the body map is injective on H^p classes.

    Pushes a representative basis of H^p to the body complex and checks,
    by exact rank, that no nontrivial combination lands in the body
    coboundaries.
    """
    reps = cocycle_representatives(sc, p, max_degree=max_degree)
    labels = form_basis_labels(sc, p)
    bm = body_map_matrix(sc, sc_body, p)
    assert bm.in_labels == labels
    ech = linalg.SparseEchelon(bm.nrows)
    if p > 0:
        prev_body = differential_matrix(sc_body, p - 1, max_degree=max_degree)
        for col in prev_body.matrix.columns:
            ech.add_row(linalg.sparse_row_from_scalars(col))
    for vec in reps:
        img = bm.apply(
            {i: Scalar.of(x) for i, x in enumerate(vec) if x}
        )
        if not ech.add_row(linalg.sparse_row_from_scalars(img)):
            return False
    return True
