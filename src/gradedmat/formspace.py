"""Coordinates on spaces of graded forms.

A degree-p form is determined by one matrix per canonical index tuple, so
the space of p-forms has a basis labeled by pairs (index tuple, matrix
unit).  Labels are ordered index-tuple major, matrix units row major;
everything downstream (differential matrices, rank computations, kernel
bases) refers to this ordering.

A ``LinearMapMatrix`` holds integer numerators over one denominator
``den``.  The matrices of d_p and of the basis Lie derivatives are written
column by column straight from the structure constants (``d_matrix``,
``lie_matrix``): each column is summed in ints from the kernel tables of
``forms``, and those sums are kept as they are, over the table
denominator.  Form coefficients are read through their sparse triples.
``matrix_of_map`` runs any form-level map over the basis instead and puts
the images over the lcm of their denominators; with ``exterior_derivative``
and ``lie_derivative`` it is the oracle the tests hold the column kernel to.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .constants import StructureConstants
from .forms import GradedForm, _add, _d_tuple, _kernel_tables
from .indexset import canonicalize, enumerate_multi_indices, tuple_parity
from .matrices import GradedMatrix, _index_parity
from .scalars import Scalar

Label = Tuple[Tuple[int, ...], int, int]


def form_basis_labels(
    sc: StructureConstants, p: int, parity: Optional[int] = None
) -> List[Label]:
    """Basis labels of the p-form space, optionally one total parity only."""
    k = sc.n + sc.m
    out: List[Label] = []
    for key in enumerate_multi_indices(sc.even_dim, sc.odd_dim, p):
        kp = tuple_parity(key, sc.even_dim)
        for r in range(k):
            for c in range(k):
                if parity is not None:
                    mp = (_index_parity(r, sc.n) + _index_parity(c, sc.n)) % 2
                    if (kp + mp) % 2 != parity:
                        continue
                out.append((key, r, c))
    return out


def basis_form(sc: StructureConstants, label: Label) -> GradedForm:
    key, r, c = label
    return GradedForm.of(sc, len(key), {key: GradedMatrix.unit(sc.n, sc.m, r, c)})


def form_to_sparse(form: GradedForm, index: Dict[Label, int]) -> Dict[int, Scalar]:
    out: Dict[int, Scalar] = {}
    for key, mat in form.coeffs.items():
        for r, c, v in mat.nonzeros():
            out[index[(key, r, c)]] = v
    return out


def vector_to_form(
    sc: StructureConstants, p: int, vec: Sequence, labels: Sequence[Label]
) -> GradedForm:
    triples: Dict[Tuple[int, ...], list] = {}
    for x, (key, r, c) in zip(vec, labels):
        triples.setdefault(key, []).append((r, c, x))
    return GradedForm.of(sc, p, {
        key: GradedMatrix(sc.n, sc.m, got) for key, got in triples.items()
    })


@dataclass
class LinearMapMatrix:
    """A linear map between form spaces, stored column-sparse in integers.

    ``columns[j]`` is the image of input basis vector j as a sparse vector
    over the output labels, holding nonzero integer numerators over the
    common denominator ``den``.  Rank goes through fraction-free
    elimination with a multi-prime modular cross-check.
    """

    in_labels: List[Label]
    out_labels: List[Label]
    columns: List[Dict[int, int]]
    den: int = 1
    _int_rows: Optional[List[linalg.SparseIntRow]] = field(
        default=None, repr=False, compare=False
    )
    _rank: Optional[int] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_images(
        cls, in_labels: List[Label], out_labels: List[Label],
        images: Sequence[Dict[int, Scalar]],
    ) -> "LinearMapMatrix":
        """The map with the given sparse column images, over the lcm of their
        denominators; raises ValueError on a value that is not real."""
        fracs = [{i: v.as_fraction() for i, v in img.items()} for img in images]
        den = lcm(*(f.denominator for col in fracs for f in col.values()))
        columns = [{i: f.numerator * (den // f.denominator) for i, f in col.items()}
                   for col in fracs]
        return cls(in_labels, out_labels, columns, den)

    @property
    def ncols(self) -> int:
        return len(self.in_labels)

    @property
    def nrows(self) -> int:
        return len(self.out_labels)

    def int_rows(self) -> List[linalg.SparseIntRow]:
        """The matrix as integer rows with per-row content cleared."""
        if self._int_rows is None:
            rows: Dict[int, Dict[int, int]] = {}
            for j, col in enumerate(self.columns):
                for i, v in col.items():
                    rows.setdefault(i, {})[j] = v
            self._int_rows = [linalg.strip_content(rows[i]) for i in sorted(rows)]
        return self._int_rows

    def rank(self) -> int:
        if self._rank is None:
            self._rank = linalg.exact_rank(self.int_rows(), self.ncols)
        return self._rank

    def kernel(self) -> List[List[Fraction]]:
        vecs = linalg.sparse_kernel(self.int_rows(), self.ncols)
        if not linalg.verify_kernel(self.int_rows(), vecs):
            raise AssertionError("a kernel vector is not killed by the matrix")
        return vecs

    def apply(self, vec: Dict[int, Any]) -> Dict[int, Any]:
        """The image of a sparse vector of Scalars or Fractions, in their type."""
        acc: Dict[int, Any] = {}
        for j, x in vec.items():
            for i, v in self.columns[j].items():
                acc[i] = acc.get(i, 0) + x * v
        inv = Fraction(1, self.den)
        return {i: s * inv for i, s in acc.items() if s}

    def compose_is_zero(self, inner: "LinearMapMatrix") -> bool:
        """Whether self applied after ``inner`` kills every basis column."""
        for col in inner.columns:
            if self.apply(col):
                return False
        return True


def matrix_of_map(
    fn: Callable[[GradedForm], GradedForm],
    sc: StructureConstants,
    p_in: int,
    p_out: int,
    in_parity: Optional[int] = None,
) -> LinearMapMatrix:
    in_labels = form_basis_labels(sc, p_in, parity=in_parity)
    out_labels = form_basis_labels(sc, p_out)
    index = {lab: i for i, lab in enumerate(out_labels)}
    images = [form_to_sparse(fn(basis_form(sc, lab)), index) for lab in in_labels]
    return LinearMapMatrix.from_images(in_labels, out_labels, images)


def stack_maps(maps: Sequence[LinearMapMatrix]) -> LinearMapMatrix:
    """Stack maps with a shared input space into one tall matrix.

    The kernel of the stack is the joint kernel; output labels are tagged
    by block through plain offsetting and are not meaningful as labels.
    """
    first = maps[0]
    for mp in maps:
        if mp.in_labels != first.in_labels:
            raise ValueError("stacked maps must share the input space")
    den = lcm(*(mp.den for mp in maps))
    out_labels: List[Label] = []
    columns: List[Dict[int, int]] = [dict() for _ in first.in_labels]
    offset = 0
    for mp in maps:
        out_labels.extend(mp.out_labels)
        scale = den // mp.den
        for j, col in enumerate(mp.columns):
            for i, v in col.items():
                columns[j][offset + i] = v * scale
        offset += mp.nrows
    return LinearMapMatrix(list(first.in_labels), out_labels, columns, den)


# ======================================================================
# Sparse column kernel: d_p and the basis Lie derivatives
# ======================================================================
#
# d_p reads the image of E_rc theta^I off ``forms._d_tuple(sc, I)``, the
# generator route of ``forms``.  For L_a the graded Leibniz rule gives,
# with L_a theta^A = -(-1)^(|a||A|) sum_D c_(a,D)^A theta^D,
#   L_a(E_rc theta^I) = (-1)^(|a||rc|) ( -[E_rc, E_a] theta^I
#       + sum_j (-1)^(|a|(|I_1|+..+|I_j|))
#               E_rc theta^I_1 .. L_a theta^I_j .. theta^I_p ).
#
# The frame part depends on I alone, so it is summed once per index tuple;
# a term lands in row (index of its tuple) * (n+m)^2 + r' * (n+m) + c'.


def _tuple_index(sc: StructureConstants, p: int) -> Dict[Tuple[int, ...], int]:
    """Position of each canonical p-tuple in label order, kept in ``sc.cache``."""
    key = ("tuple_index", p)
    got = sc.cache.get(key)
    if got is None:
        tuples = enumerate_multi_indices(sc.even_dim, sc.odd_dim, p)
        got = {t: i for i, t in enumerate(tuples)}
        sc.cache[key] = got
    return got


def _columns(
    labels: Sequence[Label],
    per_tuple: Callable[[Tuple[int, ...]], tuple],
    unit_terms: Callable[[tuple, int, int], Dict[int, int]],
) -> List[Dict[int, int]]:
    """Sparse integer columns over label order, nonzero entries only.

    ``per_tuple(I)`` precomputes what every unit of the index tuple I
    shares; ``unit_terms(shared, r, c)`` writes the column of (I, r, c) as
    integer numerators over the kernel-table denominator.  Equal values
    share one int object, which keeps large matrices small.
    """
    shared_ints: Dict[int, int] = {}
    columns: List[Dict[int, int]] = []
    prev = shared = None
    for key, r, c in labels:
        if key != prev:
            prev, shared = key, per_tuple(key)
        columns.append({i: shared_ints.setdefault(v, v)
                        for i, v in unit_terms(shared, r, c).items() if v})
    return columns


def d_matrix(
    sc: StructureConstants, p: int, parity: Optional[int] = None
) -> LinearMapMatrix:
    """The matrix of d_p, written column by column from the structure constants.

    ``parity`` restricts the input labels to one total parity; the output
    space is all of degree p+1.
    """
    k = sc.n + sc.m
    out_index = _tuple_index(sc, p + 1)
    den = _kernel_tables(sc).den

    def per_tuple(key):
        moved, frame = _d_tuple(sc, key)
        return (
            [(table, out_index[out] * k * k, sign) for table, out, sign in moved],
            [(out_index[out] * k * k, v) for out, v in frame],
        )

    def unit_terms(shared, r, c):
        moved, frame = shared
        u = r * k + c
        col: Dict[int, int] = {}
        for table, off, sign in moved:
            for i, v in table[u]:
                _add(col, off + i, v if sign == 1 else -v)
        for off, v in frame:
            _add(col, off + u, v)
        return col

    in_labels = form_basis_labels(sc, p, parity=parity)
    columns = _columns(in_labels, per_tuple, unit_terms)
    return LinearMapMatrix(in_labels, form_basis_labels(sc, p + 1), columns, den)


def lie_matrix(
    sc: StructureConstants, a: int, p: int, parity: Optional[int] = None
) -> LinearMapMatrix:
    """The matrix of the Lie derivative along basis derivation ``a`` on p-forms.

    ``parity`` restricts the input labels to one total parity; the output
    space is all of degree p.
    """
    t = _kernel_tables(sc)
    k, ne, n = sc.n + sc.m, sc.even_dim, sc.n
    pa = sc.parity(a)
    index = _tuple_index(sc, p)
    comm = t.comm[a]

    def per_tuple(key):
        frame: Dict[int, int] = {}
        passed = 0
        for j, A in enumerate(key):
            passed += A >= ne
            sign_j = 1 if (pa and passed % 2) else -1
            for D, v in t.coad[a][A]:
                canon = canonicalize(key[:j] + (D,) + key[j + 1:], ne)
                if canon is not None:
                    _add(frame, index[canon[0]] * k * k, sign_j * canon[1] * v)
        return index[key] * k * k, [(off, v) for off, v in frame.items() if v]

    def unit_terms(shared, r, c):
        off_key, frame = shared
        u = r * k + c
        col: Dict[int, int] = {}
        for i, v in comm[u]:
            _add(col, off_key + i, v)
        for off, v in frame:
            _add(col, off + u, v)
        if pa and (r < n) != (c < n):
            col = {i: -v for i, v in col.items()}
        return col

    in_labels = form_basis_labels(sc, p, parity=parity)
    columns = _columns(in_labels, per_tuple, unit_terms)
    return LinearMapMatrix(in_labels, form_basis_labels(sc, p), columns, t.den)


def invariant_forms(
    sc: StructureConstants, p: int, parity: Optional[int] = None
) -> List[GradedForm]:
    """Basis of the degree-p forms killed by every basis Lie derivative."""
    stacked = stack_maps([lie_matrix(sc, a, p, parity=parity) for a in range(sc.dim)])
    return [vector_to_form(sc, p, v, stacked.in_labels) for v in stacked.kernel()]
