"""Coordinates on spaces of graded forms.

A degree-p form is determined by one matrix per canonical index tuple, so
the p-forms have a basis labeled (index tuple I, row r, column c), the form
E_rc theta^I.  ``FormBasis`` is that basis and the only code that knows its
order and its label weights: index-tuple major, matrix units row major.
Label (I, r, c) sits at position t * (n+m)^2 + u for I the t-th canonical
tuple and u = r * (n+m) + c, the unit numbering of the kernel tables of
``forms``.  Positions and weights are computed from one tuple list per
degree, kept with the label weights in the constants' ``cache``
(``constants.derived``); no list of labels is built.  A basis holds every
label of its degree or those at given positions (``restricted``), such as
the labels of weight 0 (``zero_weight``).

A ``LinearMapMatrix`` holds its column basis, its row count and integer
numerators over one denominator ``den``.  The matrices of d and of the
basis Lie derivatives on any ``FormBasis``, with every label of the output
degree as rows, are written column by column straight from the structure
constants (``d_matrix``, ``lie_matrix``): each column is summed in ints
from the kernel tables of ``forms``, and those sums are kept as they are,
over the table denominator.  Form coordinates are read off a form's integer
numerators (``form_to_sparse``).  A map's rank and kernel come from one
elimination of its integer rows, kept on the map: kernels are sparse,
content-stripped integer vectors {column: value} back-substituted from the
rank's echelon, and ``kernel_forms`` turns the kernel of a stack of maps
into forms.  ``matrix_of_map`` runs any
form-level map over the basis instead and puts the images over the lcm of
their denominators; with ``exterior_derivative`` and ``lie_derivative`` it
is the oracle the tests hold the column kernel to.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from functools import lru_cache
from math import lcm
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from . import linalg
from .constants import StructureConstants, derived
from .forms import GradedForm, _add, _d_tuple, _kernel_tables
from .indexset import canonicalize, enumerate_multi_indices
from .matrices import GradedMatrix, IntEntries, odd_units

Label = Tuple[Tuple[int, ...], int, int]


@lru_cache(maxsize=None)
def _unit_cells(k: int) -> Tuple[Tuple[int, int], ...]:
    return tuple(divmod(u, k) for u in range(k * k))  # (r, c) of unit u


# ======================================================================
# Label weights
# ======================================================================
#
# Every basis element is a weight vector of the diagonal Cartan
# subalgebra: the unit e_rc has weight eps_r - eps_c, a diagonal element
# weight 0.  So the label (I, r, c), the form E_rc theta^I, has weight
#   lambda = eps_r - eps_c - sum_(A in I) wt(E_A),
# d preserves it and L_a adds the weight of E_a.  A weight is stored as one
# int code, sum_i lambda_i * 2^(16 i), so adding weights adds codes; the
# coordinates of a label weight are bounded by its degree plus one.

_WEIGHT_BITS = 16


def _unit_code(r: int, c: int) -> int:
    return (1 << (_WEIGHT_BITS * r)) - (1 << (_WEIGHT_BITS * c))


@lru_cache(maxsize=None)
def _unit_weights(k: int) -> Tuple[int, ...]:
    return tuple(_unit_code(r, c) for r, c in _unit_cells(k))  # code of unit u


def _decode(code: int, size: int) -> List[int]:
    """The coordinates over eps_0 .. eps_(size-1) of a weight code."""
    half, mask = 1 << (_WEIGHT_BITS - 1), (1 << _WEIGHT_BITS) - 1
    out = []
    for _ in range(size):
        out.append(((code + half) & mask) - half)  # the signed lowest digit
        code = (code - out[-1]) >> _WEIGHT_BITS
    return out


@derived("element_weights")
def _element_weights(sc: StructureConstants) -> List[int]:
    """The weight code of each basis element; raises ValueError for an
    element with nonzero entries of different weights."""
    got = []
    unit_w = _unit_weights(sc.n + sc.m)
    for a, e in enumerate(sc.basis.elements):
        codes = {unit_w[u] for u, _, _ in e.ints}
        if len(codes) != 1:
            raise ValueError(f"basis element {a} is not a weight vector")
        got.append(codes.pop())
    return got


@derived("form_tuples")
def _form_tuples(sc: StructureConstants, p: int) -> Tuple[list, Dict[tuple, int]]:
    """The canonical p-tuples in label order, and the number of each."""
    tuples = enumerate_multi_indices(sc.even_dim, sc.odd_dim, p)
    return tuples, {t: i for i, t in enumerate(tuples)}


@derived("label_weights")
def _label_weights(sc: StructureConstants, p: int) -> Tuple[List[int], List[int]]:
    """Per-tuple weight codes and the weight-0 positions of degree p;
    ValueError when a basis element is not a weight vector."""
    ew = _element_weights(sc)
    tuple_w = [-sum(ew[A] for A in I) for I in _form_tuples(sc, p)[0]]
    unit_w = _unit_weights(sc.n + sc.m)
    units_of: Dict[int, List[int]] = {}
    for u, w in enumerate(unit_w):
        units_of.setdefault(-w, []).append(u)
    return tuple_w, [t * len(unit_w) + u
                     for t, w in enumerate(tuple_w) for u in units_of.get(w, ())]


class FormBasis(Sequence[Label]):
    """The basis of the degree-p forms in label order, as a read-only sequence.

    ``positions`` are the full-basis positions of its labels, all of them or
    those given to ``restricted``; no list of labels is built.  Bases are equal when
    their (n|m), algebra basis, degree and positions are.
    """

    def __init__(self, sc: StructureConstants, p: int):
        self.sc, self.p, self.k = sc, p, sc.n + sc.m
        self.tuples, self._numbers = _form_tuples(sc, p)
        self.units = self.k * self.k
        self.cells = _unit_cells(self.k)
        self.positions: Sequence[int] = range(len(self.tuples) * self.units)

    def weights(self) -> Tuple[List[int], Tuple[int, ...]]:
        """(tuple codes, unit codes): position t * units + u weighs their sum."""
        return _label_weights(self.sc, self.p)[0], _unit_weights(self.k)

    def zero_weight(self) -> "FormBasis":
        """The labels of weight 0 of this degree, in label order.

        L_h = d i_h + i_h d acts on weight lambda as lambda(h), and for n != m
        only lambda = 0 vanishes on every diagonal h, so these labels hold
        every invariant form and every class of H^p.  They are even: a label's
        parity is its weight's coordinate sum over the odd block, mod 2."""
        return self.restricted(_label_weights(self.sc, self.p)[1])

    def restricted(self, positions: Sequence[int]) -> "FormBasis":
        """The labels at ``positions``, strictly increasing full-basis
        positions of this degree, in label order; the sequence is kept, not
        copied."""
        inside = not positions or (
            0 <= positions[0] and positions[-1] < len(self.tuples) * self.units)
        if not inside or any(j <= i for i, j in zip(positions, positions[1:])):
            raise ValueError("positions must increase strictly inside the full basis")
        sub = FormBasis(self.sc, self.p)
        sub.positions = positions
        return sub

    def offset(self, key: Tuple[int, ...]) -> int:
        """The full-basis position of the first label of index tuple ``key``."""
        return self._numbers[key] * self.units

    def split(self, i: int) -> Tuple[int, int]:
        """(tuple number, unit number) of full-basis position ``i``."""
        return divmod(i, self.units)

    def _label(self, i: int) -> Label:
        t, u = self.split(i)
        return (self.tuples[t],) + self.cells[u]

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, j: int) -> Label:
        return self._label(self.positions[j])

    def __iter__(self) -> Iterator[Label]:
        return map(self._label, self.positions)

    def index(self, label: Label) -> int:
        key, r, c = label
        if key in self._numbers and 0 <= r < self.k and 0 <= c < self.k:
            i = self.offset(key) + r * self.k + c
            j = bisect_left(self.positions, i)
            if j < len(self.positions) and self.positions[j] == i:
                return j
        raise ValueError(f"{label} is not in this basis")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormBasis):
            return NotImplemented
        return ((self.sc.n, self.sc.m, self.p) == (other.sc.n, other.sc.m, other.p)
                and self.sc.basis.elements == other.sc.basis.elements
                and list(self.positions) == list(other.positions))


def basis_form(sc: StructureConstants, label: Label) -> GradedForm:
    key, r, c = label
    return GradedForm.of(sc, len(key), {key: GradedMatrix.unit(sc.n, sc.m, r, c)})


def form_to_sparse(form: GradedForm, basis: FormBasis) -> Tuple[IntEntries, int]:
    """The coordinates of ``form`` over ``basis`` as its integer numerators
    and ``form.den``: sorted (position, 0 for the real or 1 for the
    imaginary part, numerator), nonzero entries only."""
    return sorted((basis.index((key,) + basis.cells[u]), part, y)
                  for key, entries in form.ints.items() for u, part, y in entries), form.den


def vector_to_form(vec: Mapping[int, Any], basis: FormBasis) -> GradedForm:
    """The form with the sparse coordinates ``vec``, {column: value}, over ``basis``."""
    triples: Dict[Tuple[int, ...], list] = {}
    for j, x in vec.items():
        key, r, c = basis[j]
        triples.setdefault(key, []).append((r, c, x))
    return GradedForm.of(basis.sc, basis.p, {
        key: GradedMatrix(basis.sc.n, basis.sc.m, got) for key, got in triples.items()
    })


class LinearMapMatrix:
    """A linear map between form spaces, stored column-sparse in integers.

    ``columns[j]`` is the image of ``basis[j]`` as a sparse vector over
    the ``nrows`` output positions, holding nonzero integer numerators over
    the common denominator ``den``.  Its integer rows are eliminated once,
    fraction-free, into the ``echelon`` kept on the map: the rank is its
    pivot count, checked mod three primes, and the kernel is back-substituted
    from the same pivots.  Maps are equal when their basis, ``nrows``,
    columns and ``den`` are, whatever has been derived on either.
    """

    __slots__ = ("basis", "nrows", "columns", "den", "_int_rows", "_echelon")

    def __init__(self, basis: FormBasis, nrows: int, columns: List[Dict[int, int]],
                 den: int = 1):
        self.basis, self.nrows, self.columns, self.den = basis, nrows, columns, den
        self._int_rows: Optional[List[linalg.SparseIntRow]] = None
        self._echelon: Optional[linalg.SparseEchelon] = None

    def __eq__(self, other):
        if type(other) is not LinearMapMatrix:
            return NotImplemented
        return ((self.basis, self.nrows, self.columns, self.den)
                == (other.basis, other.nrows, other.columns, other.den))

    @classmethod
    def from_images(
        cls, basis: FormBasis, nrows: int,
        images: Sequence[Tuple[IntEntries, int]],
    ) -> "LinearMapMatrix":
        """The map with the given column images, each (entries, den) as
        ``form_to_sparse`` gives them, over the lcm of their denominators;
        raises ValueError on an imaginary part."""
        if any(part for entries, _ in images for _, part, _ in entries):
            raise ValueError("a column image is not real")
        den = lcm(*(q for _, q in images))
        columns = [{i: y * (den // q) for i, _, y in entries} for entries, q in images]
        return cls(basis, nrows, columns, den)

    @property
    def ncols(self) -> int:
        return len(self.basis)

    def int_rows(self) -> List[linalg.SparseIntRow]:
        """The matrix as integer rows with per-row content cleared."""
        if self._int_rows is None:
            rows: Dict[int, Dict[int, int]] = {}
            for j, col in enumerate(self.columns):
                for i, v in col.items():
                    rows.setdefault(i, {})[j] = v
            self._int_rows = [linalg.strip_content(rows[i]) for i in sorted(rows)]
        return self._int_rows

    def echelon(self) -> linalg.SparseEchelon:
        """The one elimination of ``int_rows``, built and rank-checked on first use."""
        if self._echelon is None:
            ech = linalg.SparseEchelon()
            linalg.exact_rank(self.int_rows(), self.ncols, ech)
            self._echelon = ech
        return self._echelon

    def rank(self) -> int:
        return self.echelon().rank

    def kernel(self) -> List[linalg.SparseIntRow]:
        """A basis of the kernel as content-stripped integer vectors {column:
        value}, one per free column, each checked to be killed exactly."""
        vecs = linalg.sparse_kernel(self.echelon(), self.ncols)
        if not linalg.verify_kernel(self.columns, vecs):
            raise AssertionError("a kernel vector is not killed by the matrix")
        return vecs

    def compose_is_zero(self, inner: "LinearMapMatrix") -> bool:
        """Whether self applied after ``inner`` kills every basis column."""
        return linalg.verify_kernel(self.columns, inner.columns)


def matrix_of_map(fn: Callable[[GradedForm], GradedForm], sc: StructureConstants,
                  p_in: int, p_out: int) -> LinearMapMatrix:
    basis = FormBasis(sc, p_in)
    out = FormBasis(sc, p_out)
    images = [form_to_sparse(fn(basis_form(sc, lab)), out) for lab in basis]
    return LinearMapMatrix.from_images(basis, len(out), images)


def stack_maps(maps: Sequence[LinearMapMatrix]) -> LinearMapMatrix:
    """Stack maps with a shared input space into one tall matrix.

    The kernel of the stack is the joint kernel; the rows of each block
    follow those of the blocks before it.
    """
    first = maps[0]
    if any(mp.basis != first.basis for mp in maps):
        raise ValueError("stacked maps must share the input space")
    den = lcm(*(mp.den for mp in maps))
    columns: List[Dict[int, int]] = [dict() for _ in range(first.ncols)]
    offset = 0
    for mp in maps:
        scale = den // mp.den
        for j, col in enumerate(mp.columns):
            for i, v in col.items():
                columns[j][offset + i] = v * scale
        offset += mp.nrows
    return LinearMapMatrix(first.basis, offset, columns, den)


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
# a term of unit u' in tuple I' lands in row ``out.offset(I') + u'``.


def _columns(
    basis: FormBasis,
    per_tuple: Callable[[Tuple[int, ...]], tuple],
    flip: Sequence[int] = (),
) -> List[Dict[int, int]]:
    """Sparse integer columns over label order, nonzero entries only, as
    integer numerators over the kernel-table denominator.

    ``per_tuple(I)`` gives what every unit of the index tuple I shares, as
    two lists: ``moved`` holds (rows, offset, sign), and column (I, u) takes
    the (i, value) terms of ``rows[u]`` at row offset + i, times sign;
    ``frame`` holds (offset, value), which column (I, u) takes at row
    offset + u.  The column of a unit u with ``flip[u]`` set is negated.
    This is the one loop that reads kernel rows unit by unit.  Equal values
    share one int object, which keeps large matrices small.
    """
    shared_ints: Dict[int, int] = {}
    columns: List[Dict[int, int]] = []
    prev = moved = frame = None
    for t, u in map(basis.split, basis.positions):
        if t != prev:
            prev = t
            moved, frame = per_tuple(basis.tuples[t])
        col: Dict[int, int] = {}
        for rows, off, sign in moved:
            for i, v in rows[u]:
                _add(col, off + i, v if sign == 1 else -v)
        for off, v in frame:
            _add(col, off + u, v)
        if flip and flip[u]:
            col = {i: -v for i, v in col.items()}
        columns.append({i: shared_ints.setdefault(v, v) for i, v in col.items() if v})
    return columns


def d_matrix(basis: FormBasis) -> LinearMapMatrix:
    """The matrix of d on the labels of ``basis``, written column by column
    from the structure constants; the rows are all of degree p+1."""
    sc = basis.sc
    out = FormBasis(sc, basis.p + 1)

    def per_tuple(key):
        moved, frame = _d_tuple(sc, key)
        return ([(rows, out.offset(I), sign) for rows, I, sign in moved],
                [(out.offset(I), v) for I, v in frame])

    return LinearMapMatrix(basis, len(out), _columns(basis, per_tuple),
                           _kernel_tables(sc).den)


def lie_matrix(basis: FormBasis, a: int) -> LinearMapMatrix:
    """The matrix of the Lie derivative along basis derivation ``a`` on the
    labels of ``basis``; the rows are all of its degree."""
    sc = basis.sc
    t = _kernel_tables(sc)
    ne, pa = sc.even_dim, sc.parity(a)
    full = FormBasis(sc, basis.p)

    def per_tuple(key):
        frame: Dict[int, int] = {}
        passed = 0
        for j, A in enumerate(key):
            passed += A >= ne
            sign_j = 1 if (pa and passed % 2) else -1
            for D, v in t.coad[a][A]:
                canon = canonicalize(key[:j] + (D,) + key[j + 1:], ne)
                if canon is not None:
                    _add(frame, full.offset(canon[0]), sign_j * canon[1] * v)
        return ([(t.comm[a], full.offset(key), 1)],
                [(off, v) for off, v in frame.items() if v])

    # an odd a passes the odd units: (-1)^(|a||rc|)
    flip = odd_units(sc.n, sc.m) if pa else ()
    return LinearMapMatrix(basis, len(full), _columns(basis, per_tuple, flip), t.den)


def kernel_forms(maps: Sequence[LinearMapMatrix]) -> List[GradedForm]:
    """A basis of the forms killed by every one of ``maps``, over their shared
    input space: the kernel of their stack."""
    stacked = stack_maps(maps)
    return [vector_to_form(v, stacked.basis) for v in stacked.kernel()]


def invariant_forms(sc: StructureConstants, p: int) -> List[GradedForm]:
    """Basis of the degree-p forms killed by every basis Lie derivative,
    stacked over the weight-0 labels, where all of them lie."""
    basis = FormBasis(sc, p).zero_weight()
    return kernel_forms([lie_matrix(basis, a) for a in range(sc.dim)])
