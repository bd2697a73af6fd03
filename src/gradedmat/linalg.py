"""Exact linear algebra used everywhere else in the package.

Two layers:

* routines over Scalar, for the small systems that may in principle be
  complex (basis expansions, Killing inverses, pairing solves); a system
  solved for many right-hand sides is factored once (``factor``) by
  inverting a nonsingular rank-sized block of A, and every solution is
  checked against all of A before it is returned;

* sparse fraction-free integer elimination for the large real-rational
  systems coming from differentials and invariance constraints, with an
  independent sparse modular cross-check of every rank.  A kernel is read
  off the echelon of that rank (``sparse_kernel``): sparse, content-stripped
  integer vectors, back-substituted in ints, which ``verify_kernel`` checks
  exactly against the columns of the matrix.

Ranks and kernels returned here are exact; the modular pass is only a
guard against elimination bugs, never a substitute.
"""
from __future__ import annotations

from math import gcd
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, Scalar

# Fixed word-size primes for the modular cross-check.  Three primes:
# a rank can drop mod an unlucky prime, but the exact rank must be
# reproduced by at least the maximum over them on these integer matrices.
_CHECK_PRIMES = (1000003, 1000033, 1000211)


# ======================================================================
# Dense routines over Scalar
# ======================================================================


def _dense_copy(rows: Sequence[Sequence[Scalar]]) -> List[List[Scalar]]:
    return [[Scalar.of(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence[Scalar]]) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    a = _dense_copy(rows)
    if not a:
        return a, []
    pivots: List[int] = []
    r = 0
    for c in range(len(a[0])):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def rank_dense(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(rref(rows)[1])


def _unit_row(i: int, k: int) -> List[Scalar]:
    return [ONE if i == j else ZERO for j in range(k)]


class Factorization:
    """A x = b for many right-hand sides, each solution checked on all of A.

    ``pivot_rows`` are the first rank-many independent rows R of A and
    ``pivot_cols`` the pivot columns C of A on R, so the block A_(R,C) is
    nonsingular; ``block_inverse`` is its inverse.  The columns C span the
    column space, so b lies in it exactly when b = A_(:,C) y for one y, and
    the rows R force y = block_inverse b_R.  ``solve`` puts that y on C and
    zero elsewhere and returns it only once A x = b holds on every row.
    """

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        self.matrix = _dense_copy(rows)
        self.nrows = len(self.matrix)
        self.ncols = len(self.matrix[0]) if self.matrix else 0
        self.pivot_rows = rref(list(zip(*self.matrix)))[1]
        self.pivot_cols = rref([self.matrix[i] for i in self.pivot_rows])[1]
        self.block_inverse = inverse(
            [[self.matrix[i][c] for c in self.pivot_cols] for i in self.pivot_rows]
        )

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def solve(self, rhs: Sequence[Scalar]) -> List[Scalar]:
        """The unique x with A x = b; raises when none or many exist."""
        if len(rhs) != self.nrows:
            raise ValueError("rhs length mismatch")
        b = [Scalar.of(v) for v in rhs]
        y = matvec(self.block_inverse, [b[i] for i in self.pivot_rows])
        x = [ZERO] * self.ncols
        for c, v in zip(self.pivot_cols, y):
            x[c] = v
        if matvec(self.matrix, x) != b:
            raise ValueError("inconsistent linear system")
        if self.rank < self.ncols:
            raise ValueError("underdetermined linear system")
        return x


def factor(rows: Sequence[Sequence[Scalar]]) -> Factorization:
    """A factored once, for solves against many right-hand sides."""
    return Factorization(rows)


def solve_unique(
    rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]
) -> List[Scalar]:
    """Solve A x = b requiring existence and uniqueness; raises otherwise."""
    return factor(rows).solve(rhs)


def inverse(rows: Sequence[Sequence[Scalar]]) -> List[List[Scalar]]:
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("inverse of a non-square matrix")
    red, pivots = rref([list(row) + _unit_row(i, k) for i, row in enumerate(rows)])
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return [row[k:] for row in red[:k]]


def matvec(rows: Sequence[Sequence[Scalar]], x: Sequence[Scalar]) -> List[Scalar]:
    """A x, forming only the products of nonzero entries."""
    xnz = [(j, Scalar.of(b)) for j, b in enumerate(x) if b]
    out = []
    for row in rows:
        acc = ZERO
        for j, b in xnz:
            a = row[j]
            if a:
                acc = acc + a * b
        out.append(acc)
    return out


# ======================================================================
# Sparse integer elimination
# ======================================================================

SparseIntRow = Dict[int, int]


def strip_content(row: SparseIntRow) -> SparseIntRow:
    """The row divided by the gcd of its entries; scaling keeps rank and kernel."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class SparseEchelon:
    """Online fraction-free echelon of integer rows.

    Rows are fed one at a time; each is reduced against the pivots found so
    far using the update pv*row - rv*pivot_row followed by content stripping,
    so every intermediate row stays integral.
    """

    def __init__(self):
        self.pivot_rows: Dict[int, SparseIntRow] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def residual(self, row: SparseIntRow) -> SparseIntRow:
        """Reduce ``row`` against the current pivots without inserting it."""
        r = dict(row)
        while r:
            lead = min(r)
            piv = self.pivot_rows.get(lead)
            if piv is None:
                return strip_content(r)
            pv = piv[lead]
            rv = r[lead]
            merged = {}
            for c in r.keys() | piv.keys():
                if c == lead:
                    continue
                nv = pv * r.get(c, 0) - rv * piv.get(c, 0)
                if nv:
                    merged[c] = nv
            r = strip_content(merged)
        return r

    def add_row(self, row: SparseIntRow) -> bool:
        """Reduce ``row``; returns True if it added a new pivot."""
        r = self.residual(row)
        if not r:
            return False
        self.pivot_rows[min(r)] = r
        return True

    def eliminate(self, rows: Sequence[SparseIntRow]) -> int:
        """Add ``rows``, shortest first; returns the rank."""
        for row in sorted(rows, key=len):
            self.add_row(row)
        return self.rank


def sparse_kernel(echelon: SparseEchelon, ncols: int) -> List[SparseIntRow]:
    """Integer basis of {x : A x = 0} for the A eliminated into ``echelon``.

    One vector per free column f, back-substituted in ints: x_f = 1, then
    each pivot c below f, highest first, takes the value that zeroes its
    row, the vector scaled first so that the division is exact.  Content
    stripped, with x_f > 0: the rational kernel with denominators cleared.
    """
    rows = echelon.pivot_rows
    pivots = sorted(rows, reverse=True)
    basis = []
    for f in range(ncols):
        if f in rows:
            continue
        x = {f: 1}
        for c in pivots:
            if c > f:
                continue  # its row reads only columns above c > f, where x is 0
            s = sum(v * x[j] for j, v in rows[c].items() if j in x)
            if s:
                pv = rows[c][c]
                g = gcd(s, pv)
                if abs(pv) != g:
                    x = {j: v * (abs(pv) // g) for j, v in x.items()}
                x[c] = -s // g if pv > 0 else s // g
        basis.append(strip_content(x))
    return basis


# ======================================================================
# Modular cross-check
# ======================================================================


def modular_rank(rows: Sequence[SparseIntRow], ncols: int, prime: int) -> int:
    """Rank of the integer matrix mod ``prime``: sparse elimination over GF(p).

    Written apart from ``SparseEchelon`` on purpose, so that it stays an
    independent check of the exact rank.  Rows are reduced mod ``prime``
    and taken shortest first; each pivot row is scaled to lead with 1.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    reduced = [{c: v % prime for c, v in row.items() if v % prime} for row in rows]
    for r in sorted(reduced, key=len):
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(r[lead], -1, prime)
                pivots[lead] = {c: v * inv % prime for c, v in r.items()}
                break
            f = r[lead]
            for c, v in piv.items():
                nv = (r.get(c, 0) - f * v) % prime
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
        if len(pivots) == ncols:
            break
    return len(pivots)


def exact_rank(rows: Sequence[SparseIntRow], ncols: int,
               echelon: Optional[SparseEchelon] = None) -> int:
    """Exact rank over the rationals, guarded by modular ranks.

    The rows are eliminated, shortest first, into ``echelon`` (a fresh one
    when None), so a caller that keeps it reads kernels off the same pivots.
    The modular rank can only undershoot (an unlucky prime), so agreement of
    the maximum with the exact elimination is required.
    """
    r = (SparseEchelon() if echelon is None else echelon).eliminate(rows)
    mods = [modular_rank(rows, ncols, p) for p in _CHECK_PRIMES]
    if max(mods) != r:
        raise AssertionError(f"modular ranks {mods} disagree with exact rank {r}")
    return r


def combine(columns: Sequence[SparseIntRow], vec: Dict[int, Any]) -> Dict[int, Any]:
    """A v, the columns of A weighted by the entries of v; nonzero entries only."""
    acc: Dict[int, Any] = {}
    for j, x in vec.items():
        for i, a in columns[j].items():
            acc[i] = acc.get(i, 0) + x * a
    return {i: s for i, s in acc.items() if s}


def verify_kernel(columns: Sequence[SparseIntRow], vectors: Sequence[SparseIntRow]) -> bool:
    """Exact check, in ints, that A v = 0 for every vector."""
    return not any(combine(columns, v) for v in vectors)
