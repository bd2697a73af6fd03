"""Exact linear algebra used everywhere else in the package.

Two layers, both fraction-free over the integers:

* dense elimination (Bareiss) for the small systems: ranks of a few
  vectors, inverses, and the symplectic contraction systems.  A system is
  given by integer columns, and a complex one is realified, so real and
  complex inputs take one path; a system solved for many right-hand sides
  is factored once (``factor``) by inverting a nonsingular rank-sized
  block of A, and every solution is checked against all of A before it is
  returned;

* sparse elimination for the large real-rational systems coming from
  differentials and invariance constraints, with an independent sparse
  modular cross-check of every rank.  A kernel is read off the echelon of
  that rank (``sparse_kernel``): sparse, content-stripped integer vectors,
  back-substituted in ints, which ``verify_kernel`` checks exactly against
  the columns of the matrix.

Ranks and kernels returned here are exact; the modular pass is only a
guard against elimination bugs, never a substitute.
"""
from __future__ import annotations

from collections import defaultdict
from math import gcd
from typing import Any, Dict, List, Optional, Sequence, Tuple

# Fixed word-size primes for the modular cross-check.  Three primes:
# a rank can drop mod an unlucky prime, but the exact rank must be
# reproduced by at least the maximum over them on these integer matrices.
_CHECK_PRIMES = (1000003, 1000033, 1000211)


# ======================================================================
# Dense fraction-free elimination
# ======================================================================

# A column of a dense system: its nonzero entries as (row, 0 for the real or
# 1 for the imaginary part, integer numerator), the layout of a matrix's ints.
Column = Sequence[Tuple[int, int, int]]


def _integer_rows(columns: Sequence[Column]
                  ) -> Tuple[List[Tuple[int, int]], List[List[int]], bool]:
    """The nonzero rows of A as dense int lists, their keys, and whether A
    was realified.

    A real A keeps its columns, and row i has the key (i, 0).  A complex A
    is realified: x_j = u + i v becomes the columns 2j and 2j + 1, row i the
    rows (i, 0) and (i, 1), and an entry a + i b the block [[a, -b], [b, a]],
    so real and complex systems take one integer path.
    """
    realified = any(part for col in columns for _, part, _ in col)
    width = 2 * len(columns) if realified else len(columns)
    rows: Dict[Tuple[int, int], List[int]] = defaultdict(lambda: [0] * width)
    for j, col in enumerate(columns):
        for i, part, y in col:
            if not realified:
                rows[i, 0][j] += y
            elif part:
                rows[i, 0][2 * j + 1] -= y
                rows[i, 1][2 * j] += y
            else:
                rows[i, 0][2 * j] += y
                rows[i, 1][2 * j + 1] += y
    keys = sorted(rows)
    return keys, [rows[key] for key in keys], realified


def _eliminate(rows: List[List[int]], width: int) -> Tuple[List[int], List[int], int]:
    """Fraction-free Gauss-Jordan elimination of ``rows`` in place (Bareiss).

    Pivots are taken in the first ``width`` columns, left to right, each
    from the first remaining row that is nonzero there.  A step with pivot
    p replaces every other row r by (p r - r_c pivot_row) / p', p' the
    previous pivot (1 at first): by Sylvester's identity every entry is
    then a minor of the input, so the division is exact.  Returns the
    input positions of the pivot rows, the pivot columns, and the last
    pivot; on [M | I] with M nonsingular the rows end as [p I | p M^-1].
    """
    order = list(range(len(rows)))
    pivot_rows: List[int] = []
    pivot_cols: List[int] = []
    prev = 1
    for c in range(width):
        r = len(pivot_cols)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        order[r], order[p] = order[p], order[r]
        piv = rows[r]
        pv = piv[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(row, piv)]
        pivot_rows.append(order[r])
        pivot_cols.append(c)
        prev = pv
    return pivot_rows, pivot_cols, prev


class Factorization:
    """A x = b for many right-hand sides, each solution checked on all of A.

    A is given by integer columns (``Column``), realified when complex
    (``_integer_rows``).  ``pivot_rows`` are the keys of rank-many rows R
    and ``pivot_cols`` the columns C on which one elimination of A found
    its pivots, so the block A_(R,C) is nonsingular; ``block_inverse`` is
    its inverse times ``den`` > 0, in integers, from one more elimination,
    of [A_(R,C) | I].  The columns C span the column space, so b lies in it
    exactly when b = A_(:,C) y for one y, and the rows R force
    y = block_inverse b_R / den.  ``solve`` puts that y on C and zero
    elsewhere, and returns it only once A y = den b holds on every row.
    """

    def __init__(self, columns: Sequence[Column]):
        self.ncols = len(columns)
        keys, rows, self.realified = _integer_rows(columns)
        width = 2 * self.ncols if self.realified else self.ncols
        # the (realified) columns again, sparse, for the check of each solution
        self.columns: List[List[Tuple[Tuple[int, int], int]]] = [[] for _ in range(width)]
        for key, row in zip(keys, rows):
            for j, v in enumerate(row):
                if v:
                    self.columns[j].append((key, v))
        positions, self.pivot_cols, _ = _eliminate([list(row) for row in rows], width)
        self.pivot_rows = [keys[i] for i in positions]
        r = len(positions)
        block = [[rows[i][c] for c in self.pivot_cols] + [int(s == t) for s in range(r)]
                 for t, i in enumerate(positions)]
        det = _eliminate(block, r)[2]
        sign = 1 if det > 0 else -1
        self.den = abs(det)
        self.block_inverse = [[sign * x for x in row[r:]] for row in block]

    @property
    def rank(self) -> int:
        """The rank of A; each column may be over its own denominator, since
        scaling a column keeps the rank."""
        return len(self.pivot_rows) // (2 if self.realified else 1)

    def _solve_real(self, b: Dict[Tuple[int, int], int]) -> List[int]:
        """den times the solution of the real system for ``b``, checked on
        every row of A and of b; raises when there is none."""
        br = [b.get(key, 0) for key in self.pivot_rows]
        y = [0] * len(self.columns)
        for c, row in zip(self.pivot_cols, self.block_inverse):
            y[c] = sum(v * w for v, w in zip(row, br) if w)
        acc: Dict[Tuple[int, int], int] = {}
        for c, v in enumerate(y):
            if v:
                for key, a in self.columns[c]:
                    acc[key] = acc.get(key, 0) + a * v
        den = self.den
        if ({key: s for key, s in acc.items() if s}
                != {key: den * v for key, v in b.items() if v}):
            raise ValueError("inconsistent linear system")
        return y

    def solve(self, rhs: Column) -> Tuple[List[Tuple[int, int, int]], int]:
        """The unique x with A x = b, for b given as (row, part, numerator)
        entries: x as sorted (column, part, numerator) entries over ``den``.
        Raises ValueError when there is no solution or more than one."""
        parts: Dict[int, Dict[Tuple[int, int], int]] = {}
        for i, part, v in rhs:
            # a real A solves the two parts of b apart; a realified A takes
            # them as its rows (i, 0) and (i, 1)
            b = parts.setdefault(0 if self.realified else part, {})
            key = (i, part) if self.realified else (i, 0)
            b[key] = b.get(key, 0) + v
        x = []
        for part, b in parts.items():
            y = self._solve_real(b)
            if self.realified:
                x += [(j // 2, j % 2, v) for j, v in enumerate(y) if v]
            else:
                x += [(j, part, v) for j, v in enumerate(y) if v]
        if self.rank < self.ncols:
            raise ValueError("underdetermined linear system")
        x.sort()
        return x, self.den


def factor(columns: Sequence[Column]) -> Factorization:
    """A factored once, for solves against many right-hand sides."""
    return Factorization(columns)


def solve_unique(columns: Sequence[Column], rhs: Column
                 ) -> Tuple[List[Tuple[int, int, int]], int]:
    """Solve A x = b requiring existence and uniqueness; raises otherwise."""
    return factor(columns).solve(rhs)


def inverse(columns: Sequence[Column]) -> Tuple[List[List[Tuple[int, int, int]]], int]:
    """The columns of A^-1 for a nonsingular k x k A on the rows 0..k-1, as
    (row, part, numerator) entries over one denominator; ValueError when A
    is singular."""
    fact = factor(columns)
    k = len(columns)
    if fact.rank != k:
        raise ValueError("matrix is singular")
    return [fact.solve([(j, 0, 1)])[0] for j in range(k)], fact.den


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
