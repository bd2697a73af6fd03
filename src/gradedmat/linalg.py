"""Exact linear algebra used everywhere else in the package.

One exact elimination, fraction-free over the integers: ``SparseEchelon``,
which reduces each sparse integer row against the pivots found so far.

* The large real systems coming from differentials and invariance
  constraints are ranked on it, with an independent sparse modular
  cross-check of every rank.  A kernel is read off the echelon of that
  rank (``sparse_kernel``): sparse, content-stripped integer vectors,
  back-substituted in ints, which ``verify_kernel`` checks exactly against
  the columns of the matrix.

* The small systems (ranks of a few vectors, inverses, the symplectic
  contraction systems) are factored on it too (``factor``): the columns
  of A, realified when complex, are eliminated once, each tagged by a
  unit coordinate of its own, and a solve reads x off the tags of the
  reduced right-hand side.  Every solution is checked against all of A
  before it is returned.

Ranks and kernels returned here are exact; the modular pass is only a
guard against elimination bugs, never a substitute.
"""
from __future__ import annotations

from math import gcd, lcm
from typing import Any, Dict, List, Optional, Sequence, Tuple

# Fixed word-size primes for the modular cross-check.  Three primes:
# a rank can drop mod an unlucky prime, but the exact rank must be
# reproduced by at least the maximum over them on these integer matrices.
_CHECK_PRIMES = (1000003, 1000033, 1000211)


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
    """Online fraction-free echelon of integer rows: the package's one exact
    elimination, for ranks and kernels and, through ``Factorization``, for
    every dense solve and inverse.

    Rows are fed one at a time; each is reduced against the pivots found so
    far using the update pv*row - rv*pivot_row followed by content stripping,
    so every intermediate row stays integral.  A pivot row is kept under its
    lead, the smallest column it holds.
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
# Dense systems on the echelon
# ======================================================================

# A column of a dense system: its nonzero entries as (row, 0 for the real or
# 1 for the imaginary part, integer numerator), the layout of a matrix's ints.
Column = Sequence[Tuple[int, int, int]]


class Factorization:
    """A x = b for many right-hand sides, each solution checked on all of A.

    A is given by integer columns (``Column``).  A complex A is realified:
    x_j = u + i v becomes the columns 2j and 2j + 1, row i the rows 2i and
    2i + 1, and an entry a + i b the block [[a, -b], [b, a]], so real and
    complex systems take one integer path.  Column c of the (realified) A,
    a_c, is eliminated once into ``echelon`` as a_c + e_(tag + c), its tag
    past every row of A.  The pivots that lead on a row of A stand for
    independent columns, so they count the rank.  A solve reduces b + e_end,
    its tag end past every column's, to s (b + e_end) + sum_c t_c (a_c +
    e_(tag + c)) with s != 0.  That keeps a row of A exactly when b lies
    outside the column space; otherwise s b + A t = 0, so x = -t / s.
    ``solve`` returns x only once A x = b holds on every row.
    """

    def __init__(self, columns: Sequence[Column]):
        self.ncols = len(columns)
        self.realified = any(part for col in columns for _, part, _ in col)
        cols: List[SparseIntRow] = [{} for _ in range(2 * self.ncols if self.realified
                                                      else self.ncols)]
        for j, col in enumerate(columns):
            for i, part, y in col:
                if not self.realified:
                    cells = ((j, i, y),)
                elif part:
                    cells = ((2 * j, 2 * i + 1, y), (2 * j + 1, 2 * i, -y))
                else:
                    cells = ((2 * j, 2 * i, y), (2 * j + 1, 2 * i + 1, y))
                for c, key, v in cells:
                    cols[c][key] = cols[c].get(key, 0) + v
        # the (realified) columns, sparse, for the check of each solution
        self.columns = [{key: v for key, v in col.items() if v} for col in cols]
        self.tag = 1 + max((key for col in self.columns for key in col), default=-1)
        self.echelon = SparseEchelon()
        self.echelon.eliminate([{**col, self.tag + c: 1} for c, col in enumerate(self.columns)])
        leads = sum(lead < self.tag for lead in self.echelon.pivot_rows)
        # the rank of A; each column may be over its own denominator, since
        # scaling a column keeps the rank
        self.rank = leads // 2 if self.realified else leads

    def _solve_real(self, b: Dict[int, int]) -> Tuple[SparseIntRow, int]:
        """(y, den) with A y = den b for the real system, checked on every row
        of A and of b; raises when there is no solution."""
        tag, end = self.tag, self.tag + len(self.columns)
        # a row of b past every row of A would read as a tag; the check on
        # all of A refuses such a b
        r = self.echelon.residual({**{key: v for key, v in b.items() if key < tag}, end: 1})
        s = r.pop(end, 0)
        if not s or min(r, default=tag) < tag:
            raise ValueError("inconsistent linear system")
        y = {c - tag: -v if s > 0 else v for c, v in r.items()}
        den = abs(s)
        if combine(self.columns, y) != {key: den * v for key, v in b.items() if v}:
            raise ValueError("inconsistent linear system")
        return y, den

    def solve(self, rhs: Column) -> Tuple[List[Tuple[int, int, int]], int]:
        """The unique x with A x = b, for b given as (row, part, numerator)
        entries: x as sorted (column, part, numerator) entries over one
        denominator, in lowest terms.  Raises ValueError when there is no
        solution or more than one."""
        parts: Dict[int, Dict[int, int]] = {}
        for i, part, v in rhs:
            # a real A solves the two parts of b apart; a realified A takes
            # them as its rows 2i and 2i + 1
            b = parts.setdefault(0 if self.realified else part, {})
            key = 2 * i + part if self.realified else i
            b[key] = b.get(key, 0) + v
        solved = {part: self._solve_real(b) for part, b in parts.items()}
        if self.rank < self.ncols:
            raise ValueError("underdetermined linear system")
        den = lcm(*(d for _, d in solved.values()))
        x = []
        for part, (y, d) in solved.items():
            if self.realified:
                x += [(c // 2, c % 2, v * (den // d)) for c, v in y.items()]
            else:
                x += [(c, part, v * (den // d)) for c, v in y.items()]
        x.sort()
        return x, den


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
    solved = [fact.solve([(j, 0, 1)]) for j in range(k)]
    den = lcm(*(d for _, d in solved))
    return [[(i, part, y * (den // d)) for i, part, y in x] for x, d in solved], den


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
