"""Exact linear algebra used everywhere else in the package.

Two layers:

* dense routines over Scalar, for the small systems that may in principle
  be complex (basis expansions, Killing inverses, pairing solves);

* sparse fraction-free integer elimination for the large real-rational
  systems coming from differentials and invariance constraints, with an
  independent sparse modular cross-check of every rank.

Ranks and kernels returned here are exact; the modular pass is only a
guard against elimination bugs, never a substitute.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence, Tuple

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
    ncols = len(a[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
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


def solve_unique(
    rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]
) -> List[Scalar]:
    """Solve A x = b requiring existence and uniqueness; raises otherwise."""
    if len(rows) != len(rhs):
        raise ValueError("rhs length mismatch")
    ncols = len(rows[0]) if rows else 0
    aug = [list(row) + [Scalar.of(b)] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    x = [ZERO] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def inverse(rows: Sequence[Sequence[Scalar]]) -> List[List[Scalar]]:
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("inverse of a non-square matrix")
    aug = [
        list(row) + [ONE if i == j else ZERO for j in range(k)]
        for i, row in enumerate(rows)
    ]
    red, pivots = rref(aug)
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


def _strip_content(row: SparseIntRow) -> SparseIntRow:
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


def sparse_row_from_fractions(entries: Dict[int, Fraction]) -> SparseIntRow:
    """Clear denominators; row scaling does not change rank or kernel."""
    entries = {c: v for c, v in entries.items() if v}
    if not entries:
        return {}
    lcm = 1
    for v in entries.values():
        d = v.denominator
        lcm = lcm * d // gcd(lcm, d)
    return _strip_content({c: v.numerator * (lcm // v.denominator) for c, v in entries.items()})


def sparse_row_from_scalars(entries: Dict[int, Scalar]) -> SparseIntRow:
    return sparse_row_from_fractions(
        {c: v.as_fraction() for c, v in entries.items() if v}
    )


class SparseEchelon:
    """Online fraction-free echelon of integer rows.

    Rows are fed one at a time; each is reduced against the pivots found so
    far using the update pv*row - rv*pivot_row followed by content stripping,
    so every intermediate row stays integral.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
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
                return _strip_content(r)
            pv = piv[lead]
            rv = r[lead]
            merged = {}
            for c in r.keys() | piv.keys():
                if c == lead:
                    continue
                nv = pv * r.get(c, 0) - rv * piv.get(c, 0)
                if nv:
                    merged[c] = nv
            r = _strip_content(merged)
        return r

    def add_row(self, row: SparseIntRow) -> bool:
        """Reduce ``row``; returns True if it added a new pivot."""
        r = self.residual(row)
        if not r:
            return False
        self.pivot_rows[min(r)] = r
        return True


def sparse_rank(rows: Sequence[SparseIntRow], ncols: int) -> int:
    ech = SparseEchelon(ncols)
    for row in sorted(rows, key=len):
        ech.add_row(row)
    return ech.rank


def sparse_kernel(rows: Sequence[SparseIntRow], ncols: int) -> List[List[Fraction]]:
    """Exact basis of {x : A x = 0}, one vector per free column."""
    ech = SparseEchelon(ncols)
    for row in sorted(rows, key=len):
        ech.add_row(row)
    pivots = sorted(ech.pivot_rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        x: Dict[int, Fraction] = {f: Fraction(1)}
        for c in reversed(pivots):
            row = ech.pivot_rows[c]
            s = Fraction(0)
            for cc, v in row.items():
                if cc != c and cc in x:
                    s += v * x[cc]
            if s:
                x[c] = -s / row[c]
        basis.append([x.get(c, Fraction(0)) for c in range(ncols)])
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


def exact_rank(rows: Sequence[SparseIntRow], ncols: int) -> int:
    """Exact rank over the rationals, guarded by modular ranks.

    The modular rank can only undershoot (an unlucky prime), so agreement of
    the maximum with the exact elimination is required.
    """
    r = sparse_rank(rows, ncols)
    mods = [modular_rank(rows, ncols, p) for p in _CHECK_PRIMES]
    if max(mods) != r:
        raise AssertionError(f"modular ranks {mods} disagree with exact rank {r}")
    return r


def verify_kernel(
    rows: Sequence[SparseIntRow], vectors: Sequence[Sequence[Fraction]]
) -> bool:
    """Exact check that every vector is annihilated by every row."""
    for v in vectors:
        for row in rows:
            s = Fraction(0)
            for c, a in row.items():
                if v[c]:
                    s += a * v[c]
            if s:
                return False
    return True
