"""A Chevalley-Eilenberg solver for ordinary Lie algebras: the tests' oracle
for Betti numbers.

Deliberately self-contained: dense Fraction elimination and its own
structure-constant extraction, so agreement with ``betti_numbers`` is a real
cross-check and not a tautology.
"""
import itertools
from fractions import Fraction
from typing import List, Sequence


def _dense_reduce(rows: List[List[Fraction]], ncols: int) -> List[int]:
    """Gauss-Jordan reduce ``rows`` in place on their first ``ncols`` columns.

    Returns the pivot columns; pivot i sits in row i, scaled to 1.
    """
    pivots: List[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = pr = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        pivots.append(col)
    return pivots


def _dense_rank(rows: List[List[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    return len(_dense_reduce(rows, len(rows[0]) if rows else 0))


def _dense_solve(mat: List[List[Fraction]], rhs: List[Fraction]) -> List[Fraction]:
    nr, nc = len(mat), len(mat[0])
    aug = [list(mat[i]) + [rhs[i]] for i in range(nr)]
    rank = len(_dense_reduce(aug, nc))
    if any(aug[i][nc] for i in range(rank, nr)):
        raise ValueError("inconsistent system")
    if rank < nc:
        raise ValueError("underdetermined system")
    return [aug[i][nc] for i in range(nc)]


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
