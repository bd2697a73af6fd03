"""Index combinatorics for forms over a homogeneous basis.

Basis directions are numbered 0..n_even-1 (even) and
n_even..n_even+m_odd-1 (odd).  A p-form is stored on canonical index
tuples: even entries strictly increasing, then odd entries weakly
increasing; since even indices numerically precede odd ones this is plain
ascending order with repeats allowed only among odd entries.
"""
from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb, factorial
from typing import List, Optional, Sequence, Tuple


def index_parity(idx: int, n_even: int) -> int:
    return 0 if idx < n_even else 1


def tuple_parity(indices: Sequence[int], n_even: int) -> int:
    return sum(1 for i in indices if i >= n_even) % 2


def permutation_sign(sigma: Sequence[int]) -> int:
    sign = 1
    for r in range(len(sigma)):
        for s in range(r + 1, len(sigma)):
            if sigma[r] > sigma[s]:
                sign = -sign
    return sign


def commutation_factor(sigma: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign collected when arguments of the given degrees pass each other.

    ``sigma`` is a permutation of 0..p-1 acting on argument slots; the
    factor is the product of (-1)^(deg_r * deg_s) over all pairs r < s
    that the inverse permutation puts out of order.
    """
    p = len(sigma)
    if sorted(sigma) != list(range(p)) or len(degrees) != p:
        raise ValueError("sigma must be a permutation matching the degree tuple")
    inv = [0] * p
    for slot, val in enumerate(sigma):
        inv[val] = slot
    sign = 1
    for r in range(p):
        for s in range(r + 1, p):
            if inv[r] > inv[s] and degrees[r] and degrees[s]:
                sign = -sign
    return sign


def enumerate_multi_indices(n_even: int, m_odd: int, p: int) -> List[Tuple[int, ...]]:
    """All canonical index tuples of length p, ascending lexicographically."""
    if p < 0:
        raise ValueError("negative degree")
    out: List[Tuple[int, ...]] = []
    for k in range(min(p, n_even), -1, -1):
        q = p - k
        if q and not m_odd:
            continue
        for ev in combinations(range(n_even), k):
            for od in combinations_with_replacement(range(n_even, n_even + m_odd), q):
                out.append(ev + od)
    out.sort()
    return out


def index_count(n_even: int, m_odd: int, p: int) -> int:
    """Closed-form count of canonical tuples of length p."""
    total = 0
    for k in range(min(p, n_even) + 1):
        q = p - k
        if q == 0:
            total += comb(n_even, k)
        elif m_odd > 0:
            total += comb(n_even, k) * comb(m_odd + q - 1, q)
    return total


def canonicalize(
    indices: Sequence[int], n_even: int
) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Sort an index tuple into canonical order, tracking the sign.

    Returns (canonical tuple, sign) such that a graded-alternating form
    takes the value  sign * (value on the canonical tuple)  on the given
    tuple.  Returns None when an even index repeats (the value is zero).
    Adjacent swaps contribute -1 unless both entries are odd, where the
    grading makes the swap symmetric (factor -(-1)^(deg*deg) = +1).
    """
    work = list(indices)
    sign = 1
    for i in range(len(work)):
        for j in range(len(work) - 1 - i):
            a, b = work[j], work[j + 1]
            if a > b:
                work[j], work[j + 1] = b, a
                if a >= n_even and b >= n_even:
                    pass  # odd-odd swap is symmetric
                else:
                    sign = -sign
    for j in range(len(work) - 1):
        if work[j] == work[j + 1] and work[j] < n_even:
            return None
    return tuple(work), sign


def is_canonical(indices: Sequence[int], n_even: int) -> bool:
    """Whether the tuple is canonical: nondecreasing, no even index repeated.

    Exactly the tuples that ``canonicalize`` returns unchanged, in one pass.
    """
    rest = iter(indices)
    prev = next(rest, None)
    for a in rest:
        if a < prev or (a == prev and a < n_even):
            return False
        prev = a
    return True


def multiplicities(indices: Sequence[int]) -> List[int]:
    out: List[int] = []
    prev = None
    for i in indices:
        if i == prev:
            out[-1] += 1
        else:
            out.append(1)
            prev = i
    return out


def self_evaluation_factor(indices: Sequence[int], n_even: int) -> int:
    """Value of a canonical basis monomial on its own index tuple.

    Equals (-1)^(p''(p''-1)/2) * prod(N_l!), p'' the number of odd entries
    and N_l the multiplicities.  Cross-checked in the tests against the
    brute-force wedge evaluation.
    """
    podd = sum(1 for i in indices if i >= n_even)
    sign = -1 if (podd * (podd - 1) // 2) % 2 else 1
    prod = 1
    for mult in multiplicities(indices):
        prod *= factorial(mult)
    return sign * prod
