"""Block-graded square matrices and their bracket operations.

A matrix of shape (n|m) is an (n+m) x (n+m) matrix over the Gaussian
rationals, graded by the two diagonal blocks: entries with row and column
in the same block are even, entries crossing blocks are odd.  The even
and odd parts of the bracket operations below carry all sign conventions
of the package, so everything downstream (structure constants, forms,
connections) inherits exactness from this module.

A ``GradedMatrix`` stores one thing: the row-major tuple of its nonzero
(row, column, value) triples, never holding a zero.  That tuple is what
``nonzeros`` returns and what equality and hashing compare; sums,
products, brackets, the parity split and twist and the traces all run
over it, since nearly every matrix the package handles is a basis element
or a form coefficient with a few nonzero entries.  The dense rows
(``entries``) and the flat row-major vector (``flat``) are views derived
on demand, for printing, tests and the small dense solves.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, Scalar

Triple = Tuple[int, int, Scalar]


def _index_parity(i: int, n: int) -> int:
    return 0 if i < n else 1


def _rows(triples: Iterable[Triple]) -> Dict[int, List[Tuple[int, Scalar]]]:
    """Row index -> list of (column, value) over the triples."""
    rows: Dict[int, List[Tuple[int, Scalar]]] = {}
    for i, j, x in triples:
        got = rows.get(i)
        if got is None:
            rows[i] = [(j, x)]
        else:
            got.append((j, x))
    return rows


class GradedMatrix:
    """An (n+m) x (n+m) matrix with the block Z2-grading.

    ``GradedMatrix(n, m, triples)`` takes (row, column, value) triples in
    any order, with values coercible to Scalar; it drops zeros and rejects
    repeated or out-of-range positions.  Instances are immutable and
    hashable; all operations return new matrices.  An entry's parity is
    an index test, so the grading never needs dense copies.
    """

    __slots__ = ("n", "m", "_triples")

    def __init__(self, n: int, m: int, triples: Iterable[Triple] = ()):
        k = n + m
        seen: Dict[Tuple[int, int], Scalar] = {}
        for i, j, x in triples:
            if not (0 <= i < k and 0 <= j < k):
                raise ValueError(f"position ({i}, {j}) outside shape ({n}|{m})")
            if (i, j) in seen:
                raise ValueError(f"position ({i}, {j}) given twice")
            seen[(i, j)] = Scalar.of(x)
        _set_n(self, n)
        _set_m(self, m)
        _set_triples(self, tuple(
            (i, j, x) for (i, j), x in sorted(seen.items()) if x is not ZERO
        ))

    def __setattr__(self, name, value):
        raise AttributeError("GradedMatrix is immutable")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def from_rows(n: int, m: int, rows: Sequence[Sequence]) -> "GradedMatrix":
        k = n + m
        if len(rows) != k or any(len(r) != k for r in rows):
            raise ValueError(f"expected {k}x{k} rows for shape ({n}|{m})")
        triples = []
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                x = Scalar.of(x)
                if x is not ZERO:
                    triples.append((i, j, x))
        return _new(n, m, tuple(triples))

    @staticmethod
    def from_units(n: int, m: int, values: Mapping[int, Scalar]) -> "GradedMatrix":
        """The matrix with entry ``values[u]`` at unit u = row * (n + m) + col.

        The values must be Scalars; zeros are dropped.
        """
        k = n + m
        return _new(n, m, tuple(
            (u // k, u % k, x) for u, x in sorted(values.items()) if x is not ZERO
        ))

    @staticmethod
    def zero(n: int, m: int) -> "GradedMatrix":
        return _zero_matrix(n, m)

    @staticmethod
    def identity(n: int, m: int) -> "GradedMatrix":
        return _new(n, m, tuple((i, i, ONE) for i in range(n + m)))

    @staticmethod
    def unit(n: int, m: int, i: int, j: int, value=1) -> "GradedMatrix":
        """The matrix with a single entry ``value`` at position (i, j)."""
        return GradedMatrix(n, m, ((i, j, value),))

    # ---- basic queries ------------------------------------------------

    @property
    def size(self) -> int:
        return self.n + self.m

    def nonzeros(self) -> Tuple[Triple, ...]:
        """The nonzero entries as (row, column, value) triples, row major."""
        return self._triples

    def flat(self) -> List[Scalar]:
        """The entries as one row-major list of (n+m)^2 Scalars."""
        k = self.n + self.m
        out = [ZERO] * (k * k)
        for i, j, x in self._triples:
            out[i * k + j] = x
        return out

    @property
    def entries(self) -> tuple:
        """The dense rows, a tuple of tuples of Scalar (derived, read only)."""
        k = self.n + self.m
        flat = self.flat()
        return tuple(tuple(flat[i * k:(i + 1) * k]) for i in range(k))

    def __getitem__(self, rc) -> Scalar:
        r, c = rc
        for i, j, x in self._triples:
            if i == r and j == c:
                return x
        return ZERO

    def is_zero(self) -> bool:
        return not self._triples

    def entry_parity(self, i: int, j: int) -> int:
        return (_index_parity(i, self.n) + _index_parity(j, self.n)) % 2

    def __eq__(self, other):
        if type(other) is not GradedMatrix:
            return NotImplemented
        return (self is other or (
            self.n == other.n and self.m == other.m
            and self._triples == other._triples
        ))

    def __hash__(self):
        return hash((self.n, self.m, self._triples))

    # ---- linear structure ---------------------------------------------

    def _require_shape(self, other: "GradedMatrix"):
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError(
                f"shape mismatch: ({self.n}|{self.m}) vs ({other.n}|{other.m})"
            )

    def _sum(self, other: "GradedMatrix", negate: bool) -> "GradedMatrix":
        """self + other, or self - other when ``negate``."""
        k = self.n + self.m
        acc = {i * k + j: x for i, j, x in self._triples}
        for i, j, y in other._triples:
            u = i * k + j
            cur = acc.get(u)
            if cur is None:
                acc[u] = -y if negate else y
            else:
                acc[u] = cur - y if negate else cur + y
        return GradedMatrix.from_units(self.n, self.m, acc)

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._require_shape(other)
        if not other._triples:
            return self
        if not self._triples:
            return other
        return self._sum(other, False)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._require_shape(other)
        if not other._triples:
            return self
        return self._sum(other, True)

    def __neg__(self) -> "GradedMatrix":
        return self.scale(-1)

    def scale(self, s) -> "GradedMatrix":
        s = Scalar.of(s)
        if s is ONE:
            return self
        if s is ZERO or not self._triples:
            return _zero_matrix(self.n, self.m)
        # the Gaussian rationals are a field: no product of nonzeros is zero
        return _new(self.n, self.m, tuple((i, j, s * x) for i, j, x in self._triples))

    def __rmul__(self, s):
        if isinstance(s, (int, Fraction, Scalar)):
            return self.scale(s)
        return NotImplemented

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._require_shape(other)
        if not self._triples or not other._triples:
            return _zero_matrix(self.n, self.m)
        k = self.n + self.m
        brows = _rows(other._triples)
        acc: Dict[int, Scalar] = {}
        for i, t, x in self._triples:
            for j, y in brows.get(t, ()):
                u = i * k + j
                cur = acc.get(u)
                acc[u] = x * y if cur is None else cur + x * y
        return GradedMatrix.from_units(self.n, self.m, acc)

    # ---- grading ------------------------------------------------------

    def parity_decompose(self) -> tuple["GradedMatrix", "GradedMatrix"]:
        """Split into (even part, odd part); the two always sum back to self."""
        n = self.n
        ev = tuple(t for t in self._triples if (t[0] < n) == (t[1] < n))
        od = tuple(t for t in self._triples if (t[0] < n) != (t[1] < n))
        return _new(self.n, self.m, ev), _new(self.n, self.m, od)

    def parity_twist(self) -> "GradedMatrix":
        """The even part minus the odd part."""
        if self.is_even():
            return self
        n = self.n
        return _new(self.n, self.m, tuple(
            (i, j, x if (i < n) == (j < n) else -x) for i, j, x in self._triples
        ))

    def homogeneous_parity(self) -> Optional[int]:
        """0 or 1 for homogeneous matrices, None for mixed.

        The zero matrix reports parity 0; callers that branch on parity treat
        it as belonging to either part.
        """
        if self.is_even():
            return 0
        if self.is_odd():
            return 1
        return None

    def is_even(self) -> bool:
        n = self.n
        return all((i < n) == (j < n) for i, j, _ in self._triples)

    def is_odd(self) -> bool:
        n = self.n
        return all((i < n) != (j < n) for i, j, _ in self._triples)

    # ---- traces -------------------------------------------------------

    def trace(self) -> Scalar:
        t = ZERO
        for i, j, x in self._triples:
            if i == j:
                t = t + x
        return t

    def supertrace(self) -> Scalar:
        """Trace of the first diagonal block minus trace of the second."""
        t = ZERO
        for i, j, x in self._triples:
            if i == j:
                t = t + x if i < self.n else t - x
        return t

    def __str__(self):
        rows = [" ".join(str(x) for x in row) for row in self.entries]
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return f"GradedMatrix({self.n}, {self.m}, {self._triples!r})"


_set_n = GradedMatrix.n.__set__
_set_m = GradedMatrix.m.__set__
_set_triples = GradedMatrix._triples.__set__


def _new(n: int, m: int, triples: Tuple[Triple, ...]) -> GradedMatrix:
    """A matrix from row-major triples already free of zeros."""
    g = object.__new__(GradedMatrix)
    _set_n(g, n)
    _set_m(g, m)
    _set_triples(g, triples)
    return g


@lru_cache(maxsize=None)
def _zero_matrix(n: int, m: int) -> GradedMatrix:
    return _new(n, m, ())


# ======================================================================
# Bracket operations
# ======================================================================


def _graded_bracket(a: GradedMatrix, b: GradedMatrix, commutator: bool) -> GradedMatrix:
    """ab -/+ (-1)^{|a||b|} ba, summed over the homogeneous parts of a and b.

    Entry by entry the sign of a product b_it a_tj depends only on the
    parities of its two factors, which are index tests; so the bracket of
    mixed inputs needs no parity split.
    """
    ab = a @ b
    if not a._triples or not b._triples:
        return ab
    n, k = a.n, a.n + a.m
    acc = {i * k + j: x for i, j, x in ab._triples}
    arows = _rows(a._triples)
    for i, t, y in b._triples:
        odd_b = (i < n) != (t < n)
        for j, x in arows.get(t, ()):
            both_odd = odd_b and (t < n) != (j < n)
            term = y * x if both_odd == commutator else -(y * x)
            u = i * k + j
            cur = acc.get(u)
            acc[u] = term if cur is None else cur + term
    return GradedMatrix.from_units(a.n, a.m, acc)


def graded_commutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """[a, b] = ab - (-1)^{|a||b|} ba, extended bilinearly to mixed inputs."""
    return _graded_bracket(a, b, True)


def graded_anticommutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """{a, b} = ab + (-1)^{|a||b|} ba, extended bilinearly to mixed inputs."""
    return _graded_bracket(a, b, False)


def supertrace(a: GradedMatrix) -> Scalar:
    return a.supertrace()


# ======================================================================
# Body and embedding
# ======================================================================
#
# For n != m the "body" of the algebra is the larger diagonal block: the
# first block when n > m, the second when m > n.  The body of a matrix is
# that block alone, a ``GradedMatrix`` of shape (nt|0) with nt = max(n, m),
# so it is an element of the body algebra; the embedding puts it back with the
# complementary block filled by the unique scalar matrix making the result
# supertrace-free relative to the original trace.


def body_block_is_first(n: int, m: int) -> bool:
    if n == m:
        raise ValueError("body is undefined for n == m")
    return n > m


def body(a: GradedMatrix) -> GradedMatrix:
    """Project onto the larger diagonal block, of shape (nt|0), nt = max(n, m).

    Requires n != m.
    """
    first = body_block_is_first(a.n, a.m)
    nt = max(a.n, a.m)
    off = 0 if first else a.n
    return GradedMatrix(nt, 0, [
        (i - off, j - off, x) for i, j, x in a.nonzeros()
        if 0 <= i - off < nt and 0 <= j - off < nt
    ])


def embed_body(mb: GradedMatrix, n: int, m: int) -> GradedMatrix:
    """Right inverse of ``body``, tracing the body into the small block.

    ``mb`` has shape (nt|0), nt = max(n, m).  The complementary block is
    (tr(mb)/nt) times the identity.  This sends the body identity to the
    full identity and satisfies body(embed_body(mb, n, m)) == mb.
    """
    first = body_block_is_first(n, m)
    nt = max(n, m)
    if (mb.n, mb.m) != (nt, 0):
        raise ValueError(f"body matrix has shape ({mb.n}|{mb.m}), expected ({nt}|0)")
    off = 0 if first else n
    triples = [(off + i, off + j, x) for i, j, x in mb.nonzeros()]
    scal = mb.trace() / nt
    coff = n if first else 0
    triples += [(coff + i, coff + i, scal) for i in range(min(n, m))]
    return GradedMatrix(n, m, triples)
