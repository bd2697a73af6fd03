"""Block-graded square matrices, their bracket operations, and the integer
kernels that matrices and forms share.

A matrix of shape (n|m) is an (n+m) x (n+m) matrix over the Gaussian
rationals, graded by the two diagonal blocks: entries with row and column
in the same block are even, entries crossing blocks are odd.  The even
and odd parts of the bracket operations below carry all sign conventions
of the package, so everything downstream (structure constants, forms,
connections) inherits exactness from this module.

A ``GradedMatrix`` stores what a form coefficient stores: its nonzero
entries (``ints``) as sorted (unit u = r * (n + m) + c, 0 for the real or 1
for the imaginary part, integer numerator) triples over one positive
denominator ``den``, in lowest terms; the zero matrix is over 1.  That
storage is unique, so equality and hashing compare it.  Matrices and forms
run one set of integer kernels: ``add_times`` sums and scales,
``add_product`` multiplies, ``twisted`` and ``parity_split`` grade, and
``entries_of`` with ``common_divisor`` normalise.  The Scalar entries
(``nonzeros``, ``flat``, ``entries``, ``m[r, c]``) are views built from the
ints on each call, for printing and report text.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import ZERO, Scalar

Triple = Tuple[int, int, Scalar]
# the nonzero entries of a matrix times a common denominator, sorted, as
# (unit u = r * (n + m) + c, 0 for the real part or 1 for the imaginary
# part, integer numerator)
IntEntries = Sequence[Tuple[int, int, int]]
# a matrix being summed: (real parts, imaginary parts), each unit -> numerator
Parts = Tuple[Dict[int, int], Dict[int, int]]


# ======================================================================
# Integer kernels, shared with forms
# ======================================================================


def gaussian(s) -> Tuple[int, int, int]:
    """(a, b, q) with s = (a + i b) / q and q > 0, for an int, a Fraction or
    a Scalar s."""
    if isinstance(s, int):
        return s, 0, 1
    if isinstance(s, Fraction):
        return s.numerator, 0, s.denominator
    if type(s) is Scalar:
        x, y = s.re, s.im
        q = lcm(x.denominator, y.denominator)
        return x.numerator * (q // x.denominator), y.numerator * (q // y.denominator), q
    raise TypeError(f"cannot read {type(s).__name__} as a Gaussian rational")


@lru_cache(maxsize=None)
def odd_units(n: int, m: int) -> Tuple[int, ...]:
    """The parity of each unit u = r * (n + m) + c."""
    k = n + m
    return tuple(int((u // k < n) != (u % k < n)) for u in range(k * k))


def add_times(sums: Parts, entries: IntEntries, a: int, b: int = 0) -> None:
    """Add (a + i b) times the matrix of ``entries`` into ``sums``."""
    re, im = sums
    for u, part, y in entries:
        if a:
            acc = im if part else re
            acc[u] = acc.get(u, 0) + a * y
        if b:
            if part:
                re[u] = re.get(u, 0) - b * y
            else:
                im[u] = im.get(u, 0) + b * y


def rows_of(entries: IntEntries, k: int) -> Dict[int, list]:
    """Row t -> (column, part, numerator) over ``entries``."""
    rows: Dict[int, list] = {}
    for u, part, y in entries:
        t, c = divmod(u, k)
        rows.setdefault(t, []).append((c, part, y))
    return rows


def add_product(sums: Parts, left: IntEntries, right: Dict[int, list], k: int,
                sign: int) -> None:
    """Add sign * L R into ``sums``, for L given by its entries and R by its
    rows (``rows_of``)."""
    re, im = sums
    for u, p, x in left:
        t = u % k
        row = right.get(t)
        if row is None:
            continue
        base = u - t  # r * k for L's entry at (r, t)
        x *= sign
        for c, q, y in row:
            v = base + c
            if p and q:  # i * i
                re[v] = re.get(v, 0) - x * y
            else:
                acc = im if (p or q) else re
                acc[v] = acc.get(v, 0) + x * y


def twisted(entries: IntEntries, odd: Tuple[int, ...]) -> IntEntries:
    """The parity twist: the entries with the odd ones (``odd_units``) negated."""
    return [(u, part, -y) if odd[u] else (u, part, y) for u, part, y in entries]


def parity_split(entries: IntEntries, odd: Tuple[int, ...], parity: int
                 ) -> Tuple[IntEntries, IntEntries]:
    """(even entries, odd entries), the entry at unit u having parity
    odd[u] + ``parity``."""
    return ([e for e in entries if odd[e[0]] == parity],
            [e for e in entries if odd[e[0]] != parity])


def entries_of(sums: Parts) -> List[Tuple[int, int, int]]:
    """The nonzero numerators of ``sums`` as sorted entries."""
    re, im = sums
    out = [(u, 0, y) for u, y in re.items() if y]
    if im:
        out += [(u, 1, y) for u, y in im.items() if y]
    out.sort()
    return out


def common_divisor(den: int, groups: Iterable[IntEntries]) -> int:
    """The gcd of ``den`` and every numerator in ``groups``; dividing it out
    puts them in lowest terms."""
    g = den
    for entries in groups:
        if g == 1:
            break
        g = gcd(g, *[y for _, _, y in entries])
    return g


def divided(entries: IntEntries, g: int) -> IntEntries:
    """The entries with every numerator divided by ``g``."""
    return entries if g == 1 else [(u, part, y // g) for u, part, y in entries]


def combined(terms: Iterable[tuple], q: int = 1) -> Tuple[List[Tuple[int, int, int]], int]:
    """(entries, den) of the sum of (a + i b) / q times x over the (x, a, b)
    of ``terms``, each x a matrix or a derivation (``ints`` over ``den``):
    summed in ints over the lcm of their denominators times q > 0, not yet
    in lowest terms."""
    terms = list(terms)
    den = lcm(*(x.den for x, _, _ in terms))
    sums: Parts = ({}, {})
    for x, a, b in terms:
        f = den // x.den
        add_times(sums, x.ints, a * f, b * f)
    return entries_of(sums), den * q


# ======================================================================
# Graded matrices
# ======================================================================


class GradedMatrix:
    """An (n+m) x (n+m) matrix with the block Z2-grading.

    ``GradedMatrix(n, m, triples)`` takes (row, column, value) triples in
    any order, with values an int, a Fraction or a Scalar; it drops zeros
    and raises ``ValueError`` on a repeated or out-of-range position.
    Instances are immutable and hashable; all operations return new
    matrices.  An entry's parity is an index test, so the grading never
    needs dense copies.
    """

    __slots__ = ("n", "m", "ints", "den")

    def __new__(cls, n: int, m: int, triples: Iterable[Triple] = ()):
        k = n + m
        values: Dict[int, Tuple[int, int, int]] = {}
        for i, j, x in triples:
            if not (0 <= i < k and 0 <= j < k):
                raise ValueError(f"position ({i}, {j}) outside shape ({n}|{m})")
            u = i * k + j
            if u in values:
                raise ValueError(f"position ({i}, {j}) given twice")
            values[u] = gaussian(x)
        den = lcm(*(q for _, _, q in values.values()))
        re, im = sums = ({}, {})
        for u, (a, b, q) in values.items():
            re[u], im[u] = a * (den // q), b * (den // q)
        return _of_sums(n, m, sums, den)

    def __setattr__(self, name, value):
        raise AttributeError("GradedMatrix is immutable")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def from_ints(n: int, m: int, entries: IntEntries, den: int) -> "GradedMatrix":
        """The matrix of ``entries`` over ``den`` > 0, put in lowest terms.

        The entries must be as stored: sorted, each (unit, part) at most
        once, no zero numerator.
        """
        g = common_divisor(den, (entries,))
        return _new(n, m, tuple(divided(entries, g)), den // g)

    @staticmethod
    def zero(n: int, m: int) -> "GradedMatrix":
        return _zero_matrix(n, m)

    @staticmethod
    def identity(n: int, m: int) -> "GradedMatrix":
        k = n + m
        return _new(n, m, tuple((i * (k + 1), 0, 1) for i in range(k)), 1)

    @staticmethod
    def unit(n: int, m: int, i: int, j: int, value=1) -> "GradedMatrix":
        """The matrix with a single entry ``value`` at position (i, j)."""
        return GradedMatrix(n, m, ((i, j, value),))

    # ---- the Scalar views ---------------------------------------------

    @property
    def size(self) -> int:
        return self.n + self.m

    def _values(self) -> List[Tuple[int, Scalar]]:
        """(unit, value) over the nonzero entries, in unit order."""
        pairs: Dict[int, List[int]] = {}
        for u, part, y in self.ints:
            pairs.setdefault(u, [0, 0])[part] = y
        den = self.den
        return [(u, Scalar(Fraction(re, den), Fraction(im, den)))
                for u, (re, im) in pairs.items()]

    def nonzeros(self) -> Tuple[Triple, ...]:
        """The nonzero entries as (row, column, value) triples, row major."""
        k = self.n + self.m
        return tuple((u // k, u % k, x) for u, x in self._values())

    def flat(self) -> List[Scalar]:
        """The entries as one row-major list of (n+m)^2 Scalars."""
        k = self.n + self.m
        out = [ZERO] * (k * k)
        for u, x in self._values():
            out[u] = x
        return out

    @property
    def entries(self) -> tuple:
        """The dense rows, a tuple of tuples of Scalar (derived, read only)."""
        k = self.n + self.m
        flat = self.flat()
        return tuple(tuple(flat[i * k:(i + 1) * k]) for i in range(k))

    def __getitem__(self, rc) -> Scalar:
        r, c = rc
        k = self.n + self.m
        if not (0 <= r < k and 0 <= c < k):
            raise IndexError(f"position ({r}, {c}) outside shape ({self.n}|{self.m})")
        u = r * k + c
        at = bisect_left(self.ints, (u,))
        parts = [0, 0]
        for v, part, y in self.ints[at:at + 2]:
            if v == u:
                parts[part] = y
        re, im = parts
        if not (re or im):
            return ZERO
        return Scalar(Fraction(re, self.den), Fraction(im, self.den))

    # ---- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other):
        if type(other) is not GradedMatrix:
            return NotImplemented
        return (self is other or (
            self.n == other.n and self.m == other.m
            and self.den == other.den and self.ints == other.ints
        ))

    def __hash__(self):
        return hash((self.n, self.m, self.den, self.ints))

    # ---- linear structure ---------------------------------------------

    def _require_shape(self, other: "GradedMatrix"):
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError(
                f"shape mismatch: ({self.n}|{self.m}) vs ({other.n}|{other.m})"
            )

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._require_shape(other)
        if not other.ints:
            return self
        if not self.ints:
            return other
        return GradedMatrix.from_ints(self.n, self.m, *combined(((self, 1, 0), (other, 1, 0))))

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._require_shape(other)
        if not other.ints:
            return self
        return GradedMatrix.from_ints(self.n, self.m,
                                      *combined(((self, 1, 0), (other, -1, 0))))

    def __neg__(self) -> "GradedMatrix":
        return self.scale(-1)

    def scale(self, s) -> "GradedMatrix":
        """s times the matrix, for s an int, a Fraction or a Scalar."""
        a, b, q = gaussian(s)
        if (a, b, q) == (1, 0, 1):
            return self
        if not (a or b) or not self.ints:
            return _zero_matrix(self.n, self.m)
        return GradedMatrix.from_ints(self.n, self.m, *combined(((self, a, b),), q))

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._require_shape(other)
        if not self.ints or not other.ints:
            return _zero_matrix(self.n, self.m)
        k = self.n + self.m
        sums: Parts = ({}, {})
        add_product(sums, self.ints, rows_of(other.ints, k), k, 1)
        return _of_sums(self.n, self.m, sums, self.den * other.den)

    # ---- grading ------------------------------------------------------

    def parity_decompose(self) -> tuple["GradedMatrix", "GradedMatrix"]:
        """Split into (even part, odd part); the two always sum back to self."""
        n, m = self.n, self.m
        ev, od = parity_split(self.ints, odd_units(n, m), 0)
        return GradedMatrix.from_ints(n, m, ev, self.den), \
            GradedMatrix.from_ints(n, m, od, self.den)

    def homogeneous_parity(self) -> Optional[int]:
        """0 or 1 for homogeneous matrices, None for mixed.

        The zero matrix reports parity 0; callers that branch on parity treat
        it as belonging to either part.
        """
        odd = odd_units(self.n, self.m)
        parities = {odd[u] for u, _, _ in self.ints}
        return None if len(parities) > 1 else max(parities, default=0)

    # ---- traces -------------------------------------------------------

    def diagonal_sum(self, signed: bool) -> Tuple[int, int]:
        """The numerators over ``den`` of the real and imaginary parts of the
        sum of the diagonal entries, those of the second block negated when
        ``signed``."""
        k1 = self.n + self.m + 1
        second = self.n * k1  # the first diagonal unit of the second block
        pair = [0, 0]
        for u, part, y in self.ints:
            if u % k1 == 0:
                pair[part] += -y if signed and u >= second else y
        return pair[0], pair[1]

    def supertrace(self) -> Scalar:
        """Trace of the first diagonal block minus trace of the second."""
        re, im = self.diagonal_sum(True)
        return Scalar(Fraction(re, self.den), Fraction(im, self.den))

    def __str__(self):
        rows = [" ".join(str(x) for x in row) for row in self.entries]
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return f"GradedMatrix({self.n}, {self.m}, {self.nonzeros()!r})"


_set_n = GradedMatrix.n.__set__
_set_m = GradedMatrix.m.__set__
_set_ints = GradedMatrix.ints.__set__
_set_den = GradedMatrix.den.__set__


def _new(n: int, m: int, ints: tuple, den: int) -> GradedMatrix:
    """A matrix from entries already stored as ``ints`` over ``den``."""
    g = object.__new__(GradedMatrix)
    _set_n(g, n)
    _set_m(g, m)
    _set_ints(g, ints)
    _set_den(g, den)
    return g


def _of_sums(n: int, m: int, sums: Parts, den: int) -> GradedMatrix:
    """The matrix ``sums`` over ``den`` > 0, in lowest terms."""
    return GradedMatrix.from_ints(n, m, entries_of(sums), den)


@lru_cache(maxsize=None)
def _zero_matrix(n: int, m: int) -> GradedMatrix:
    return _new(n, m, (), 1)


# ======================================================================
# Bracket operations
# ======================================================================


def _graded_bracket(a: GradedMatrix, b: GradedMatrix, commutator: bool) -> GradedMatrix:
    """ab -/+ (-1)^{|a||b|} ba, summed over the homogeneous parts of a and b.

    Entry by entry the sign of a product b_it a_tj depends only on the
    parities of its two factors: so ba enters as (even part of b) a plus
    (odd part of b) times the parity twist of a, and a needs no split.
    """
    a._require_shape(b)
    n, m = a.n, a.m
    if not a.ints or not b.ints:
        return _zero_matrix(n, m)
    k = n + m
    odd = odd_units(n, m)
    sign = -1 if commutator else 1
    b_even, b_odd = parity_split(b.ints, odd, 0)
    sums: Parts = ({}, {})
    add_product(sums, a.ints, rows_of(b.ints, k), k, 1)
    if b_even:
        add_product(sums, b_even, rows_of(a.ints, k), k, sign)
    if b_odd:
        add_product(sums, b_odd, rows_of(twisted(a.ints, odd), k), k, sign)
    return _of_sums(n, m, sums, a.den * b.den)


def graded_commutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """[a, b] = ab - (-1)^{|a||b|} ba, extended bilinearly to mixed inputs."""
    return _graded_bracket(a, b, True)


def graded_anticommutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """{a, b} = ab + (-1)^{|a||b|} ba, extended bilinearly to mixed inputs."""
    return _graded_bracket(a, b, False)


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
    k, nt = a.n + a.m, max(a.n, a.m)
    off = 0 if first else a.n
    # the block's units keep their order, so the entries stay sorted
    return GradedMatrix.from_ints(nt, 0, [
        ((r - off) * nt + c - off, part, y) for u, part, y in a.ints
        for r, c in (divmod(u, k),) if off <= r < off + nt and off <= c < off + nt
    ], a.den)


def embed_body(mb: GradedMatrix, n: int, m: int) -> GradedMatrix:
    """Right inverse of ``body``, tracing the body into the small block.

    ``mb`` has shape (nt|0), nt = max(n, m).  The complementary block is
    (tr(mb)/nt) times the identity.  This sends the body identity to the
    full identity and satisfies body(embed_body(mb, n, m)) == mb.
    """
    first = body_block_is_first(n, m)
    k, nt = n + m, max(n, m)
    if (mb.n, mb.m) != (nt, 0):
        raise ValueError(f"body matrix has shape ({mb.n}|{mb.m}), expected ({nt}|0)")
    off = 0 if first else n
    # over nt * den: the block times nt, the complementary diagonal the trace
    sums: Parts = ({}, {})
    for u, part, y in mb.ints:
        r, c = divmod(u, nt)
        sums[part][(off + r) * k + off + c] = nt * y
    coff = n if first else 0
    trace = mb.diagonal_sum(False)
    for i in range(min(n, m)):
        sums[0][(coff + i) * (k + 1)], sums[1][(coff + i) * (k + 1)] = trace
    return _of_sums(n, m, sums, nt * mb.den)
