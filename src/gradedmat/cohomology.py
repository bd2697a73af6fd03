"""Cohomology of the graded form complex and its classical body.

The exterior derivative turns the form spaces into a cochain complex; its
cohomology is computed through exact ranks, block by block in the weight
grading of the diagonal Cartan subalgebra.  Only the zero-weight block of
each d_p is eliminated (exactly, with the modular cross-check); every other
weight is acyclic by the Cartan homotopy d i_h + i_h d = lambda(h), which
is checked on each of its columns together with d_p d_(p-1) = 0, and
contributes dim C^p_lambda minus the rank of d_(p-1) on it.  Both the
certificate and the elimination read the integer numerators that
``formspace.d_matrix`` keeps over the kernel denominator, at positions of
``formspace.FormBasis``, which owns the label weights: the certificate
reads the weight of each index tuple and matrix unit off the bases.

A degree is one frozen record, ``ChainDegreeData``, made by
``differential_matrix`` only once d_p was built, certified against the
record of degree p-1 and its zero-weight block (d_p's columns on
``FormBasis.zero_weight()``) ranked; a degree that fails leaves nothing in
the cache.  Every class of H^p lives in that block, so the integer cocycle
representatives and the body map on cohomology read it alone; the cocycles
are the block's kernel, sparse integer vectors back-substituted from the
echelon that ranked it, so the block is eliminated once.  The
elimination of all of d_p (``LinearMapMatrix.rank``, ``kernel``) is kept
as the test oracle.

The module also carries the body maps, of forms and of even derivations,
that relate the graded complex at (n|m) to the classical one of the
dominant diagonal block; the tests hold the Betti numbers to a
self-contained Chevalley-Eilenberg solver for ordinary Lie algebras.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from . import linalg
from .basis import body_adapted_basis
from .constants import StructureConstants, compute_constants, derived
from .forms import DerivationVector, GradedForm
from .formspace import (
    FormBasis, LinearMapMatrix, _decode, basis_form, d_matrix, form_to_sparse,
    vector_to_form,
)
from .indexset import index_count
from .matrices import GradedMatrix, body, embed_body

# Largest number of labels (I, r, c) a run may hold, by ``held_labels``: d_3 at
# (3|2) holds 416025, d_15 at (2|1) 450441; d_16 there 569169, (5|2) d_2 953197.
HELD_LABELS_CAP = 500_000
# Labels an empty degree counts at least: it holds 3.4 KB, a label 0.83 KB.
EMPTY_DEGREE_LABELS = 5

# Largest n + m the CLI admits: `verify` takes about 1.6 s of CPU at (4|1)
# and about doubles per unit of n, to 13-16 s and 130 MB at (7|1); the
# constants alone at (40|1) take about an hour.
MATRIX_SIZE_CAP = 8


class DifferentialTooLarge(Exception):
    """Raised when building d_p would hold more labels than the cap allows."""


class CertificateError(Exception):
    """Raised when d_p fails its weight, homotopy or d o d = 0 check."""


def held_labels(sc: StructureConstants, p: int) -> int:
    """Labels of degrees 0..p+1, what a run holds once d_p is built.

    Every d_q stays in ``sc.cache``.  An empty degree counts as (n+m)^2
    labels, at least ``EMPTY_DEGREE_LABELS``, so empty runs are bounded too.
    """
    ev, od, units = sc.even_dim, sc.odd_dim, (sc.n + sc.m) ** 2
    # with no odd elements every degree above even_dim is empty
    top = p + 1 if od else min(p + 1, ev)
    tuples = sum(index_count(ev, od, q) for q in range(top + 1))
    return tuples * units + (p + 1 - top) * max(units, EMPTY_DEGREE_LABELS)


class ChainDegreeData(NamedTuple):
    """One certified degree of the complex: d_p, its columns the degree-p basis.

    Made only by ``differential_matrix``, once d_p passed its certificate
    against d_(p-1) (see "Weights and the Cartan homotopy" below).
    ``weight_ranks`` maps each weight code to the rank of d_p on the columns
    of that weight: the zero weight by elimination of ``zero_block``, d_p on
    the basis ``matrix.basis.zero_weight()``, every other weight from the
    certificate.  So ``zero_block`` holds every class of H^p.
    ``matrix.rank()``, the elimination of all of d_p, is the test oracle.
    """

    p: int
    matrix: LinearMapMatrix
    zero_block: LinearMapMatrix
    weight_ranks: Dict[int, int]

    @property
    def dim(self) -> int:
        return self.matrix.ncols

    def rank(self) -> int:
        return sum(self.weight_ranks.values())

    def kernel_dim(self) -> int:
        return self.dim - self.rank()


def differential_matrix(sc: StructureConstants, p: int) -> ChainDegreeData:
    """The certified degree p: d_p from degree p to degree p+1, over the form bases.

    Refused up front when the run would then hold more than
    ``HELD_LABELS_CAP`` labels.  Otherwise d_p is written by the sparse
    column kernel ``formspace.d_matrix``, certified against d_(p-1), and its
    zero-weight block ranked (``_certified_degree``).  The degree and the
    cap are checked on every call; the record is kept only once all of that
    passed, so a failed certificate leaves nothing of degree p.
    """
    if p < 0:
        raise ValueError("degree must be nonnegative")
    need = held_labels(sc, p)
    if need > HELD_LABELS_CAP:
        raise DifferentialTooLarge(
            f"d at degree {p} needs the labels of degrees 0..{p + 1}, "
            f"{need} in all, cap is {HELD_LABELS_CAP}"
        )
    return _certified_degree(sc, p)


@derived("differential")
def _certified_degree(sc: StructureConstants, p: int) -> ChainDegreeData:
    """d_p built, certified against d_(p-1) and its zero-weight block ranked."""
    # held_labels rises with p, so d_p admitted admits d_(p-1)
    prev = differential_matrix(sc, p - 1) if p > 0 else None
    mat = d_matrix(FormBasis(sc, p))
    ranks = _certified_ranks(sc, p, mat, prev)
    zero = mat.basis.zero_weight()
    block = LinearMapMatrix(zero, mat.nrows,
                            [mat.columns[j] for j in zero.positions], mat.den)
    if block.columns:
        ranks[0] = block.rank()
    return ChainDegreeData(p, mat, block, ranks)


def chain_degrees(
    sc: StructureConstants, max_p: int
) -> Iterator[Tuple[ChainDegreeData, int]]:
    """(d_p, b_p) for p = 0..max_p in turn; b_p = dim ker d_p - rank d_(p-1).

    Degree p is built and certified only after degree p-1 was yielded, so a
    caller stopped by the cap or a failed certificate keeps the degrees before.
    """
    prev_rank = 0
    for p in range(max_p + 1):
        data = differential_matrix(sc, p)
        yield data, data.kernel_dim() - prev_rank
        prev_rank = data.rank()


def betti_numbers(sc: StructureConstants, max_p: int) -> List[int]:
    """b_p for p = 0..max_p, exact."""
    return [b for _, b in chain_degrees(sc, max_p)]


# ======================================================================
# Weights and the Cartan homotopy
# ======================================================================
#
# d preserves the weight of a label (``formspace``, "Label weights").  For
# a diagonal basis element h the graded Cartan calculus gives
# L_h = d i_h + i_h d, and L_h acts on weight lambda as lambda(h); here h
# is even, so
#   i_h (E_rc theta^I) = (-1)^j E_rc theta^(I without h)
# for h at position j of I (only even entries precede it), and 0 when h
# is not in I.  Where lambda(h) != 0, i_h / lambda(h) contracts the
# weight-lambda subcomplex, so it is acyclic:
#   rank d_p on lambda = dim C^p_lambda - rank d_(p-1) on lambda.
# A weight of coordinate sum 0 that vanishes on every supertraceless
# diagonal h is a multiple of the supertrace, hence 0 when n != m
# (Hochschild and Serre, Ann. Math. 57, 1953).  So only the zero-weight
# block needs elimination.
#
# ``_certified_ranks`` does not take this on trust.  It checks, on the
# integer numerators of d_p and d_(p-1) over their shared denominator, that
# every entry of every column of d_p lies in the column's weight, and that
# the homotopy identity holds on every column of every nonzero weight: on
# that weight, ker d_p lies within im d_(p-1).
# It also checks d_p d_(p-1) = 0 on every column of d_(p-1), the reverse
# inclusion, without which a wrong entry in a row the identity never reads
# (a row whose tuple lacks h) could pass and leave the rank too low.  The
# Betti numbers rest on the same composition.


@derived("cartan_elements")
def _cartan_elements(sc: StructureConstants) -> List[Tuple[int, List[int], int]]:
    """(index, diagonal numerators, denominator) of each real diagonal basis
    element."""
    got = []
    k1 = sc.n + sc.m + 1
    for a, e in enumerate(sc.basis.elements):
        if all(u % k1 == 0 and not part for u, part, _ in e.ints):
            diag = [0] * (k1 - 1)
            for u, _, y in e.ints:
                diag[u // k1] = y
            got.append((a, diag, e.den))
    return got


def _contracting_element(
    weight: List[int], cartan: List[Tuple[int, List[int], int]]
) -> Optional[Tuple[int, int, int]]:
    """The first diagonal basis element h with lambda(h) != 0, and lambda(h)
    as (h, numerator, denominator)."""
    for h, diag, den in cartan:
        val = sum(x * y for x, y in zip(weight, diag))
        if val:
            return h, val, den
    return None


@derived("cartan_contractions")
def _contractions(sc: StructureConstants, q: int) -> List[Dict[int, Tuple[int, int]]]:
    """For each canonical q-tuple J: diagonal h in J -> (offset of J without h, sign).

    The offset is that tuple's ``FormBasis.offset`` in degree q-1, and the
    sign is (-1)^j for h at position j.
    """
    cartan = {a for a, _, _ in _cartan_elements(sc)}
    lower = FormBasis(sc, q - 1)
    return [{h: (lower.offset(J[:j] + J[j + 1:]), -1 if j % 2 else 1)
             for j, h in enumerate(J) if h in cartan}
            for J in FormBasis(sc, q).tuples]


def _certified_ranks(
    sc: StructureConstants, p: int, mat: LinearMapMatrix,
    prev: Optional[ChainDegreeData],
) -> Dict[int, int]:
    """The rank of d_p = ``mat`` on each nonzero weight, by weight code.

    ``prev`` is the certified degree p-1 (None at p = 0).  Raises
    ``CertificateError`` naming the degree and label of the first column
    that leaves its weight, fails the homotopy identity, or is not killed
    by d_p d_(p-1); there is no fallback to full elimination.
    """
    k = sc.n + sc.m
    den = mat.den
    basis, out = mat.basis, FormBasis(sc, p + 1)
    (in_w, unit_w), (out_w, _), split = basis.weights(), out.weights(), out.split
    out_contr = _contractions(sc, p + 1)
    if p > 0:
        if prev.matrix.den != den:
            raise CertificateError(
                f"d at degree {p} is over the denominator {den}, d at degree "
                f"{p - 1} over {prev.matrix.den}"
            )
        in_contr = _contractions(sc, p)
    cartan = _cartan_elements(sc)

    def fail(j: int, why: str):
        raise CertificateError(f"d at degree {p}, column {basis[j]}: {why}")

    homotopy: Dict[int, Optional[Tuple[int, int, int]]] = {}
    counts: Dict[int, int] = {}
    for j, col in enumerate(mat.columns):
        t, u = basis.split(j)
        lam = in_w[t] + unit_w[u]
        counts[lam] = counts.get(lam, 0) + 1
        h = None
        if lam:
            if lam not in homotopy:
                homotopy[lam] = _contracting_element(_decode(lam, k), cartan)
            if homotopy[lam] is None:
                fail(j, f"no diagonal basis element acts on weight {_decode(lam, k)}")
            h, val, val_den = homotopy[lam]
        # i_h (d_p x), in ints over den; on weight 0 (h None) only the
        # weight of each row is checked
        acc: Dict[int, int] = {}
        for i, v in col.items():
            ti, ui = split(i)
            if out_w[ti] + unit_w[ui] != lam:
                fail(j, f"row {i} lies outside the column's weight")
            hit = out_contr[ti].get(h)
            if hit is not None:
                row = hit[0] + ui
                acc[row] = acc.get(row, 0) + hit[1] * v
        if h is None:
            continue
        # + d_(p-1) (i_h x)
        if p > 0:
            hit = in_contr[t].get(h)
            if hit is not None:
                for i, v in prev.matrix.columns[hit[0] + u].items():
                    acc[i] = acc.get(i, 0) + hit[1] * v
        if val * den != acc.pop(j, 0) * val_den or any(acc.values()):
            fail(j, f"i_h d + d i_h is not {Fraction(val, val_den)} times the identity "
                    f"(h = {h})")
    if p > 0:
        # d_p d_(p-1) = 0 on every column of d_(p-1): with the homotopy it
        # gives dim ker d_p = rank d_(p-1) on each nonzero weight
        for y, col in enumerate(prev.matrix.columns):
            if linalg.combine(mat.columns, col):
                raise CertificateError(
                    f"d at degree {p}: d_p d_(p-1) is not 0 on column "
                    f"{prev.matrix.basis[y]} of degree {p - 1}"
                )
    ranks = {lam: dim - (prev.weight_ranks.get(lam, 0) if p > 0 else 0)
             for lam, dim in counts.items() if lam}
    return ranks


# ======================================================================
# Body maps
# ======================================================================


def adapted_constants_for(n: int, m: int) -> StructureConstants:
    """Constants over the body-adapted basis (dominant block listed first)."""
    return compute_constants(body_adapted_basis(n, m))


def ensure_body_adapted(sc: StructureConstants, sc_body: StructureConstants):
    """Check the basis is body-adapted; raise ValueError otherwise.

    Adapted means: the first nt^2-1 elements are supported purely in the
    dominant diagonal block and project exactly onto the body basis, and
    every other even element has central body (so its body derivation
    vanishes).  A passed check is remembered in ``sc.cache``; the entry
    holds ``sc_body`` itself, so its id cannot be reused while it lives.
    """
    key = ("body_adapted", id(sc_body))
    if sc.cache.get(key) is sc_body:
        return
    nt = max(sc.n, sc.m)
    if (sc_body.n, sc_body.m) != (nt, 0):
        raise ValueError("body constants do not match the dominant block")
    blk = nt * nt - 1
    if sc_body.dim != blk:
        raise ValueError("body basis has unexpected dimension")
    for a in range(blk):
        e = sc.basis.elements[a]
        be = body(e)
        if embed_body(be, sc.n, sc.m) != e:
            raise ValueError(f"element {a} is not purely dominant-block")
        if be != sc_body.basis.elements[a]:
            raise ValueError(f"element {a} does not project onto body element {a}")
    for a in range(blk, sc.even_dim):
        ints = body(sc.basis.elements[a]).ints
        first = [(part, y) for u, part, y in ints if u == 0]
        if ints != tuple((i * (nt + 1), part, y) for i in range(nt) for part, y in first):
            raise ValueError(f"even element {a} has non-central body")
    sc.cache[key] = sc_body


def body_map_forms(
    sc: StructureConstants, sc_body: StructureConstants, form: GradedForm
) -> GradedForm:
    """Project a graded form onto the classical complex of the body.

    Coefficients survive only on index tuples lying entirely in the
    dominant-block range; each surviving matrix is replaced by its body.
    """
    ensure_body_adapted(sc, sc_body)
    blk = sc_body.dim
    coeffs: Dict[Tuple[int, ...], GradedMatrix] = {}
    for key, mat in form.coeffs.items():
        if all(i < blk for i in key):
            coeffs[key] = body(mat)
    return GradedForm.of(sc_body, form.degree, coeffs)


def body_vector_field(
    sc: StructureConstants, sc_body: StructureConstants, d: DerivationVector
) -> DerivationVector:
    """Push an even derivation down to the body."""
    ensure_body_adapted(sc, sc_body)
    if d.homogeneous_parity() != 0 and not d.is_zero():
        raise ValueError("only even derivations descend to the body")
    blk = sc_body.dim
    return DerivationVector(sc_body.basis, tuple(e for e in d.ints if e[0] < blk), d.den)


def body_map_matrix(
    sc: StructureConstants, sc_body: StructureConstants, p: int
) -> LinearMapMatrix:
    """The body projection as a matrix between form spaces at degree p."""
    basis, out = FormBasis(sc, p), FormBasis(sc_body, p)
    images = [form_to_sparse(body_map_forms(sc, sc_body, basis_form(sc, lab)), out)
              for lab in basis]
    return LinearMapMatrix.from_images(basis, len(out), images)


# ======================================================================
# Representatives and the induced map on cohomology
# ======================================================================


def _independent_modulo_image(
    sc: StructureConstants, p: int, vectors: Iterable[linalg.SparseIntRow]
) -> List[int]:
    """Positions of the vectors independent of im d_(p-1) and of those before them.

    The image is read on weight 0, where the classes of H^p lie.
    """
    ech = linalg.SparseEchelon()
    if p > 0:
        for col in differential_matrix(sc, p - 1).zero_block.columns:
            ech.add_row(col)
    return [t for t, row in enumerate(vectors) if ech.add_row(row)]


def cocycle_representatives(sc: StructureConstants, p: int) -> List[linalg.SparseIntRow]:
    """Integer cocycles of d_p whose classes are a basis of H^p, b_p of them.

    Each cocycle is sparse over the degree-p positions.  Every class lives
    in the zero-weight block, since the certificate of the degree shows
    the other weights acyclic.  So the kernel of that block, read off the
    echelon of its rank, is completed past the zero-weight image of
    d_(p-1), and each vector kept is moved to the positions of its
    zero-weight columns.
    """
    block = differential_matrix(sc, p).zero_block
    positions = block.basis.positions
    cocycles = [{positions[j]: v for j, v in vec.items()} for vec in block.kernel()]
    return [cocycles[t] for t in _independent_modulo_image(sc, p, cocycles)]


def body_h_map_injective(
    sc: StructureConstants, sc_body: StructureConstants, p: int
) -> bool:
    """Whether the body map is injective on H^p classes.

    Pushes a representative basis of H^p to the body complex, one form
    each, and checks, by exact rank, that no nontrivial combination lands
    in the body coboundaries.  The representatives are integer, so each
    image is real, and its denominator scales it without changing the rank.
    """
    reps = cocycle_representatives(sc, p)
    basis, out = FormBasis(sc, p), FormBasis(sc_body, p)
    images = [{i: y for i, _, y in form_to_sparse(
                  body_map_forms(sc, sc_body, vector_to_form(vec, basis)), out)[0]}
              for vec in reps]
    return len(_independent_modulo_image(sc_body, p, images)) == len(reps)
