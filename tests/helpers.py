"""Helpers that more than one test module uses.

Random data, reference implementations and sparse readers shared between
test modules live here, so that no test module imports another.
"""
import ast
import math
from fractions import Fraction
from pathlib import Path

from gradedmat import linalg
from gradedmat.bundles import (
    Connection,
    fm_sub,
    fm_wedge,
    identity_form_matrix,
)
from gradedmat.constants import StructureConstants
from gradedmat.forms import GradedForm, canonical_one_form, evaluate_on_basis
from gradedmat.formspace import form_to_sparse
from gradedmat.indexset import enumerate_multi_indices, index_parity, self_evaluation_factor
from gradedmat.matrices import GradedMatrix
from gradedmat.sampling import random_form, random_homogeneous_matrix
from gradedmat.scalars import Scalar
from tests.reference import from_rows

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def constants_with(sc, **changes):
    """A new ``StructureConstants`` with the fields of ``sc`` and ``changes``,
    and an empty cache."""
    fields = dict(basis=sc.basis, c=sc.c, d=sc.d, den=sc.den, g=sc.g, g_den=sc.g_den,
                  g_inv=sc.g_inv, g_inv_den=sc.g_inv_den)
    return StructureConstants(**{**fields, **changes})


def rand_scalar(rng):
    return Scalar(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))


def rand_matrix(rng, sc):
    size = sc.n + sc.m
    rows = [[rand_scalar(rng) for _ in range(size)] for _ in range(size)]
    return from_rows(sc.n, sc.m, rows)


def sparse_values(form, basis):
    """The coordinates of ``form`` over ``basis`` as {position: Scalar}, read
    back from the integer entries ``form_to_sparse`` gives."""
    entries, den = form_to_sparse(form, basis)
    pairs = {}
    for i, part, y in entries:
        pairs.setdefault(i, [0, 0])[part] = y
    return {i: Scalar(Fraction(re, den), Fraction(im, den)) for i, (re, im) in pairs.items()}


def rand_form(rng, sc, p, homog=None):
    keys = enumerate_multi_indices(sc.even_dim, sc.odd_dim, p)
    coeffs = {}
    for k in rng.sample(keys, min(4, len(keys))):
        mat = rand_matrix(rng, sc)
        if homog is not None:
            ev, od = mat.parity_decompose()
            kp = sum(index_parity(i, sc.even_dim) for i in k) % 2
            mat = ev if (homog ^ kp) == 0 else od
        coeffs[k] = mat
    return GradedForm.of(sc, p, coeffs)


def nonzero(coeffs):
    return {key: mat for key, mat in coeffs.items() if not mat.is_zero()}


def ref_interior(d, w):
    out = {}
    for key in enumerate_multi_indices(w.n_even, w.m_odd, w.degree - 1):
        acc = GradedMatrix.zero(w.n, w.m)
        for a in d.support():
            acc = acc + evaluate_on_basis(w, (a,) + key).scale(d.coords[a])
        out[key] = acc.scale(Fraction(1, self_evaluation_factor(key, w.n_even)))
    return nonzero(out)


def column_values(mat, j):
    """Column j of ``mat`` as exact values: its numerators over ``mat.den``."""
    return {i: Fraction(v, mat.den) for i, v in mat.columns[j].items()}


def reference_rref(rows):
    """Reduced row echelon form over Scalar: (reduced rows, pivot columns)."""
    a = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv if x else x for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                # a zero of the pivot row leaves the entry as it is
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def clear_denominators(entries):
    """The nonzero ``entries`` {column: Fraction} times the lcm of their
    denominators, stripped of content: a row with the same rank and kernel."""
    entries = {c: v for c, v in entries.items() if v}
    den = math.lcm(*(v.denominator for v in entries.values()))
    return linalg.strip_content(
        {c: v.numerator * (den // v.denominator) for c, v in entries.items()}
    )


def reference_kernel(rows, ncols):
    """The kernel by dense rational back-substitution, denominators cleared.

    One vector per free column f of the echelon, with x_f = 1 and every
    pivot value solved as a Fraction, highest pivot first; then scaled by
    the lcm of its denominators and stripped of content.
    """
    ech = linalg.SparseEchelon()
    for row in sorted(rows, key=len):
        ech.add_row(row)
    pivots = sorted(ech.pivot_rows)
    out = []
    for f in range(ncols):
        if f in ech.pivot_rows:
            continue
        x = {f: Fraction(1)}
        for c in reversed(pivots):
            row = ech.pivot_rows[c]
            s = Fraction(0)
            for cc, v in row.items():
                if cc != c and cc in x:
                    s += v * x[cc]
            if s:
                x[c] = -s / row[c]
        dense = [x.get(c, Fraction(0)) for c in range(ncols)]
        out.append(clear_denominators(dict(enumerate(dense))))
    return out


def brute_force_free(n, m, r, s):
    for p in range(r + s + 1):
        for q in range(r + s + 1):
            if p * n + q * m == r and p * m + q * n == s:
                return (p, q)
    return None


def idempotent_cover_connection(sc, rng):
    """A rank-(2,0)-like projection inside V^(2|1) via a unit-triangular
    change of frame, with a connection form squeezed into its corner."""
    def zf(mat):
        return GradedForm.from_matrix(sc, mat)

    z0 = GradedForm.zero(sc, 0)
    nil = [
        [z0, zf(random_homogeneous_matrix(rng, 2, 1, 0)),
         zf(random_homogeneous_matrix(rng, 2, 1, 1))],
        [z0, z0, zf(random_homogeneous_matrix(rng, 2, 1, 1))],
        [z0, z0, z0],
    ]
    ident = identity_form_matrix(sc, 3)
    u = [[x + y for x, y in zip(ri, rn)] for ri, rn in zip(ident, nil)]
    u_inv = fm_sub(ident, fm_sub(nil, fm_wedge(nil, nil)))
    assert fm_wedge(u, u_inv) == ident
    p0 = [
        [ident[i][j] if (i == j and i < 2) else z0 for j in range(3)]
        for i in range(3)
    ]
    proj = fm_wedge(fm_wedge(u, p0), u_inv)
    th = canonical_one_form(sc)
    amb = [
        [
            th if i == j else random_form(
                rng, sc, 1, parity=0 if (i < 2) == (j < 2) else 1, terms=2
            )
            for j in range(3)
        ]
        for i in range(3)
    ]
    alpha = fm_wedge(fm_wedge(proj, amb), proj)
    return Connection(sc, 2, 1, proj, alpha)


def tracer_targets():
    """The (module, attribute) pairs that ``perfbench/layertrace.py`` rebinds,
    read from its source without running it."""
    targets = []
    for node in ast.parse(LAYERTRACE.read_text()).body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("SPAN_TARGETS", "COUNT_TARGETS")):
            targets += [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    return targets
