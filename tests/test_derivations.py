"""Derivations stored as integer numerators, against Scalar-built references.

A ``DerivationVector`` stores sorted (index, part, numerator) entries over
one positive denominator in lowest terms.  Each operation below runs on
those ints; the references recompute it from the ``coords`` view with
Scalar arithmetic, on seeded Gaussian-rational coordinates.  The counting
tests hold the CLI commands and ``run_verify`` to building no Scalar and no
Fraction at all.
"""
import contextlib
import io
import math
import random
from fractions import Fraction

import pytest

from gradedmat import symplectic
from gradedmat.cli import main
from gradedmat.cohomology import body_vector_field
from gradedmat.constants import constants_for
from gradedmat.forms import (
    DerivationVector,
    GradedForm,
    _kernel_tables,
    derivation_bracket,
    evaluate,
    evaluate_on_basis,
    interior_product,
    lie_derivative,
)
from gradedmat.matrices import GradedMatrix, graded_commutator, parity_split
from gradedmat.sampling import random_form
from gradedmat.scalars import ZERO, Scalar
from gradedmat.symplectic import analyze, canonical_two_form
from gradedmat.verify import poisson_commutator, run_verify
from tests.helpers import rand_matrix, ref_interior
from tests.reference import apply_derivation, embed_vector_field, from_coords

SHAPES = ("sc21", "sc12", "sc20")


def rand_coords(rng, sc):
    """Gaussian-rational coordinates, about a third of them zero."""
    def part():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return [ZERO if rng.random() < 0.3 else Scalar(part(), part()) for _ in range(sc.dim)]


def rand_derivation(rng, sc):
    return from_coords(sc, rand_coords(rng, sc))


def assert_stored(d):
    """Sorted entries, no zero numerator, lowest terms over a positive den."""
    assert d.den > 0 and all(y for _, _, y in d.ints)
    assert list(d.ints) == sorted(set(d.ints)) and len({e[:2] for e in d.ints}) == len(d.ints)
    assert math.gcd(d.den, *(y for _, _, y in d.ints)) == 1


# ---- the Scalar-built references ------------------------------------------


def ref_bracket(sc, d1, d2):
    out = [ZERO] * sc.dim
    for a, x in enumerate(d1.coords):
        for b, y in enumerate(d2.coords):
            for cc, v in sc.c.get((a, b), {}).items():
                out[cc] = out[cc] + x * y * Scalar(Fraction(v, sc.den))
    return tuple(out)


def ref_apply(sc, d, mat):
    acc = GradedMatrix.zero(sc.n, sc.m)
    for a, x in enumerate(d.coords):
        acc = acc + graded_commutator(sc.basis.elements[a], mat).scale(x)
    return acc


def ref_lie(sc, d, w):
    acc = GradedForm.zero(sc, w.degree)
    for a, x in enumerate(d.coords):
        if x:
            acc = acc + lie_derivative(sc, DerivationVector.basis(sc, a), w).scale(x)
    return acc


def ref_evaluate(w, ds):
    acc = GradedMatrix.zero(w.n, w.m)

    def rec(pos, factor, picked):
        nonlocal acc
        if pos == len(ds):
            acc = acc + evaluate_on_basis(w, picked).scale(factor)
            return
        for a, x in enumerate(ds[pos].coords):
            if x:
                rec(pos + 1, factor * x, picked + [a])

    rec(0, Scalar(1), [])
    return acc


# ---- operations against the references -------------------------------------


@pytest.mark.parametrize("name", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_sum_scale_and_parity_parts_match_the_coords(name, seed, request):
    sc = request.getfixturevalue(name)
    rng = random.Random(seed)
    c1, c2 = rand_coords(rng, sc), rand_coords(rng, sc)
    d1, d2 = (from_coords(sc, c) for c in (c1, c2))
    assert d1.coords == tuple(c1) and d2.coords == tuple(c2)
    s = Scalar(Fraction(-2, 3), Fraction(5, 4))
    total, scaled = d1 + d2, d1.scale(s)
    assert total.coords == tuple(x + y for x, y in zip(c1, c2))
    assert scaled.coords == tuple(s * x for x in c1)
    assert d1.scale(0).is_zero() and d1.scale(0) == DerivationVector(sc.basis, ())
    ev, od = (DerivationVector(sc.basis, tuple(part), d1.den)
              for part in parity_split(d1.ints, d1.sl_basis.parities, 0))
    ne = sc.even_dim
    assert ev.coords == tuple(x if i < ne else ZERO for i, x in enumerate(c1))
    assert od.coords == tuple(x if i >= ne else ZERO for i, x in enumerate(c1))
    assert ev + od == d1
    for d in (d1, d2, total, scaled, ev, od):
        assert_stored(d)
    # equal derivations reached through other denominators are stored alike
    assert (d1 + d2).scale(s).scale(Scalar(1) / s) + d2.scale(-1) == d1


@pytest.mark.parametrize("name", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_bracket_and_action_match_the_coords(name, seed, request):
    sc = request.getfixturevalue(name)
    rng = random.Random(100 + seed)
    d1, d2 = rand_derivation(rng, sc), rand_derivation(rng, sc)
    got = derivation_bracket(sc, d1, d2)
    assert got.coords == ref_bracket(sc, d1, d2)
    assert_stored(got)
    mat = rand_matrix(rng, sc)
    assert apply_derivation(sc, d1, mat) == ref_apply(sc, d1, mat)
    # the bracket of derivations acts as the graded commutator of actions
    a, b = rng.randrange(sc.even_dim), rng.randrange(sc.dim)
    da, db = DerivationVector.basis(sc, a), DerivationVector.basis(sc, b)
    bracket = derivation_bracket(sc, da, db)
    sign = -1 if sc.parity(a) and sc.parity(b) else 1
    assert apply_derivation(sc, bracket, mat) == (
        apply_derivation(sc, da, apply_derivation(sc, db, mat))
        - apply_derivation(sc, db, apply_derivation(sc, da, mat)).scale(sign))


@pytest.mark.parametrize("name", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_contraction_lie_and_evaluation_match_the_coords(name, seed, request):
    sc = request.getfixturevalue(name)
    rng = random.Random(200 + seed)
    d1, d2 = rand_derivation(rng, sc), rand_derivation(rng, sc)
    for p in (1, 2):
        w = random_form(rng, sc, p).scale(Scalar(Fraction(1, 3), Fraction(-1, 2)))
        assert interior_product(d1, w).coeffs == ref_interior(d1, w), (name, p)
        assert lie_derivative(sc, d1, w) == ref_lie(sc, d1, w), (name, p)
        ds = [d1, d2][:p]
        assert evaluate(w, ds) == ref_evaluate(w, ds), (name, p)
    w0 = GradedForm.from_matrix(sc, rand_matrix(rng, sc))
    assert evaluate(w0, []) == w0.coeffs[()]


@pytest.mark.parametrize("name", ["sc21", "sc12_adapted"])
def test_vector_field_body_maps_match_the_coords(name, sc20, request):
    sc = request.getfixturevalue(name)
    rng = random.Random(7)
    blk = sc20.dim
    up = from_coords(sc, rand_coords(rng, sc)[:sc.even_dim] + [0] * sc.odd_dim)
    down = body_vector_field(sc, sc20, up)
    assert down.coords == up.coords[:blk]
    assert_stored(down)
    d = rand_derivation(rng, sc20)
    lifted = embed_vector_field(sc, sc20, d)
    assert lifted.coords == d.coords + (ZERO,) * (sc.dim - blk)
    assert body_vector_field(sc, sc20, lifted) == d


# ---- the Poisson check solves each field once -------------------------------


def test_poisson_commutator_solves_one_field_per_element(sc21, monkeypatch):
    sym, _ = analyze(sc21, canonical_two_form(sc21))
    calls = []
    real = symplectic.SymplecticForm.hamiltonian_field
    monkeypatch.setattr(symplectic.SymplecticForm, "hamiltonian_field",
                        lambda self, mat: calls.append(mat) or real(self, mat))
    assert poisson_commutator(sc21, sym) is None
    assert len(calls) == sc21.dim


@pytest.mark.parametrize("name", ["sc21", "sc12"])
def test_poisson_commutator_catches_the_doubled_form(name, request):
    # 2 d Theta has the fields bd_a / 2, so its bracket is half the commutator
    sc = request.getfixturevalue(name)
    doubled, _ = analyze(sc, canonical_two_form(sc).scale(2))
    elements = sc.basis.elements
    pairs = [(a, b) for a in range(sc.dim) for b in range(sc.dim)]
    first = next((a, b) for a, b in pairs
                 if not graded_commutator(elements[a], elements[b]).is_zero())
    assert poisson_commutator(sc, doubled) == f"pair {first}"
    for a, b in pairs[:12]:
        assert doubled.poisson_bracket(elements[a], elements[b]) == \
            graded_commutator(elements[a], elements[b]).scale(Fraction(1, 2))


# ---- no Scalar and no Fraction on the production paths -----------------------


@contextlib.contextmanager
def counted(monkeypatch, fractions=False):
    """Yield a list that records each Scalar (and, with ``fractions``, each
    Fraction) made inside the block."""
    made = []
    real_init = Scalar.__init__

    def counted_init(self, *args):
        made.append("Scalar")
        real_init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counted_init)
    # Fraction keeps __new__ as a staticmethod, and from 3.12 builds results
    # through _from_coprime_ints without it: count both, and put them back
    saved = {name: Fraction.__dict__[name] for name in ("__new__", "_from_coprime_ints")
             if fractions and name in Fraction.__dict__}

    def wrapped(name, wrap):
        inner = saved[name].__func__
        return wrap(lambda cls, *args, **kwargs: made.append("Fraction")
                    or inner(cls, *args, **kwargs))

    if saved:
        Fraction.__new__ = wrapped("__new__", staticmethod)
        if "_from_coprime_ints" in saved:
            Fraction._from_coprime_ints = wrapped("_from_coprime_ints", classmethod)
    try:
        assert Scalar(1, 2) and made.count("Scalar") == 1  # the counter counts
        made.clear()
        yield made
    finally:
        for name, value in saved.items():
            setattr(Fraction, name, value)


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2", "--m", "1"],
    ["verify", "--n", "1", "--m", "2"],
    ["flat", "--n", "2", "--m", "1"],
    ["flat", "--n", "1", "--m", "2"],
    ["cohomology", "--n", "2", "--m", "1", "--max-degree", "3"],
    ["cohomology", "--n", "1", "--m", "2", "--max-degree", "3"],
])
def test_commands_build_no_scalar(argv, monkeypatch):
    with counted(monkeypatch) as made, contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code == 0 and out.getvalue()
    assert made == []


def test_run_verify_builds_no_fraction_once_the_kernel_tables_exist(monkeypatch):
    sc = constants_for(2, 1)
    _kernel_tables(sc)
    with counted(monkeypatch, fractions=True) as made:
        reports = run_verify(sc, 0, False)
    assert made == []
    assert all(rep.passed for rep in reports)


@pytest.mark.parametrize("name", SHAPES)
def test_nonzero_multiples_are_read_with_complex_ratios(name, request):
    sc = request.getfixturevalue(name)
    rng = random.Random(11)
    w = random_form(rng, sc, 1).scale(Scalar(Fraction(1, 3), Fraction(2, 5)))
    other = random_form(rng, sc, 1)
    for c in (Scalar(Fraction(-7, 2), Fraction(3, 4)), Scalar(0, 1), Fraction(5, 6)):
        assert w.scale(c).is_nonzero_multiple_of(w), (name, c)
    assert not w.scale(0).is_nonzero_multiple_of(w)
    assert not (w + other).is_nonzero_multiple_of(w)
    assert not w.is_nonzero_multiple_of(GradedForm.zero(sc, 1))
    assert not GradedForm.from_matrix(sc, GradedMatrix.identity(sc.n, sc.m)) \
        .is_nonzero_multiple_of(w)
