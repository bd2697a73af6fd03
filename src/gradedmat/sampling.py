"""Seeded random generators for property checks.

Everything takes an explicit random.Random so runs are reproducible from
a single seed; entries are small Gaussian rationals to keep exact
arithmetic fast.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional

from .constants import StructureConstants
from .forms import GradedForm
from .formspace import FormBasis
from .indexset import tuple_parity
from .matrices import GradedMatrix
from .scalars import Scalar


def random_scalar(rng: random.Random, span: int = 3) -> Scalar:
    return Scalar(
        Fraction(rng.randint(-span, span)), Fraction(rng.randint(-span, span))
    )


def random_matrix(rng: random.Random, n: int, m: int, span: int = 3) -> GradedMatrix:
    k = n + m
    rows = [[random_scalar(rng, span) for _ in range(k)] for _ in range(k)]
    return GradedMatrix.from_rows(n, m, rows)


def random_homogeneous_matrix(
    rng: random.Random, n: int, m: int, parity: int, span: int = 3
) -> GradedMatrix:
    ev, od = random_matrix(rng, n, m, span).parity_decompose()
    return ev if parity == 0 else od


def random_form(
    rng: random.Random,
    sc: StructureConstants,
    degree: int,
    parity: Optional[int] = None,
    terms: int = 4,
) -> GradedForm:
    """A sparse random form, optionally parity-homogeneous."""
    keys = FormBasis(sc, degree).tuples
    picks = rng.sample(keys, min(terms, len(keys)))
    coeffs = {}
    for key in picks:
        mat = random_matrix(rng, sc.n, sc.m)
        if parity is not None:
            need = (parity + tuple_parity(key, sc.even_dim)) % 2
            ev, od = mat.parity_decompose()
            mat = ev if need == 0 else od
        coeffs[key] = mat
    return GradedForm.of(sc, degree, coeffs)


def random_even_invertible(
    rng: random.Random, n: int, m: int, span: int = 2
) -> GradedMatrix:
    """An even invertible matrix: unit triangulars times a nonzero diagonal.

    The product L D U with unit-diagonal triangular L, U and invertible
    diagonal D is invertible by construction; all factors even.
    """
    k = n + m

    def block_ok(i: int, j: int) -> bool:
        return (i < n) == (j < n)

    lo = [[Scalar.of(1 if i == j else 0) for j in range(k)] for i in range(k)]
    up = [[Scalar.of(1 if i == j else 0) for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(k):
            if i > j and block_ok(i, j):
                lo[i][j] = random_scalar(rng, span)
            if i < j and block_ok(i, j):
                up[i][j] = random_scalar(rng, span)
    diag = [
        [Scalar.of(rng.choice([x for x in range(-span, span + 1) if x])
                   if i == j else 0) for j in range(k)]
        for i in range(k)
    ]
    out = GradedMatrix.from_rows(n, m, lo)
    out = out @ GradedMatrix.from_rows(n, m, diag)
    out = out @ GradedMatrix.from_rows(n, m, up)
    return out
