"""Seeded random generators for property checks.

Everything takes an explicit random.Random so runs are reproducible from
a single seed; entries are small Gaussian integers, drawn straight into a
matrix's integer entries, to keep exact arithmetic fast.
"""
from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .constants import StructureConstants
from .forms import GradedForm
from .formspace import FormBasis
from .indexset import tuple_parity
from .matrices import GradedMatrix


def _draw(rng: random.Random, u: int, span: int) -> List[Tuple[int, int, int]]:
    """The entry at unit u as (u, part, value) over its nonzero parts, the
    real part drawn in [-span, span] first and then the imaginary one."""
    re, im = rng.randint(-span, span), rng.randint(-span, span)
    return [(u, part, y) for part, y in ((0, re), (1, im)) if y]


def random_matrix(rng: random.Random, n: int, m: int, span: int = 3) -> GradedMatrix:
    k = n + m
    return GradedMatrix.from_ints(
        n, m, [e for u in range(k * k) for e in _draw(rng, u, span)], 1)


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
    lo: List[Tuple[int, int, int]] = []
    up: List[Tuple[int, int, int]] = []
    for u in range(k * k):
        i, j = divmod(u, k)
        if i != j and (i < n) == (j < n):
            (lo if i > j else up).extend(_draw(rng, u, span))
    nonzero = [x for x in range(-span, span + 1) if x]
    diag = [(i * (k + 1), 0, rng.choice(nonzero)) for i in range(k)]
    ones = [(i * (k + 1), 0, 1) for i in range(k)]
    out = GradedMatrix.from_ints(n, m, sorted(lo + ones), 1)
    out = out @ GradedMatrix.from_ints(n, m, diag, 1)
    out = out @ GradedMatrix.from_ints(n, m, sorted(up + ones), 1)
    return out
