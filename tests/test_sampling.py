"""The seeded generators against Scalar-built references.

``sampling`` draws integers straight into a matrix's integer entries; the
references below build each entry as a Scalar from the same draws, in the
same order, so every seed must give equal matrices and leave the random
stream at the same place.
"""
import random
from fractions import Fraction

import pytest

from gradedmat.formspace import FormBasis
from gradedmat.sampling import random_even_invertible, random_form, random_matrix
from gradedmat.scalars import Scalar
from tests.reference import from_rows


def reference_scalar(rng, span):
    return Scalar(Fraction(rng.randint(-span, span)), Fraction(rng.randint(-span, span)))


def reference_matrix(rng, n, m, span=3):
    k = n + m
    rows = [[reference_scalar(rng, span) for _ in range(k)] for _ in range(k)]
    return from_rows(n, m, rows)


def reference_even_invertible(rng, n, m, span=2):
    """L D U: unit triangular L and U with random entries inside the diagonal
    blocks, and a diagonal D of nonzero integers."""
    k = n + m

    def block_ok(i, j):
        return (i < n) == (j < n)

    lo = [[Scalar.of(int(i == j)) for j in range(k)] for i in range(k)]
    up = [[Scalar.of(int(i == j)) for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(k):
            if i > j and block_ok(i, j):
                lo[i][j] = reference_scalar(rng, span)
            if i < j and block_ok(i, j):
                up[i][j] = reference_scalar(rng, span)
    diag = [[Scalar.of(rng.choice([x for x in range(-span, span + 1) if x])
                       if i == j else 0) for j in range(k)] for i in range(k)]
    out = from_rows(n, m, lo)
    out = out @ from_rows(n, m, diag)
    return out @ from_rows(n, m, up)


@pytest.mark.parametrize("n,m", [(2, 1), (1, 2), (3, 1), (2, 0)])
def test_seeds_give_the_scalar_built_matrices(n, m):
    for seed in range(50):
        got, want = random.Random(seed), random.Random(seed)
        assert random_matrix(got, n, m) == reference_matrix(want, n, m)
        assert random_matrix(got, n, m, span=1) == reference_matrix(want, n, m, span=1)
        assert random_even_invertible(got, n, m) == reference_even_invertible(want, n, m)
        assert got.random() == want.random()


def test_random_forms_draw_their_matrices_in_order(sc21):
    # the keys are sampled first, then one random_matrix per key
    for seed in range(5):
        form = random_form(random.Random(seed), sc21, 2)
        rng = random.Random(seed)
        keys = rng.sample(FormBasis(sc21, 2).tuples, 4)
        assert dict(form.coeffs) == {key: reference_matrix(rng, 2, 1) for key in keys}
