import math
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmat.forms import GradedForm
from gradedmat.indexset import (
    canonicalize,
    commutation_factor,
    enumerate_multi_indices,
    index_count,
    index_parity,
    is_canonical,
    multiplicities,
    permutation_sign,
    self_evaluation_factor,
    tuple_parity,
)
from gradedmat.matrices import GradedMatrix
from gradedmat.verify import composition_rule, crossing_count
from tests.reference import extraction_prefactor

NE, NO = 4, 4  # the (2|1) split


def test_counts_for_small_split():
    assert [index_count(NE, NO, p) for p in range(5)] == [1, 8, 32, 88, 192]
    for p in range(5):
        assert len(enumerate_multi_indices(NE, NO, p)) == index_count(NE, NO, p)


def test_enumeration_is_canonical_and_sorted():
    for p in range(4):
        keys = enumerate_multi_indices(NE, NO, p)
        assert keys == sorted(keys)
        for key in keys:
            assert list(key) == sorted(key)
            assert canonicalize(key, NE) == (tuple(key), 1)


# Unsorted draws and sorted ones, so that canonical tuples, repeated even
# and odd indices and single misorderings all come up.
index_lists = st.lists(st.integers(0, 7), max_size=5)


@settings(max_examples=300, deadline=None)
@given(n_even=st.integers(0, 8),
       t=st.one_of(index_lists, index_lists.map(sorted)))
def test_linear_key_check_matches_canonicalize(n_even, t):
    t = tuple(t)
    canon = canonicalize(t, n_even)
    canonical = canon is not None and canon[0] == t
    assert is_canonical(t, n_even) == canonical
    # GradedForm accepts exactly the canonical keys; the stand-in basis of
    # shape (2|1) splits its 8 directions at n_even
    mat = GradedMatrix.identity(2, 1)
    sl_basis = SimpleNamespace(n=2, m=1, even_dim=n_even, odd_dim=8 - n_even)
    build = lambda: GradedForm(sl_basis, len(t), {t: mat})
    if canonical:
        assert build().coeffs == {t: mat}
    else:
        with pytest.raises(ValueError, match=r"is not canonical"):
            build()


def test_canonicalize_rules():
    # repeated even index kills the tuple
    assert canonicalize((1, 1), NE) is None
    # swapping two evens is antisymmetric
    assert canonicalize((2, 0), NE) == ((0, 2), -1)
    # odd-odd swaps are symmetric, repeats allowed
    assert canonicalize((5, 4), NE) == ((4, 5), 1)
    assert canonicalize((5, 5), NE) == ((5, 5), 1)
    # even past odd picks up the plain alternating sign
    assert canonicalize((4, 0), NE) == ((0, 4), -1)


def _self_factor_oracle(indices):
    """Sum of sgn times gamma over the permutations fixing the tuple."""
    p = len(indices)
    degs = [index_parity(i, NE) for i in indices]
    total = 0
    for sigma in permutations(range(p)):
        if tuple(indices[sigma[l]] for l in range(p)) != tuple(indices):
            continue
        total += permutation_sign(sigma) * commutation_factor(sigma, degs)
    return total


def test_self_evaluation_factor_matches_stabilizer_sum():
    # the factor is the stabilizer sum twisted by the odd-pair sign
    for p in range(5):
        for key in enumerate_multi_indices(NE, NO, p):
            odd = sum(1 for i in key if index_parity(i, NE))
            twist = (-1) ** (odd * (odd - 1) // 2)
            want = twist * _self_factor_oracle(key)
            assert self_evaluation_factor(key, NE) == want, key


def test_extraction_prefactor_inverts_self_factor():
    for p in range(4):
        for key in enumerate_multi_indices(NE, NO, p):
            pre = extraction_prefactor(key, NE)
            assert pre * self_evaluation_factor(key, NE) == Fraction(1)
            mult = math.prod(math.factorial(k) for k in multiplicities(key))
            assert abs(pre) == Fraction(1, mult)


def test_parities():
    assert [index_parity(i, NE) for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert tuple_parity((0, 4), NE) == 1
    assert tuple_parity((4, 5), NE) == 0


perm_and_parities = st.integers(min_value=1, max_value=5).flatmap(
    lambda p: st.tuples(
        st.permutations(list(range(p))),
        st.tuples(*[st.integers(min_value=0, max_value=1) for _ in range(p)]),
    )
)


@settings(max_examples=120, deadline=None)
@given(perm_and_parities)
def test_commutation_factor_crossing_count(sp):
    sigma, degs = sp
    assert crossing_count(sigma, degs) is None


@settings(max_examples=120, deadline=None)
@given(perm_and_parities, st.randoms(use_true_random=False))
def test_commutation_factor_composition(sp, rnd):
    sigma, degs = sp
    tau = list(range(len(sigma)))
    rnd.shuffle(tau)
    assert composition_rule(sigma, tau, degs) is None


def test_permutation_sign_matches_parity_of_inversions():
    for p in range(1, 5):
        for sigma in permutations(range(p)):
            inv = sum(
                1
                for r in range(p)
                for s in range(r + 1, p)
                if sigma[r] > sigma[s]
            )
            assert permutation_sign(sigma) == (-1) ** inv
