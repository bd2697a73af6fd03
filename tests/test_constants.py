import hashlib
import re
from fractions import Fraction
from math import gcd

import pytest

from gradedmat import constants, linalg, symplectic
from gradedmat.basis import build_sl_basis
from gradedmat.cli import main
from gradedmat.constants import (
    compute_constants, constants_for, derived, verify_appendix,
)
from gradedmat.forms import DerivationVector, interior_product
from gradedmat.formspace import form_to_sparse
from gradedmat.matrices import GradedMatrix, graded_anticommutator, graded_commutator
from gradedmat.scalars import Scalar
from tests.helpers import constants_with, reference_rref


def test_dimensions(sc21, sc31):
    assert (sc21.dim, sc21.even_dim, sc21.odd_dim) == (8, 4, 4)
    assert (sc31.dim, sc31.even_dim, sc31.odd_dim) == (15, 9, 6)


def test_frozen_mixed_entries(sc21):
    # a bridge pair: bracket lands in the even part with half-integer weight
    assert Fraction(sc21.c[(4, 6)][2], sc21.den) == Fraction(1, 2)
    assert Fraction(sc21.d[(4, 6)][3], sc21.den) == Fraction(-3, 2)
    assert Fraction(sc21.g[4][6], sc21.g_den) == 2
    # the Killing matrix is (n-m)^2 g, and (n-m)^2 = 1 here
    assert rational_tables(sc21)["killing"][4][6] == 2


def test_tensors_reproduce_brackets(sc21):
    elems = sc21.basis.elements
    for a in range(sc21.dim):
        for b in range(sc21.dim):
            got = graded_commutator(elems[a], elems[b])
            want = sum(
                (elems[c].scale(Fraction(v, sc21.den))
                 for c, v in sc21.c.get((a, b), {}).items()),
                start=elems[0].scale(0),
            )
            assert got == want


def test_anticommutator_tensor_includes_unit_component(sc21):
    elems = sc21.basis.elements
    a, b = 0, 0
    got = graded_anticommutator(elems[a], elems[b])
    acc = elems[0].scale(0)
    for c, v in sc21.d.get((a, b), {}).items():
        acc = acc + elems[c].scale(Fraction(v, sc21.den))
    # the remainder must be central: a multiple of the identity
    rest = got - acc
    off = [
        rest.entries[i][j]
        for i in range(rest.size)
        for j in range(rest.size)
        if i != j
    ]
    assert not any(off)
    assert rest.entries[0][0] == rest.entries[1][1] == rest.entries[2][2]


def test_inverse_pairings(sc21):
    # g g_inv = 1, so the numerators multiply to g_den g_inv_den times 1; the
    # Killing matrix and its inverse are (n-m)^2 g and g_inv / (n-m)^2
    k = sc21.dim
    unit = sc21.g_den * sc21.g_inv_den
    for i in range(k):
        for j in range(k):
            acc = sum(sc21.g[i][l] * sc21.g_inv[l][j] for l in range(k))
            assert acc == (unit if i == j else 0)
    tables = rational_tables(sc21)
    for i in range(k):
        for j in range(k):
            acc = sum(tables["killing"][i][l] * tables["killing_inv"][l][j] for l in range(k))
            assert acc == (1 if i == j else 0)


def test_ad_matrix_matches_rows(sc21):
    ad = sc21.ad_matrix(4)
    for b in range(sc21.dim):
        col = {cc: ad[cc][b] for cc in range(sc21.dim) if ad[cc][b]}
        assert col == sc21.c.get((4, b), {})


def test_derived_stores_only_what_its_build_returned():
    sc = constants_for(2, 1)
    assert sc.cache == {}
    calls = []

    def build(got_sc, p, key):
        assert got_sc is sc
        calls.append((p, key))
        if len(calls) == 1:
            raise ValueError("the first build fails")
        return [p, key]

    memo = derived("probe")(build)
    with pytest.raises(ValueError, match="the first build fails"):
        memo(sc, 2, (1, 5))
    # a build that raised leaves nothing, so the next call builds again
    assert sc.cache == {}
    got = memo(sc, 2, (1, 5))
    assert got == [2, (1, 5)] and len(calls) == 2
    # a second call returns the stored object and builds nothing
    assert memo(sc, 2, (1, 5)) is got and len(calls) == 2
    assert sc.cache == {("probe", 2, (1, 5)): got}
    assert derived("bare")(lambda got_sc: "once")(sc) == sc.cache[("bare",)] == "once"


def test_n_equals_m_rejected():
    with pytest.raises(ValueError):
        constants_for(2, 2)
    with pytest.raises(ValueError):
        compute_constants(build_sl_basis(1, 1))


def test_compute_constants_refuses_a_unit_component_and_a_singular_pairing(monkeypatch):
    # explicit raises, so they fire with assert statements stripped too
    basis = build_sl_basis(2, 1)
    ident = GradedMatrix.identity(2, 1)
    with monkeypatch.context() as patch:
        patch.setattr(constants, "graded_commutator",
                      lambda a, b: graded_commutator(a, b) + ident)
        with pytest.raises(AssertionError, match="unit component"):
            compute_constants(basis)
    with monkeypatch.context() as patch:
        # {E_a, E_b} with no unit component leaves g = 0
        patch.setattr(constants, "graded_anticommutator", graded_commutator)
        with pytest.raises(ValueError, match="singular"):
            compute_constants(basis)
    assert compute_constants(basis) == constants_for(2, 1)


@pytest.mark.parametrize("fixture", ["sc21", "sc31", "sc20", "sc30", "sc12"])
def test_appendix_identities(fixture, request):
    sc = request.getfixturevalue(fixture)
    report = verify_appendix(sc)
    assert report.passed, report.summary()
    assert len(report.checks) == 21


# ---- the tables against the dense rational expansion ---------------------


def _fraction_inverse(rows):
    """The inverse of a square matrix of Fractions, by the reference rref of [A | I]."""
    k = len(rows)
    unit = [[Scalar.of(int(i == j)) for j in range(k)] for i in range(k)]
    red, pivots = reference_rref([[Scalar.of(x) for x in row] + unit[i]
                                  for i, row in enumerate(rows)])
    assert pivots == list(range(k))
    return [[x.re for x in row[k:]] for row in red]


def reference_tables(n, m):
    """c, d, g, g_inv, killing and killing_inv as Fractions, by the dense
    route: invert the matrix whose columns are the flattened elements and
    the identity, and multiply it into every flattened bracket."""
    basis = build_sl_basis(n, m)
    k = basis.dim
    flats = [[x.re for x in e.flat()]
             for e in (*basis.elements, GradedMatrix.identity(n, m))]
    inv = _fraction_inverse([list(row) for row in zip(*flats)])

    def expand(mat):
        v = [x.re for x in mat.flat()]
        return [sum(a * b for a, b in zip(row, v)) for row in inv]

    c, d, g = {}, {}, [[Fraction(0)] * k for _ in range(k)]
    for a, ea in enumerate(basis.elements):
        for b, eb in enumerate(basis.elements):
            com = expand(graded_commutator(ea, eb))
            acom = expand(graded_anticommutator(ea, eb))
            assert com[-1] == 0
            if any(com[:-1]):
                c[(a, b)] = {cc: x for cc, x in enumerate(com[:-1]) if x}
            if any(acom[:-1]):
                d[(a, b)] = {cc: x for cc, x in enumerate(acom[:-1]) if x}
            g[a][b] = acom[-1]
    g_inv = _fraction_inverse(g)
    sq = (n - m) ** 2
    return {"c": c, "d": d, "g": g, "g_inv": g_inv,
            "killing": [[sq * x for x in row] for row in g],
            "killing_inv": [[x / sq for x in row] for row in g_inv]}


def rational_tables(sc):
    """The tables of ``sc`` read as Fractions, in the layout of ``reference_tables``."""
    sq = (sc.n - sc.m) ** 2

    def tensor(t):
        return {key: {cc: Fraction(v, sc.den) for cc, v in row.items()}
                for key, row in t.items()}

    g = [[Fraction(v, sc.g_den) for v in row] for row in sc.g]
    g_inv = [[Fraction(v, sc.g_inv_den) for v in row] for row in sc.g_inv]
    return {"c": tensor(sc.c), "d": tensor(sc.d), "g": g, "g_inv": g_inv,
            "killing": [[sq * x for x in row] for row in g],
            "killing_inv": [[x / sq for x in row] for row in g_inv]}


@pytest.mark.parametrize("n,m", [(1, 0), (2, 0), (3, 0), (4, 0), (2, 1), (1, 2),
                                 (3, 1), (1, 3)])
def test_tables_equal_the_dense_rational_expansion(n, m):
    sc = constants_for(n, m)
    assert rational_tables(sc) == reference_tables(n, m)
    # stored in lowest terms, with no zero numerator
    nums = [v for t in (sc.c, sc.d) for row in t.values() for v in row.values()]
    assert 0 not in nums
    assert gcd(sc.den, *nums) == 1
    assert gcd(sc.g_den, *(v for row in sc.g for v in row)) == 1
    assert gcd(sc.g_inv_den, *(v for row in sc.g_inv for v in row)) == 1
    if (n, m) == (1, 0):
        assert (sc.c, sc.d, sc.g, sc.g_inv) == ({}, {}, (), ())
        assert (sc.den, sc.g_den, sc.g_inv_den) == (1, 1, 1)


# sha256 of the constants report, its build identifier masked in JSON:
# pinned, since neither the tables nor their encoding may change
CONSTANTS_DIGESTS = {
    (1, 2, "json"): "b37fa4807d5aec118711a838c084047db6c25df5b949838f24b1057db6cf1197",
    (2, 1, "json"): "9d974420ce70e678ee7ac4f3c716e3cc0bd58b21bb3430ff6ab87dd5fc5023b0",
    (2, 1, "csv"): "714636c582d7d6c6de85efa18811fd26321846eaccb813c92df53ed4c95af6a5",
    (3, 1, "json"): "43a71776c72b122c43920f68c30ef7caf54ec34a1650b9e2c9f7ae418ef8f5ff",
    (3, 1, "csv"): "7fa952f9564d105d96e65df8efd0e43cead3e14d550e743cd187dd711210b27d",
    (3, 2, "json"): "f467b706261e399e7ad83ce672b382c9b991e4d69f2640e9d3d72e92addcc2bc",
}


@pytest.mark.parametrize("n,m,fmt", sorted(CONSTANTS_DIGESTS))
def test_constants_report_bytes_are_pinned(n, m, fmt, capsys):
    assert main(["constants", "--n", str(n), "--m", str(m), "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        out, count = re.subn(r'"build": "[0-9a-f]{12}"', '"build": "*"', out)
        assert count == 1
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTANTS_DIGESTS[(n, m, fmt)]


@pytest.mark.parametrize("fixture", ["sc21", "sc12"])
def test_the_catalog_reads_values_not_numerators(fixture, request):
    # the same tables over larger denominators, no longer in lowest terms
    sc = request.getfixturevalue(fixture)

    def times(f, t):
        return {key: {cc: f * v for cc, v in row.items()} for key, row in t.items()}

    scaled = constants_with(
        sc, c=times(7, sc.c), d=times(7, sc.d), den=7 * sc.den,
        g=tuple(tuple(5 * v for v in row) for row in sc.g), g_den=5 * sc.g_den,
        g_inv=tuple(tuple(3 * v for v in row) for row in sc.g_inv),
        g_inv_den=3 * sc.g_inv_den)
    report = verify_appendix(scaled)
    assert report.passed, report.summary()
    assert rational_tables(scaled) == rational_tables(sc)


# ---- mutations the identity catalog must catch -----------------------------


def _corrupted(sc, table, key, change):
    """A copy of ``sc`` with ``change`` applied to one entry of ``table``:
    key (a, b) of ``g``, or ((a, b), cc) of ``c`` or ``d``."""
    if table == "g":
        rows = [list(row) for row in sc.g]
        a, b = key
        rows[a][b] = change(rows[a][b])
        return constants_with(sc, g=tuple(tuple(row) for row in rows))
    t = {ab: dict(row) for ab, row in getattr(sc, table).items()}
    ab, cc = key
    t[ab][cc] = change(t[ab][cc])
    return constants_with(sc, **{table: t})


def _reference_residue(tables, degs, line, a, b, cc, dd):
    """One of the three quadratic relations at (a, b, cc), index dd, in Fractions."""
    c, d, g = tables["c"], tables["d"], tables["g"]

    def s(x, y):
        return -1 if degs[x] and degs[y] else 1

    def term(t1, ab, t2, second):
        # sum over e of t1[ab][e] * t2[(x, e) or (e, x)][dd]
        return sum(v * t2.get(second(e), {}).get(dd, 0) for e, v in t1.get(ab, {}).items())

    if line == "jacobi":
        return (s(a, cc) * term(c, (b, cc), c, lambda e: (a, e))
                + s(b, a) * term(c, (cc, a), c, lambda e: (b, e))
                + s(cc, b) * term(c, (a, b), c, lambda e: (cc, e)))
    if line == "mixed relation":
        s23 = s(a, cc) * s(b, cc)
        return (term(c, (b, cc), c, lambda e: (a, e)) - term(d, (a, b), d, lambda e: (e, cc))
                + s23 * term(d, (cc, a), d, lambda e: (e, b))
                + (2 * s23 * g[cc][a] if dd == b else 0) - (2 * g[a][b] if dd == cc else 0))
    return (term(d, (a, b), c, lambda e: (e, cc)) - term(c, (b, cc), d, lambda e: (a, e))
            - s(b, cc) * term(c, (a, cc), d, lambda e: (e, b)))


CATALOG = [
    "parity selection for bracket constants",
    "parity selection for anticommutator constants",
    "parity selection for unit pairing",
    "graded trace of bracket constants vanishes",
    "graded trace of anticommutator constants vanishes",
    "lowered bracket tensor totally graded-antisymmetric",
    "lowered anticommutator tensor totally graded-symmetric",
    "quadratic bracket/anticommutator relations",
    "Killing matrix equals graded operator trace of double bracket",
    "Killing matrix equals 2(n-m) times supertrace of products",
    "Killing matrix equals graded double contraction of bracket constants",
    "Killing matrix equals scaled anticommutator contraction",
    "pairing-contracted bracket constants vanish",
    "pairing-contracted anticommutator constants vanish",
    "bracket-bracket Casimir sum",
    "bracket-anticommutator Casimir sum",
    "anticommutator-anticommutator Casimir sum",
    "quartic recoupling of three brackets",
    "quartic recoupling with trailing anticommutator",
    "quartic recoupling with two anticommutators",
    "quartic recoupling of three anticommutators",
]
KILLING = {name for name in CATALOG if name.startswith("Killing")}

# (table, entry, change, the families that must fail); every other family
# but those in ``unread`` must pass
MUTATIONS = {
    "c sign flipped": ("c", ((4, 6), 2), lambda v: -v, {
        "lowered bracket tensor totally graded-antisymmetric",
        "quadratic bracket/anticommutator relations",
        "Killing matrix equals graded operator trace of double bracket",
        "Killing matrix equals graded double contraction of bracket constants",
        "pairing-contracted bracket constants vanish",
        "bracket-bracket Casimir sum",
        "bracket-anticommutator Casimir sum",
        "quartic recoupling of three brackets",
        "quartic recoupling with trailing anticommutator",
        "quartic recoupling with two anticommutators",
    }),
    "d doubled": ("d", ((4, 6), 3), lambda v: v * 2, {
        "lowered anticommutator tensor totally graded-symmetric",
        "quadratic bracket/anticommutator relations",
        "Killing matrix equals scaled anticommutator contraction",
        "pairing-contracted anticommutator constants vanish",
        "bracket-anticommutator Casimir sum",
        "anticommutator-anticommutator Casimir sum",
        "quartic recoupling with trailing anticommutator",
        "quartic recoupling with two anticommutators",
        "quartic recoupling of three anticommutators",
    }),
    "g negated": ("g", (4, 6), lambda v: -v, {
        "lowered bracket tensor totally graded-antisymmetric",
        "lowered anticommutator tensor totally graded-symmetric",
        "quadratic bracket/anticommutator relations",
    }),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_the_catalog_catches_a_corrupted_entry(sc21, mutation):
    table, key, change, must_fail = MUTATIONS[mutation]
    report = verify_appendix(_corrupted(sc21, table, key, change))
    assert [c.name for c in report.checks] == CATALOG
    failed = {c.name for c in report.checks if not c.passed}
    # the Killing matrix is (n-m)^2 g, so a changed g may also move the
    # Killing families; nothing else may fail
    unread = KILLING if table == "g" else set()
    assert must_fail <= failed <= must_fail | unread
    assert verify_appendix(sc21).passed  # the fixture is untouched

    # the quadratic family names its first residue, an exact rational
    quad = next(c for c in report.checks if c.name == CATALOG[7])
    got = re.fullmatch(r"(jacobi|mixed relation|d-c relation) at "
                       r"\((\d+),(\d+),(\d+)\)\^(\d+): residue (-?\d+(?:/\d+)?)",
                       quad.counterexample)
    assert got, quad.counterexample
    line, *idx, residue = got.groups()
    tables = reference_tables(2, 1)
    if table == "g":
        a, b = key
        tables["g"][a][b] = change(tables["g"][a][b])
    else:
        ab, cc = key
        tables[table][ab][cc] = change(tables[table][ab][cc])
    degs = tuple(sc21.parity(i) for i in range(sc21.dim))
    want = _reference_residue(tables, degs, line, *map(int, idx))
    assert want != 0
    assert Fraction(residue) == want


# ---- no Fraction and no Scalar on the integer path -------------------------


def test_constants_catalog_and_factorization_build_no_fraction_or_scalar(monkeypatch):
    basis = build_sl_basis(2, 1)
    sc = constants_for(2, 1)
    omega = symplectic.canonical_two_form(sc)
    _, form_basis, _ = symplectic._contraction_system(sc, omega)
    columns = [form_to_sparse(interior_product(DerivationVector.basis(sc, b), omega),
                              form_basis)[0] for b in range(sc.dim)]
    probes = [*sc.basis.elements, GradedMatrix.identity(2, 1)]
    rhss = [symplectic._minus_differential(sc, mat, form_basis)[0] for mat in probes]

    made = []
    real_init = Scalar.__init__

    def counted_init(self, *args):
        made.append("Scalar")
        real_init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counted_init)
    # Fraction keeps __new__ as a staticmethod, and from 3.12 builds results
    # through _from_coprime_ints without it: count both, and put them back
    # as they were
    saved = {name: Fraction.__dict__[name] for name in ("__new__", "_from_coprime_ints")
             if name in Fraction.__dict__}

    def counted(name, wrap):
        inner = saved[name].__func__
        return wrap(lambda cls, *args, **kwargs: made.append("Fraction")
                    or inner(cls, *args, **kwargs))

    Fraction.__new__ = counted("__new__", staticmethod)
    if "_from_coprime_ints" in saved:
        Fraction._from_coprime_ints = counted("_from_coprime_ints", classmethod)
    try:
        assert Fraction(1, 2) and made == ["Fraction"]  # the counters count
        assert Scalar(1, 2) and made.count("Scalar") == 1
        made.clear()
        got = compute_constants(basis)
        report = verify_appendix(got)
        fact = linalg.factor(columns)
        for rhs in rhss:
            fact.solve(rhs)
    finally:
        for name, value in saved.items():
            setattr(Fraction, name, value)
    assert made == []
    assert report.passed and len(report.checks) == 21
    assert got == sc and fact.rank == sc.dim
