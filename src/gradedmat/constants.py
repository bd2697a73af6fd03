"""Structure constants of the supertrace-free subalgebra.

For a homogeneous basis {E_A} the graded commutator closes on the basis,

    [E_A, E_B] = sum_C c_AB^C E_C,

while the graded anticommutator picks up a unit component,

    {E_A, E_B} = sum_C d_AB^C E_C + g_AB * 1.

``compute_constants`` reads c, d, g off the brackets of the basis
elements, each expanded on the basis and the identity in integers
(``HomogeneousBasis.expand``), and inverts g by fraction-free elimination.
Every table holds integer numerators: c and d over one denominator, g and
its inverse over one each; the Killing matrix is (n-m)^2 g.  There is no
Scalar view of the tables; every reader takes the numerators.
``verify_appendix`` machine-checks the complete catalog of identities
these tensors satisfy on those integers, each identity scaled by the
power of the denominators it needs, and reports the first counterexample
of each family, with its exact rational residue, if one exists.
"""
from __future__ import annotations

from fractions import Fraction
from functools import wraps
from itertools import permutations
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from . import linalg
from .basis import HomogeneousBasis, build_sl_basis
from .indexset import commutation_factor, permutation_sign
from .matrices import graded_anticommutator, graded_commutator
from .report import VerificationReport

# (a, b) -> {cc: numerator}, nonzero entries only
IntTensor = Dict[Tuple[int, int], Dict[int, int]]
IntTable = Tuple[Tuple[int, ...], ...]


def _sign(parity: int) -> int:
    return -1 if parity else 1


class StructureConstants:
    """c, d, g and the inverse of g over a fixed homogeneous basis.

    ``c`` and ``d`` hold integer numerators over ``den``, ``g`` over
    ``g_den`` and ``g_inv`` over ``g_inv_den``, each in lowest terms.  The
    Killing matrix is (n-m)^2 g and its inverse g_inv / (n-m)^2.  Every
    reader takes the numerators; there is no Scalar view of the tables.

    ``cache`` memoizes what the package derives from these constants: the
    column kernel and its per-tuple d theta^I, the oracle's tables, each
    degree's index tuples and label weights, the Cartan contractions and
    the certified differentials, each filled by ``derived``, and the
    body-adaptedness check.  It is owned by the instance, so an entry can
    never outlive the constants it describes or be read back for another
    algebra.  Equality compares the tables and ignores ``cache``; the
    constants are immutable.
    """

    def __init__(self, basis: HomogeneousBasis, c: IntTensor, d: IntTensor, den: int,
                 g: IntTable, g_den: int, g_inv: IntTable, g_inv_den: int):
        # the fields go straight into the instance dict, past __setattr__
        self.__dict__.update(basis=basis, c=c, d=d, den=den, g=g, g_den=g_den,
                             g_inv=g_inv, g_inv_den=g_inv_den, cache={})

    def __setattr__(self, name, value):
        raise AttributeError("StructureConstants is immutable")

    def _key(self):
        return (self.basis, self.c, self.d, self.den,
                self.g, self.g_den, self.g_inv, self.g_inv_den)

    def __eq__(self, other):
        if type(other) is not StructureConstants:
            return NotImplemented
        return self is other or self._key() == other._key()

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def m(self) -> int:
        return self.basis.m

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def even_dim(self) -> int:
        return self.basis.even_dim

    @property
    def odd_dim(self) -> int:
        return self.basis.odd_dim

    def parity(self, a: int) -> int:
        return self.basis.parity(a)

    def ad_matrix(self, a: int) -> List[List[int]]:
        """Matrix of the bracket with E_a on basis coordinates (rows =
        target), as numerators over ``den``."""
        k = self.dim
        out = [[0] * k for _ in range(k)]
        for b in range(k):
            for cc, v in self.c.get((a, b), {}).items():
                out[cc][b] = v
        return out


def derived(name: str):
    """Memoise ``build(sc, *args)`` in ``sc.cache`` under ``(name, *args)``.

    The result is stored only once ``build`` has returned, so a build that
    raises (a failed certificate, say) leaves nothing cached and the next
    call builds again.
    """
    def memo(build):
        @wraps(build)
        def get(sc: StructureConstants, *args):
            key = (name, *args)
            got = sc.cache.get(key)
            if got is None:
                got = sc.cache[key] = build(sc, *args)
            return got
        return get
    return memo


def _lowest(rows: List[List[int]], den: int) -> Tuple[IntTable, int]:
    """The table ``rows`` over ``den``, put in lowest terms."""
    g = gcd(den, *(v for row in rows for v in row))
    return tuple(tuple(v // g for v in row) for row in rows), den // g


def compute_constants(basis: HomogeneousBasis) -> StructureConstants:
    """Exact structure constants for the given homogeneous basis."""
    if basis.n == basis.m:
        raise ValueError("quadratic pairing is singular for n == m")
    k = basis.dim
    pairs = [(a, b) for a in range(k) for b in range(k)]
    elements = basis.elements
    com = [basis.expand(graded_commutator(elements[a], elements[b])) for a, b in pairs]
    acom = [basis.expand(graded_anticommutator(elements[a], elements[b])) for a, b in pairs]
    if any(unit for _, unit, _ in com):
        raise AssertionError("graded commutator acquired a unit component")
    den = lcm(*(q for _, _, q in com + acom))
    c, d = ({pair: {cc: v * (den // q) for cc, v in enumerate(coeffs) if v}
             for pair, (coeffs, _, q) in zip(pairs, expanded) if any(coeffs)}
            for expanded in (com, acom))
    common = gcd(den, *(v for t in (c, d) for row in t.values() for v in row.values()))
    c, d = ({pair: {cc: v // common for cc, v in row.items()} for pair, row in t.items()}
            for t in (c, d))
    # g from the unit components, and g^-1 = g_den G^-1 for g = G / g_den
    g_den = lcm(*(q for _, _, q in acom))
    g, g_den = _lowest([[u * (g_den // q) for _, u, q in acom[a * k:(a + 1) * k]]
                        for a in range(k)], g_den)
    inv, inv_den = linalg.inverse([[(a, 0, g[a][b]) for a in range(k) if g[a][b]]
                                   for b in range(k)])
    g_inv = [[0] * k for _ in range(k)]
    for b, col in enumerate(inv):
        for a, _, y in col:
            g_inv[a][b] = g_den * y
    return StructureConstants(basis, c, d, den // common, g, g_den,
                              *_lowest(g_inv, inv_den))


def constants_for(n: int, m: int) -> StructureConstants:
    return compute_constants(build_sl_basis(n, m))


# ======================================================================
# Identity catalog
# ======================================================================


def _lowered(t: IntTensor, g: IntTable) -> Dict[Tuple[int, int, int], int]:
    """t_ab^dd g_dd,cc: numerators over the tensor's times g's denominator."""
    out: Dict[Tuple[int, int, int], int] = {}
    for (a, b), row in t.items():
        for dd, v in row.items():
            for cc, gv in enumerate(g[dd]):
                if gv:
                    key = (a, b, cc)
                    s = out.get(key, 0) + v * gv
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return out


def _check_graded_symmetry(
    t: Dict[Tuple[int, int, int], int],
    degs: Tuple[int, ...],
    antisymmetric: bool,
    den: int,
) -> Optional[str]:
    """First violation of total graded (anti)symmetry under all of S3, for
    ``t`` over ``den``."""
    for key, val in t.items():
        dtuple = tuple(degs[i] for i in key)
        for sigma in permutations(range(3)):
            permuted = tuple(key[sigma[i]] for i in range(3))
            factor = commutation_factor(sigma, dtuple)
            if antisymmetric:
                factor *= permutation_sign(sigma)
            expect = factor * val
            got = t.get(permuted, 0)
            if got != expect:
                return (f"indices {key} -> {permuted}: "
                        f"{Fraction(got, den)} != {Fraction(expect, den)}")
    return None


def _transpose_last(t: IntTensor) -> IntTensor:
    """Reindex t[(a, b)][e] as out[(a, e)][b]."""
    out: IntTensor = {}
    for (a, b), row in t.items():
        for e, v in row.items():
            out.setdefault((a, e), {})[b] = v
    return out


def verify_appendix(sc: StructureConstants) -> VerificationReport:
    """Check the full identity catalog for the structure constants.

    Families: parity selection, graded trace sums, total graded symmetry of
    the lowered tensors, the quadratic bracket/anticommutator relations, the
    Killing expressions, vanishing pairing contractions, Casimir-type sums,
    and the quartic recoupling contractions.  Every sum runs on the integer
    numerators, and each side of an identity is brought to one denominator
    before the two are compared.
    """
    rep = VerificationReport(f"structure constant identities (n|m)=({sc.n}|{sc.m})")
    k = sc.dim
    degs = tuple(sc.parity(a) for a in range(k))
    sq = (sc.n - sc.m) ** 2

    # --- parity selection ------------------------------------------------
    for t, label, tensor in (("c", "bracket", sc.c), ("d", "anticommutator", sc.d)):
        rep.check(f"parity selection for {label} constants", (
            f"{t}[{a},{b}]^{cc}" for (a, b), row in tensor.items() for cc in row
            if (degs[a] + degs[b] + degs[cc]) % 2
        ))
    rep.check("parity selection for unit pairing", (
        f"g[{a},{b}] = {Fraction(sc.g[a][b], sc.g_den)}" for a in range(k) for b in range(k)
        if sc.g[a][b] and (degs[a] + degs[b]) % 2
    ))

    # --- graded trace sums ----------------------------------------------
    for label, tensor in (("bracket", sc.c), ("anticommutator", sc.d)):
        sums = (sum(_sign(degs[b]) * tensor.get((a, b), {}).get(b, 0) for b in range(k))
                for a in range(k))
        rep.check(f"graded trace of {label} constants vanishes",
                  (f"index {a}: sum = {Fraction(s, sc.den)}"
                   for a, s in enumerate(sums) if s))

    # --- total graded symmetry of lowered tensors -----------------------
    low_den = sc.den * sc.g_den
    bad = _check_graded_symmetry(_lowered(sc.c, sc.g), degs, True, low_den)
    rep.add("lowered bracket tensor totally graded-antisymmetric", bad is None, bad)
    bad = _check_graded_symmetry(_lowered(sc.d, sc.g), degs, False, low_den)
    rep.add("lowered anticommutator tensor totally graded-symmetric", bad is None, bad)

    # --- quadratic relations --------------------------------------------
    rep.add(*_quadratic_relations(sc, degs))

    # --- Killing expressions --------------------------------------------
    _killing_checks(rep, sc, degs, sq)

    # --- pairing-contracted sums vanish ---------------------------------
    for label, tensor in (("bracket", sc.c), ("anticommutator", sc.d)):
        acc = [0] * k
        for (b, cc), row in tensor.items():
            gv = sc.g_inv[b][cc]
            if not gv:
                continue
            for aa, v in row.items():
                acc[aa] += gv * v
        rep.check(f"pairing-contracted {label} constants vanish",
                  (f"target index {aa}: sum = {Fraction(x, sc.g_inv_den * sc.den)}"
                   for aa, x in enumerate(acc) if x))

    # --- Casimir-type sums ----------------------------------------------
    _casimir_checks(rep, sc, degs, sq)

    # --- quartic recoupling contractions --------------------------------
    _quartic_checks(rep, sc, degs, sq)

    return rep


def _rows(t: IntTensor, k: int) -> Tuple[list, list]:
    """(rows, transposed): rows[x][y] and transposed[y][x] are both t_xy."""
    empty: Dict[int, int] = {}
    rows = [[t.get((x, y), empty) for y in range(k)] for x in range(k)]
    return rows, [list(col) for col in zip(*rows)]


def _addmul(acc: Dict[int, int], row1: Dict[int, int], rows2: List[Dict[int, int]],
            sign: int) -> None:
    """acc += sign * sum over e of row1[e] * rows2[e]."""
    for e, v1 in row1.items():
        v1 *= sign
        for dd, v2 in rows2[e].items():
            acc[dd] = acc.get(dd, 0) + v1 * v2


def _residue(acc: Dict[int, int]) -> Optional[int]:
    """The first index where ``acc`` is nonzero, or None."""
    return next((dd for dd, v in acc.items() if v), None)


def _quadratic_relations(sc: StructureConstants, degs) -> Tuple[str, bool, Optional[str]]:
    """The three quadratic relations tying c, d and g together.

    Products of two constants are over den^2; line 2 adds g, over g_den, so
    its sums are brought to the lcm of the two first.
    """
    k = sc.dim
    name = "quadratic bracket/anticommutator relations"
    c, cT = _rows(sc.c, k)
    d, dT = _rows(sc.d, k)
    den2 = sc.den * sc.den
    mixed_den = lcm(den2, sc.g_den)
    fc, fg = mixed_den // den2, mixed_den // sc.g_den
    g = sc.g
    for a in range(k):
        for b in range(k):
            for cc in range(k):
                # line 1: graded Jacobi identity for c
                acc: Dict[int, int] = {}
                _addmul(acc, c[b][cc], c[a], _sign(degs[a] * degs[cc]))
                _addmul(acc, c[cc][a], c[b], _sign(degs[b] * degs[a]))
                _addmul(acc, c[a][b], c[cc], _sign(degs[cc] * degs[b]))
                dd = _residue(acc)
                if dd is not None:
                    return (name, False, f"jacobi at ({a},{b},{cc})^{dd}: "
                            f"residue {Fraction(acc[dd], den2)}")

                # line 2: c*c against d*d with pairing corrections
                acc = {}
                _addmul(acc, c[b][cc], c[a], fc)
                _addmul(acc, d[a][b], dT[cc], -fc)
                s23 = _sign(degs[a] * degs[cc]) * _sign(degs[b] * degs[cc])
                _addmul(acc, d[cc][a], dT[b], s23 * fc)
                acc[b] = acc.get(b, 0) + 2 * s23 * g[cc][a] * fg
                acc[cc] = acc.get(cc, 0) - 2 * g[a][b] * fg
                dd = _residue(acc)
                if dd is not None:
                    return (name, False, f"mixed relation at ({a},{b},{cc})^{dd}: "
                            f"residue {Fraction(acc[dd], mixed_den)}")

                # line 3: d against c
                acc = {}
                _addmul(acc, d[a][b], cT[cc], 1)
                _addmul(acc, c[b][cc], d[a], -1)
                _addmul(acc, c[a][cc], dT[b], -_sign(degs[b] * degs[cc]))
                dd = _residue(acc)
                if dd is not None:
                    return (name, False, f"d-c relation at ({a},{b},{cc})^{dd}: "
                            f"residue {Fraction(acc[dd], den2)}")
    return name, True, None


def _killing_checks(rep: VerificationReport, sc: StructureConstants, degs, sq: int):
    """The Killing matrix sq * g against four routes; a value s / s_den
    equals its entry sq * g_ab / g_den exactly when s * g_den = sq * g_ab * s_den."""
    k = sc.dim
    pairs = [(a, b) for a in range(k) for b in range(k)]
    g, g_den, den2 = sc.g, sc.g_den, sc.den * sc.den

    def killing(a, b) -> Fraction:
        return Fraction(sq * g[a][b], g_den)

    def graded_sum(terms) -> int:
        return sum(_sign(degs[cc]) * v for cc, v in terms)

    # operator supertrace of composed brackets, computed from the adjoint
    # matrices: an independent route to the Killing matrix
    ad = [sc.ad_matrix(a) for a in range(k)]

    def operator_trace(a, b) -> int:
        return graded_sum((cc, sum(ad[a][cc][e] * ad[b][e][cc] for e in range(k)))
                          for cc in range(k))

    rep.check("Killing matrix equals graded operator trace of double bracket", (
        f"({a},{b}): operator trace {Fraction(tr, den2)} != {killing(a, b)}"
        for a, b in pairs if (tr := operator_trace(a, b)) * g_den != sq * g[a][b] * den2
    ))

    elements = sc.basis.elements
    twice = 2 * (sc.n - sc.m)

    def supertrace_matches(a, b) -> bool:
        prod = elements[a] @ elements[b]
        re, im = prod.diagonal_sum(signed=True)
        return not im and twice * re * g_den == sq * g[a][b] * prod.den

    rep.check("Killing matrix equals 2(n-m) times supertrace of products", (
        f"({a},{b}): 2(n-m)*str = {(elements[a] @ elements[b]).supertrace() * twice}"
        for a, b in pairs if not supertrace_matches(a, b)
    ))

    def contraction(t, a, b) -> int:
        # sum over D, C of (-1)^|C| t_AD^C t_BC^D
        return graded_sum((cc, v1 * v2) for dd in range(k)
                          for cc, v1 in t.get((a, dd), {}).items()
                          if (v2 := t.get((b, cc), {}).get(dd)))

    # contraction of two bracket tensors
    rep.check("Killing matrix equals graded double contraction of bracket constants", (
        f"({a},{b}): contraction {Fraction(s, den2)} != {killing(a, b)}"
        for a, b in pairs if (s := contraction(sc.c, a, b)) * g_den != sq * g[a][b] * den2
    ))

    # contraction of two anticommutator tensors, scaled by sq / (sq - 4); the
    # prefactor is undefined at (n-m)^2 = 4, where the check is skipped with
    # a note
    name = "Killing matrix equals scaled anticommutator contraction"
    if sq == 4:
        rep.add(name, True, None, "skipped: prefactor undefined at (n-m)^2 = 4")
    else:
        rep.check(name, (
            f"({a},{b}): scaled contraction {Fraction(sq * s, (sq - 4) * den2)}"
            for a, b in pairs
            if (s := contraction(sc.d, a, b)) * g_den != g[a][b] * (sq - 4) * den2
        ))


def _casimir_checks(rep: VerificationReport, sc: StructureConstants, degs, sq: int):
    k = sc.dim
    cT = _transpose_last(sc.c)
    dT = _transpose_last(sc.d)
    den = sc.g_inv_den * sc.den * sc.den

    def contraction(x, yT):
        # sum over C, D, E of g^{CD} x_CE^A y_DB^E, returned as dense (A, B)
        # numerators over den
        acc = [[0] * k for _ in range(k)]
        for ccc in range(k):
            grow = sc.g_inv[ccc]
            for dd in range(k):
                gv = grow[dd]
                if not gv:
                    continue
                for e in range(k):
                    xrow = x.get((ccc, e))
                    if not xrow:
                        continue
                    yrow = yT.get((dd, e))
                    if not yrow:
                        continue
                    for aa, v1 in xrow.items():
                        gv1 = gv * v1
                        acc_a = acc[aa]
                        for b, v2 in yrow.items():
                            acc_a[b] += gv1 * v2
        return acc

    cases = [
        ("bracket-bracket Casimir sum", sc.c, cT, sq),
        ("bracket-anticommutator Casimir sum", sc.c, dT, 0),
        ("anticommutator-anticommutator Casimir sum", sc.d, dT, sq - 4),
    ]
    for name, x, yT, scale in cases:
        acc = contraction(x, yT)
        rep.check(name, (
            f"({aa},{b}): {Fraction(acc[aa][b], den)} != {want}"
            for aa in range(k) for b in range(k)
            if acc[aa][b] != (want := scale if aa == b else 0) * den
        ))


def _quartic_checks(rep: VerificationReport, sc: StructureConstants, degs, sq: int):
    k = sc.dim
    got_den = sc.g_inv_den * sc.den ** 3

    def run(x, y, z, target, twice_scale) -> Optional[str]:
        # sum over D,E,F,G of (-1)^(deg_A deg_E) g^{DE} x_EB^F y_AF^G z_DG^C,
        # over got_den, compared against twice_scale / 2 * target_AB^C
        # W[e][gg] = row over C of sum_D g^{DE} z_DG^C
        w: List[Dict[int, Dict[int, int]]] = []
        for e in range(k):
            we: Dict[int, Dict[int, int]] = {}
            for dd in range(k):
                gv = sc.g_inv[dd][e]
                if not gv:
                    continue
                for gg in range(k):
                    zrow = z.get((dd, gg))
                    if not zrow:
                        continue
                    tgt = we.setdefault(gg, {})
                    for cc, v in zrow.items():
                        tgt[cc] = tgt.get(cc, 0) + gv * v
            w.append(we)
        # got / got_den == twice_scale * t / (2 den)  <=>  2 got == twice_scale * t * factor
        factor = got_den // sc.den
        for a in range(k):
            acc: Dict[Tuple[int, int], int] = {}
            for e in range(k):
                sgn = _sign(degs[a] * degs[e])
                we = w[e]
                if not we:
                    continue
                # T[f] -> dict over C of sum_G y_AF^G * W[e][G][C]
                t: Dict[int, Dict[int, int]] = {}
                for f in range(k):
                    yrow = y.get((a, f))
                    if not yrow:
                        continue
                    tf: Dict[int, int] = {}
                    for gg, v1 in yrow.items():
                        wrow = we.get(gg)
                        if not wrow:
                            continue
                        for cc, v2 in wrow.items():
                            tf[cc] = tf.get(cc, 0) + v1 * v2
                    if tf:
                        t[f] = tf
                if not t:
                    continue
                for b in range(k):
                    xrow = x.get((e, b))
                    if not xrow:
                        continue
                    for f, v1 in xrow.items():
                        tf = t.get(f)
                        if not tf:
                            continue
                        sv1 = sgn * v1
                        for cc, v2 in tf.items():
                            key = (b, cc)
                            acc[key] = acc.get(key, 0) + sv1 * v2
            for b in range(k):
                trow = target.get((a, b), {})
                for cc in range(k):
                    want = twice_scale * trow.get(cc, 0)
                    got = acc.get((b, cc), 0)
                    if 2 * got != want * factor:
                        return (f"({a},{b})^{cc}: {Fraction(got, got_den)} != "
                                f"{Fraction(want, 2 * sc.den)}")
        return None

    cases = [
        ("quartic recoupling of three brackets", sc.c, sc.c, sc.c, sc.c, sq),
        ("quartic recoupling with trailing anticommutator", sc.c, sc.c, sc.d, sc.d, -sq),
        ("quartic recoupling with two anticommutators", sc.c, sc.d, sc.d, sc.c, -(sq - 4)),
        ("quartic recoupling of three anticommutators", sc.d, sc.d, sc.d, sc.d, sq - 12),
    ]
    for name, x, y, z, target, twice_scale in cases:
        rep.check(name, [run(x, y, z, target, twice_scale)])
