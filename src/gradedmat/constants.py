"""Structure constants of the supertrace-free subalgebra.

For a homogeneous basis {E_A} the graded commutator closes on the basis,

    [E_A, E_B] = sum_C c_AB^C E_C,

while the graded anticommutator picks up a unit component,

    {E_A, E_B} = sum_C d_AB^C E_C + g_AB * 1.

``compute_constants`` extracts c, d, g by exact expansion and derives the
quadratic pairing data (g inverse, the Killing matrix (n-m)^2 g and its
inverse).  ``verify_appendix`` machine-checks the complete catalog of
identities these tensors satisfy, reporting the first counterexample of
each family if one exists.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Dict, List, Optional, Tuple

from . import linalg
from .basis import HomogeneousBasis, build_sl_basis
from .indexset import commutation_factor, permutation_sign
from .matrices import graded_anticommutator, graded_commutator
from .report import VerificationReport
from .scalars import ZERO, Scalar

SparseTensor = Dict[Tuple[int, int], Dict[int, Scalar]]


def _sign(parity: int) -> int:
    return -1 if parity else 1


@dataclass(frozen=True)
class StructureConstants:
    """c, d, g and derived pairing data over a fixed homogeneous basis.

    ``cache`` memoizes data derived from these constants elsewhere in the
    package (the differential matrices, the body-adaptedness check).  It
    is owned by the instance, so an entry can never outlive the constants
    it describes or be read back for another algebra.
    """

    basis: HomogeneousBasis
    c: SparseTensor
    d: SparseTensor
    g: Tuple[Tuple[Scalar, ...], ...]
    g_inv: Tuple[Tuple[Scalar, ...], ...]
    killing: Tuple[Tuple[Scalar, ...], ...]
    killing_inv: Tuple[Tuple[Scalar, ...], ...]
    cache: Dict[object, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

    def c_row(self, a: int, b: int) -> Dict[int, Scalar]:
        return self.c.get((a, b), {})

    def d_row(self, a: int, b: int) -> Dict[int, Scalar]:
        return self.d.get((a, b), {})

    def c_entry(self, a: int, b: int, cc: int) -> Scalar:
        return self.c.get((a, b), {}).get(cc, ZERO)

    def d_entry(self, a: int, b: int, cc: int) -> Scalar:
        return self.d.get((a, b), {}).get(cc, ZERO)

    def ad_matrix(self, a: int) -> List[List[Scalar]]:
        """Matrix of the bracket with E_a on basis coordinates (rows = target)."""
        k = self.dim
        out = [[ZERO] * k for _ in range(k)]
        for b in range(k):
            for cc, v in self.c_row(a, b).items():
                out[cc][b] = v
        return out


def compute_constants(basis: HomogeneousBasis) -> StructureConstants:
    """Exact structure constants for the given homogeneous basis."""
    if basis.n == basis.m:
        raise ValueError("quadratic pairing is singular for n == m")
    k = basis.dim
    c: SparseTensor = {}
    d: SparseTensor = {}
    g_rows = [[ZERO] * k for _ in range(k)]
    for a in range(k):
        ea = basis.elements[a]
        for b in range(k):
            eb = basis.elements[b]
            com = graded_commutator(ea, eb)
            acom = graded_anticommutator(ea, eb)
            coeffs, unit = basis.expand(com)
            if unit:
                raise AssertionError("graded commutator acquired a unit component")
            row = {cc: v for cc, v in enumerate(coeffs) if v}
            if row:
                c[(a, b)] = row
            coeffs, unit = basis.expand(acom)
            row = {cc: v for cc, v in enumerate(coeffs) if v}
            if row:
                d[(a, b)] = row
            g_rows[a][b] = unit
    g = tuple(tuple(r) for r in g_rows)
    g_inv = tuple(tuple(r) for r in linalg.inverse(g_rows))
    sq = (basis.n - basis.m) ** 2
    killing = tuple(tuple(Scalar.of(sq) * x for x in r) for r in g)
    killing_inv = tuple(tuple(x / sq for x in r) for r in g_inv)
    return StructureConstants(basis, c, d, g, g_inv, killing, killing_inv)


def constants_for(n: int, m: int) -> StructureConstants:
    return compute_constants(build_sl_basis(n, m))


# ======================================================================
# Identity catalog
# ======================================================================


def _lowered(t: SparseTensor, g) -> Dict[Tuple[int, int, int], Scalar]:
    out: Dict[Tuple[int, int, int], Scalar] = {}
    for (a, b), row in t.items():
        for dd, v in row.items():
            for cc, gv in enumerate(g[dd]):
                if gv:
                    key = (a, b, cc)
                    s = out.get(key, ZERO) + v * gv
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return out


def _check_graded_symmetry(
    t: Dict[Tuple[int, int, int], Scalar],
    degs: Tuple[int, ...],
    antisymmetric: bool,
) -> Optional[str]:
    """First violation of total graded (anti)symmetry under all of S3."""
    for key, val in t.items():
        dtuple = tuple(degs[i] for i in key)
        for sigma in permutations(range(3)):
            permuted = tuple(key[sigma[i]] for i in range(3))
            factor = commutation_factor(sigma, dtuple)
            if antisymmetric:
                factor *= permutation_sign(sigma)
            expect = Scalar.of(factor) * val
            got = t.get(permuted, ZERO)
            if got != expect:
                return f"indices {key} -> {permuted}: {got} != {expect}"
    return None


def _transpose_last(t: SparseTensor) -> Dict[Tuple[int, int], Dict[int, Scalar]]:
    """Reindex t[(a, b)][e] as out[(a, e)][b]."""
    out: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for (a, b), row in t.items():
        for e, v in row.items():
            out.setdefault((a, e), {})[b] = v
    return out


def verify_appendix(sc: StructureConstants) -> VerificationReport:
    """Check the full identity catalog for the structure constants.

    Families: parity selection, graded trace sums, total graded symmetry of
    the lowered tensors, the quadratic bracket/anticommutator relations, the
    Killing expressions, vanishing pairing contractions, Casimir-type sums,
    and the quartic recoupling contractions.
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
        f"g[{a},{b}] = {sc.g[a][b]}" for a in range(k) for b in range(k)
        if sc.g[a][b] and (degs[a] + degs[b]) % 2
    ))

    # --- graded trace sums ----------------------------------------------
    for label, tensor in (("bracket", sc.c), ("anticommutator", sc.d)):
        sums = (sum((Scalar.of(_sign(degs[b])) * tensor.get((a, b), {}).get(b, ZERO)
                     for b in range(k)), ZERO) for a in range(k))
        rep.check(f"graded trace of {label} constants vanishes",
                  (f"index {a}: sum = {s}" for a, s in enumerate(sums) if s))

    # --- total graded symmetry of lowered tensors -----------------------
    c_low = _lowered(sc.c, sc.g)
    d_low = _lowered(sc.d, sc.g)
    bad = _check_graded_symmetry(c_low, degs, antisymmetric=True)
    rep.add("lowered bracket tensor totally graded-antisymmetric", bad is None, bad)
    bad = _check_graded_symmetry(d_low, degs, antisymmetric=False)
    rep.add("lowered anticommutator tensor totally graded-symmetric", bad is None, bad)

    # --- quadratic relations --------------------------------------------
    rep.add(*_quadratic_relations(sc, degs))

    # --- Killing expressions --------------------------------------------
    _killing_checks(rep, sc, degs, sq)

    # --- pairing-contracted sums vanish ---------------------------------
    for label, tensor in (("bracket", sc.c), ("anticommutator", sc.d)):
        acc = [ZERO] * k
        for (b, cc), row in tensor.items():
            gv = sc.g_inv[b][cc]
            if not gv:
                continue
            for aa, v in row.items():
                acc[aa] = acc[aa] + gv * v
        rep.check(f"pairing-contracted {label} constants vanish",
                  (f"target index {aa}: sum = {x}" for aa, x in enumerate(acc) if x))

    # --- Casimir-type sums ----------------------------------------------
    _casimir_checks(rep, sc, degs, sq)

    # --- quartic recoupling contractions --------------------------------
    _quartic_checks(rep, sc, degs, sq)

    return rep


def _quadratic_relations(sc: StructureConstants, degs) -> Tuple[str, bool, Optional[str]]:
    """The three quadratic relations tying c, d and g together."""
    k = sc.dim
    name = "quadratic bracket/anticommutator relations"
    for a in range(k):
        for b in range(k):
            for cc in range(k):
                # line 1: graded Jacobi identity for c
                acc: Dict[int, Scalar] = {}

                def addmul(row1, row2getter, sign):
                    for e, v1 in row1.items():
                        for dd, v2 in row2getter(e).items():
                            s = acc.get(dd, ZERO) + Scalar.of(sign) * v1 * v2
                            if s:
                                acc[dd] = s
                            else:
                                acc.pop(dd, None)

                addmul(sc.c_row(b, cc), lambda e: sc.c_row(a, e), _sign(degs[a] * degs[cc]))
                addmul(sc.c_row(cc, a), lambda e: sc.c_row(b, e), _sign(degs[b] * degs[a]))
                addmul(sc.c_row(a, b), lambda e: sc.c_row(cc, e), _sign(degs[cc] * degs[b]))
                if acc:
                    dd = next(iter(acc))
                    return (
                        name,
                        False,
                        f"jacobi at ({a},{b},{cc})^{dd}: residue {acc[dd]}",
                    )

                # line 2: c*c against d*d with pairing corrections
                acc = {}
                addmul(sc.c_row(b, cc), lambda e: sc.c_row(a, e), 1)
                addmul(sc.d_row(a, b), lambda e: sc.d_row(e, cc), -1)
                s23 = _sign(degs[a] * degs[cc]) * _sign(degs[b] * degs[cc])
                addmul(sc.d_row(cc, a), lambda e: sc.d_row(e, b), s23)
                corr = Scalar.of(2 * s23) * sc.g[cc][a]
                val = acc.get(b, ZERO) + corr
                if val:
                    acc[b] = val
                else:
                    acc.pop(b, None)
                val = acc.get(cc, ZERO) - Scalar.of(2) * sc.g[a][b]
                if val:
                    acc[cc] = val
                else:
                    acc.pop(cc, None)
                if acc:
                    dd = next(iter(acc))
                    return (
                        name,
                        False,
                        f"mixed relation at ({a},{b},{cc})^{dd}: residue {acc[dd]}",
                    )

                # line 3: d against c
                acc = {}
                addmul(sc.d_row(a, b), lambda e: sc.c_row(e, cc), 1)
                addmul(sc.c_row(b, cc), lambda e: sc.d_row(a, e), -1)
                addmul(sc.c_row(a, cc), lambda e: sc.d_row(e, b), -_sign(degs[b] * degs[cc]))
                if acc:
                    dd = next(iter(acc))
                    return (
                        name,
                        False,
                        f"d-c relation at ({a},{b},{cc})^{dd}: residue {acc[dd]}",
                    )
    return name, True, None


def _killing_checks(rep: VerificationReport, sc: StructureConstants, degs, sq: int):
    k = sc.dim
    pairs = [(a, b) for a in range(k) for b in range(k)]

    def graded_sum(terms) -> Scalar:
        return sum((Scalar.of(_sign(degs[cc])) * v for cc, v in terms), ZERO)

    # operator supertrace of composed brackets, computed from the adjoint
    # matrices: an independent route to the Killing matrix
    ad = [sc.ad_matrix(a) for a in range(k)]

    def operator_trace(a, b) -> Scalar:
        return graded_sum((cc, sum((ad[a][cc][e] * ad[b][e][cc] for e in range(k)), ZERO))
                          for cc in range(k))

    rep.check("Killing matrix equals graded operator trace of double bracket", (
        f"({a},{b}): operator trace {tr} != {sc.killing[a][b]}"
        for a, b in pairs if (tr := operator_trace(a, b)) != sc.killing[a][b]
    ))

    twice = Scalar.of(2 * (sc.n - sc.m))
    rep.check("Killing matrix equals 2(n-m) times supertrace of products", (
        f"({a},{b}): 2(n-m)*str = {st}" for a, b in pairs
        if (st := twice * (sc.basis.elements[a] @ sc.basis.elements[b]).supertrace())
        != sc.killing[a][b]
    ))

    def contraction(row, a, b) -> Scalar:
        # sum over D, C of (-1)^|C| t_AD^C t_BC^D
        return graded_sum((cc, v1 * v2) for dd in range(k)
                          for cc, v1 in row(a, dd).items()
                          if (v2 := row(b, cc).get(dd)))

    # contraction of two bracket tensors
    rep.check("Killing matrix equals graded double contraction of bracket constants", (
        f"({a},{b}): contraction {s} != {sc.killing[a][b]}"
        for a, b in pairs if (s := contraction(sc.c_row, a, b)) != sc.killing[a][b]
    ))

    # contraction of two anticommutator tensors, scaled; the prefactor is
    # undefined at (n-m)^2 = 4, where the check is skipped with a note
    name = "Killing matrix equals scaled anticommutator contraction"
    if sq == 4:
        rep.add(name, True, None, "skipped: prefactor undefined at (n-m)^2 = 4")
    else:
        factor = Scalar.of(sq) / (sq - 4)
        rep.check(name, (
            f"({a},{b}): scaled contraction {s}" for a, b in pairs
            if (s := factor * contraction(sc.d_row, a, b)) != sc.killing[a][b]
        ))


def _casimir_checks(rep: VerificationReport, sc: StructureConstants, degs, sq: int):
    k = sc.dim
    cT = _transpose_last(sc.c)
    dT = _transpose_last(sc.d)

    def contraction(x, yT):
        # sum over C, D, E of g^{CD} x_CE^A y_DB^E, returned as dense (A, B)
        acc = [[ZERO] * k for _ in range(k)]
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
                        for b, v2 in yrow.items():
                            acc[aa][b] = acc[aa][b] + gv1 * v2
        return acc

    cases = [
        ("bracket-bracket Casimir sum", sc.c, cT, Scalar.of(sq)),
        ("bracket-anticommutator Casimir sum", sc.c, dT, ZERO),
        ("anticommutator-anticommutator Casimir sum", sc.d, dT, Scalar.of(sq - 4)),
    ]
    for name, x, yT, scale in cases:
        acc = contraction(x, yT)
        rep.check(name, (
            f"({aa},{b}): {acc[aa][b]} != {want}" for aa in range(k) for b in range(k)
            if acc[aa][b] != (want := scale if aa == b else ZERO)
        ))


def _quartic_checks(rep: VerificationReport, sc: StructureConstants, degs, sq: int):
    k = sc.dim

    def run(x, y, z, target, scale) -> Optional[str]:
        # sum over D,E,F,G of (-1)^(deg_A deg_E) g^{DE} x_EB^F y_AF^G z_DG^C,
        # compared against scale * target_AB^C
        # W[e][gg] = row over C of sum_D g^{DE} z_DG^C
        w: List[Dict[int, Dict[int, Scalar]]] = []
        for e in range(k):
            we: Dict[int, Dict[int, Scalar]] = {}
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
                        tgt[cc] = tgt.get(cc, ZERO) + gv * v
            w.append(we)
        for a in range(k):
            acc: Dict[Tuple[int, int], Scalar] = {}
            for e in range(k):
                sgn = _sign(degs[a] * degs[e])
                we = w[e]
                if not we:
                    continue
                # T[f] -> dict over C of sum_G y_AF^G * W[e][G][C]
                t: Dict[int, Dict[int, Scalar]] = {}
                for f in range(k):
                    yrow = y.get((a, f))
                    if not yrow:
                        continue
                    tf: Dict[int, Scalar] = {}
                    for gg, v1 in yrow.items():
                        wrow = we.get(gg)
                        if not wrow:
                            continue
                        for cc, v2 in wrow.items():
                            tf[cc] = tf.get(cc, ZERO) + v1 * v2
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
                        sv1 = Scalar.of(sgn) * v1
                        for cc, v2 in tf.items():
                            key = (b, cc)
                            acc[key] = acc.get(key, ZERO) + sv1 * v2
            for b in range(k):
                trow = target.get((a, b), {})
                for cc in range(k):
                    want = scale * trow.get(cc, ZERO)
                    got = acc.get((b, cc), ZERO)
                    if got != want:
                        return f"({a},{b})^{cc}: {got} != {want}"
        return None

    half_sq = Scalar.of(sq) / 2
    cases = [
        ("quartic recoupling of three brackets", sc.c, sc.c, sc.c, sc.c, half_sq),
        ("quartic recoupling with trailing anticommutator", sc.c, sc.c, sc.d, sc.d, -half_sq),
        ("quartic recoupling with two anticommutators", sc.c, sc.d, sc.d, sc.c,
         Scalar.of(-(sq - 4)) / 2),
        ("quartic recoupling of three anticommutators", sc.d, sc.d, sc.d, sc.d,
         Scalar.of(sq - 12) / 2),
    ]
    for name, x, y, z, target, scale in cases:
        rep.check(name, [run(x, y, z, target, scale)])
