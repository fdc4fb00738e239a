"""Named verification checks over the whole library, run by the CLI.

Each check verifies one cluster of identities exactly (tolerance zero) and
is registered with a stable dotted id plus a human-readable anchor stating
what is being verified.  Checks draw randomness only from a per-check
seeded generator, so a fixed seed and filter give identical outcomes.
"""

from __future__ import annotations

import random
import time
import zlib
from fnmatch import fnmatchcase
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, NamedTuple

from . import catalog, cross7, g2alg, lts, matmodel
from .linalg import (Matrix, Subspace, char_poly, commutator, dot,
                     is_positive_definite, is_zero_vec, kernel,
                     poly_from_roots_squared, rank)
from .scalar import ONE, SQRT6, SQRT10, SQRT15, ZERO, Scalar

__all__ = ["CheckResult", "CheckFailure", "SkipCheck", "Workspace",
           "CHECKS", "select_checks", "run_checks"]


class CheckFailure(Exception):
    """A verified identity did not hold; carries the witness."""


class SkipCheck(Exception):
    """A prerequisite failed; the check cannot run."""


class CheckResult(NamedTuple):
    id: str
    anchor: str
    status: str            # pass | fail | skipped
    witness: str | None
    duration_ms: int


class Check:  # not a NamedTuple: perfbench's tracer rebinds fn
    def __init__(self, id: str, anchor: str, fn: Callable):
        self.id, self.anchor, self.fn = id, anchor, fn


def require(cond: bool, witness: str):
    if not cond:
        raise CheckFailure(witness)


class Workspace:
    """Lazily built shared state; build failures poison their dependents."""

    def __init__(self, corrupt: str | None = None):
        self.corrupt = corrupt
        self._cache: dict[str, object] = {}
        self._errors: dict[str, Exception] = {}

    def _get(self, name: str, builder: Callable):
        if name in self._errors:
            raise SkipCheck(f"prerequisite {name} failed: {self._errors[name]}")
        if name not in self._cache:
            try:
                self._cache[name] = builder()
            except SkipCheck:
                raise
            except Exception as exc:
                self._errors[name] = exc
                raise SkipCheck(f"prerequisite {name} failed: {exc}") from exc
        return self._cache[name]

    @property
    def g2(self) -> g2alg.G2:
        return self._get("g2", g2alg.derivation_algebra)

    @property
    def frame(self) -> g2alg.Frame:
        return self._get("frame", g2alg.Frame.standard)

    @property
    def v_std(self) -> catalog.AssocSubalg:
        return self._get("v_std", lambda: catalog.AssocSubalg.from_frame(self.frame))

    @property
    def w_std(self) -> catalog.AssocSubalg:
        # meets both V and its complement: spanned by i and l
        return self._get("w_std", lambda: catalog.AssocSubalg.from_pair(
            self.frame.i, self.frame.l))

    @property
    def grading_std(self) -> catalog.Grading:
        return self._get("grading_std", lambda: catalog.grading(self.v_std, self.g2))

    @property
    def grading_w(self) -> catalog.Grading:
        return self._get("grading_w", lambda: catalog.grading(self.w_std, self.g2))

    @property
    def tds(self) -> catalog.PrincipalTds:
        return self._get("tds", lambda: catalog.principal_tds(self.frame, self.g2))

    @property
    def m4v(self) -> lts.LtsCarrier:
        return self._get("m4v", lambda: lts.LtsCarrier(
            self.g2.lts, self.grading_std.odd, "odd-part"))

    def t_carrier(self, kind: str) -> lts.LtsCarrier:
        def build():
            fr = self.frame
            # only the kind's own witness is built: tds for T1, W's split for T4
            witness = {"T1": lambda: self.tds, "T2": lambda: fr.l,
                       "T3": lambda: fr.i, "T4": lambda: self.grading_w}[kind]
            return catalog.maximal_lts(self.grading_std, kind, witness(), self.g2)
        return self._get(f"carrier_{kind}", build)

    @property
    def lift(self) -> matmodel.LiftMap:
        return self._get("lift", lambda: matmodel.LiftMap(
            self.grading_std, self.frame, self.g2))

    def sl3_carrier(self, name: str) -> lts.LtsCarrier:
        return self._get(f"sl3_{name}", lambda: matmodel.sl3_catalog(name))

    @property
    def cross_table_under_test(self):
        def build():
            table = [row[:] for row in cross7.CROSS_TABLE]
            if self.corrupt == "cross-table":
                k, sg = table[0][1]
                table[0][1] = (k, -sg)
            return table
        return self._get("cross_table", build)


CHECKS: list[Check] = []


def check(id: str, anchor: str):
    def deco(fn):
        CHECKS.append(Check(id, anchor, fn))
        return fn
    return deco


def _require_families(families) -> dict[str, lts.LtsCarrier]:
    """Dimension, closure and axioms of each (kind, dim, carrier) in turn; a
    generator builds each carrier just before its checks."""
    carriers = {}
    for kind, dim, carrier in families:
        require(carrier.dim == dim, f"{kind} dim {carrier.dim} != {dim}")
        require(carrier.is_closed(), f"{kind} is not closed")
        report = lts.check_axioms(carrier)
        require(report.all_pass(), f"{kind}: {report.witness}")
        carriers[kind] = carrier
    return carriers


def _require_maximal(families, ambient, trials, rng):
    """Adjoin-and-close probes of each (kind, carrier) in turn inside ambient."""
    for kind, carrier in families:
        report = catalog.maximality_probe(carrier, ambient, trials, rng)
        require(report.all_passed(),
                f"{kind}: {len(report.failures)} trial(s) closed to a proper "
                f"subspace (dims {[d for _, d in report.failures]})")


def _rand_scalar(rng: random.Random) -> Scalar:
    return Scalar(rng.randint(-9, 9), rng.randint(-9, 9),
                  rng.randint(-9, 9), rng.randint(-9, 9),
                  rng.randint(1, 9))


def _rand_vec7(rng: random.Random) -> list[Scalar]:
    return [Scalar.of(rng.randint(-3, 3)) for _ in range(7)]


# ----------------------------------------------------------------- scalar

@check("scalar.arith", "(r6/2)^2 = 3/2; r6*r10 = 2*r15; 1/r6 = r6/6")
def _scalar_arith(ws, rng, trials):
    half_r6 = Scalar(0, 1, 0, 0, 2)
    require(half_r6 * half_r6 == Scalar.rational(3, 2), "(r6/2)^2 != 3/2")
    require(SQRT6 * SQRT10 == Scalar.of(2) * SQRT15, "r6*r10 != 2*r15")
    require(ONE / SQRT6 == Scalar(0, 1, 0, 0, 6), "1/r6 != r6/6")
    try:
        _ = ONE / ZERO
        raise CheckFailure("division by zero did not raise")
    except ZeroDivisionError:
        pass


@check("scalar.field_axioms",
       "associativity, distributivity, inverses on random quadruples")
def _scalar_field(ws, rng, trials):
    for _ in range(60):
        x, y, z = (_rand_scalar(rng) for _ in range(3))
        require((x * y) * z == x * (y * z), f"assoc fails at {x}, {y}, {z}")
        require(x * (y + z) == x * y + x * z, f"distrib fails at {x}, {y}, {z}")
        require((x + y) + z == x + (y + z), f"add assoc fails at {x}, {y}, {z}")
        if x:
            require(x * x.inverse() == ONE, f"inverse fails at {x}")


@check("scalar.sign", "sign(0) = 0; sign(r6-2) = +1; sign(5-2*r6) = +1; "
                      "sign(xy) = sign(x)sign(y)")
def _scalar_sign(ws, rng, trials):
    require(ZERO.sign() == 0, "sign(0) != 0")
    require((SQRT6 - Scalar.of(2)).sign() == 1, "sign(r6 - 2) != +1")
    require((Scalar.of(5) - Scalar.of(2) * SQRT6).sign() == 1,
            "sign(5 - 2 r6) != +1 (25 > 24)")
    for _ in range(50):
        x, y = _rand_scalar(rng), _rand_scalar(rng)
        require((x * y).sign() == x.sign() * y.sign(),
                f"sign multiplicativity fails at {x}, {y}")
        require((x.sign() * x.sign() == 1) == bool(x), f"sign square at {x}")


@check("scalar.text_roundtrip", "parse(show(x)) = x")
def _scalar_text(ws, rng, trials):
    for _ in range(50):
        x = _rand_scalar(rng)
        require(Scalar.parse(x.show()) == x, f"roundtrip fails for {x.show()!r}")


# ----------------------------------------------------------------- linalg

@check("linalg.kernel", "kernel dims: zero 3x3 -> 3; identity -> 0; "
                        "e1-selector -> 6")
def _linalg_kernel(ws, rng, trials):
    zero3 = [[ZERO] * 3 for _ in range(3)]
    require(kernel(zero3, 3).dim == 3, "kernel of 0 is not everything")
    ident = Matrix.identity(7)
    require(kernel(ident.rows, 7).dim == 0, "kernel of identity is nonzero")
    sel = [[ONE if j == 0 else ZERO for j in range(7)]]
    ker = kernel(sel, 7)
    require(ker.dim == 6 and not ker.contains(cross7.basis_vector(0)),
            "kernel of the e1 selector is wrong")


@check("linalg.rank_nullity", "rank(A) + dim ker(A) = cols on random matrices")
def _linalg_rank(ws, rng, trials):
    for _ in range(20):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        rows = [[Scalar.of(rng.randint(-4, 4)) for _ in range(c)] for _ in range(r)]
        require(rank(rows) + kernel(rows, c).dim == c, "rank-nullity fails")


@check("linalg.subspaces", "modular dimension law; canonical idempotence; "
                           "examples on coordinate planes")
def _linalg_subspaces(ws, rng, trials):
    e = [cross7.basis_vector(i) for i in range(7)]
    u = Subspace.span([e[0], e[1]], 7)
    w = Subspace.span([e[1], e[2]], 7)
    require(u.intersect(w) == Subspace.span([e[1]], 7), "plane meet fails")
    require(Subspace.span([e[0]], 7).sum(Subspace.span([e[1]], 7)) == u,
            "span sum fails")
    require(u.contains([x + y for x, y in zip(e[0], e[1])]), "membership fails")
    for _ in range(15):
        a = Subspace.span([_rand_vec7(rng) for _ in range(rng.randint(0, 4))], 7)
        b = Subspace.span([_rand_vec7(rng) for _ in range(rng.randint(0, 4))], 7)
        require(a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim,
                "dimension law fails")
        require(Subspace.span(a.rows, 7) == a, "canonical form not idempotent")


@check("linalg.charpoly", "char(I2) = (x-1)^2; char(diag(0,2,-2)) = x^3 - 4x")
def _linalg_charpoly(ws, rng, trials):
    i2 = Matrix.identity(2)
    require(char_poly(i2) == [Scalar.of(1), Scalar.of(-2), ONE],
            "char poly of I2 wrong")
    d = Matrix([[ZERO, ZERO, ZERO], [ZERO, Scalar.of(2), ZERO],
                [ZERO, ZERO, Scalar.of(-2)]])
    require(char_poly(d) == [ZERO, Scalar.of(-4), ZERO, ONE],
            "char poly of diag(0,2,-2) wrong")


# ----------------------------------------------------------------- cross7

@check("cross.table", "e_i x e_{i+1} = e_{i+3} cycles (indices mod 7); "
                      "anticommutative; diagonal zero")
def _cross_table(ws, rng, trials):
    table = ws.cross_table_under_test
    for i in range(7):
        a, b, c = i, (i + 1) % 7, (i + 3) % 7
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            require(table[x][y] == (z, 1),
                    f"e{x+1} x e{y+1} != e{z+1}")
            require(table[y][x] == (z, -1),
                    f"e{y+1} x e{x+1} != -e{z+1}")
        require(table[i][i] is None, "diagonal entries must vanish")
    e = [cross7.basis_vector(i) for i in range(7)]
    require(cross7.cross(e[0], e[1]) == e[3], "e1 x e2 != e4")
    require(cross7.cross(e[6], e[0]) == e[2], "e7 x e1 != e3")
    x = _rand_vec7(rng)
    require(is_zero_vec(cross7.cross(x, x)), "x cross x != 0")


@check("cross.double_product",
       "(x cross y) cross z + x cross (y cross z) = 2<x,z>y - <y,z>x - <x,y>z")
def _cross_double(ws, rng, trials):
    e = [cross7.basis_vector(i) for i in range(7)]
    pool = [e[i] for i in range(7)] + [_rand_vec7(rng) for _ in range(4)]
    for x in pool[:7]:
        for y in pool[:7]:
            for z in pool[:7]:
                _require_double_product(x, y, z)
    for _ in range(20):
        x, y, z = (rng.choice(pool) for _ in range(3))
        _require_double_product(x, y, z)


def _require_double_product(x, y, z):
    lhs = [a + b for a, b in zip(cross7.cross(cross7.cross(x, y), z),
                                 cross7.cross(x, cross7.cross(y, z)))]
    two = Scalar.of(2)
    rhs = [two * dot(x, z) * yy - dot(y, z) * xx - dot(x, y) * zz
           for xx, yy, zz in zip(x, y, z)]
    require(lhs == rhs, "double product expansion fails")


@check("cross.associative_form", "<x cross y, z> = <x, y cross z> on basis triples")
def _cross_assoc_form(ws, rng, trials):
    e = [cross7.basis_vector(i) for i in range(7)]
    for i in range(7):
        for j in range(7):
            for k in range(7):
                require(dot(cross7.cross(e[i], e[j]), e[k])
                        == dot(e[i], cross7.cross(e[j], e[k])),
                        f"associative form fails at ({i}, {j}, {k})")


@check("cross.gram", "<x cross y, x> = 0; |x cross y|^2 = <x,x><y,y> - <x,y>^2")
def _cross_gram(ws, rng, trials):
    for _ in range(30):
        x, y = _rand_vec7(rng), _rand_vec7(rng)
        c = cross7.cross(x, y)
        require(not dot(c, x) and not dot(c, y), "cross not orthogonal to factors")
        gram = dot(x, x) * dot(y, y) - dot(x, y) * dot(x, y)
        require(dot(c, c) == gram, "Gram determinant identity fails")


@check("cross.omega", "alternating; omega(e1,e2,e4) = 1; omega(e1,e2,e3) = 0")
def _cross_omega(ws, rng, trials):
    e = [cross7.basis_vector(i) for i in range(7)]
    require(cross7.omega(e[0], e[1], e[3]) == ONE, "omega(e1,e2,e4) != 1")
    require(cross7.omega(e[0], e[1], e[2]) == ZERO, "omega(e1,e2,e3) != 0")
    x, z = _rand_vec7(rng), _rand_vec7(rng)
    require(cross7.omega(x, x, z) == ZERO, "omega(x,x,z) != 0")
    require(cross7.triple_is_alternating(cross7.omega), "omega is not alternating")


@check("oct.algebra", "unit law; e1*e1 = -1; e1*e2 = e4; associator alternates, "
                      "and is nonzero at (e1,e2,e3)")
def _oct_algebra(ws, rng, trials):
    e = [cross7.Octonion.pure(cross7.basis_vector(i)) for i in range(7)]
    one = cross7.Octonion.unit()
    require(one * e[0] == e[0] and e[0] * one == e[0], "unit law fails")
    require(e[0] * e[0] == cross7.Octonion(Scalar.of(-1), [ZERO] * 7),
            "e1^2 != -1")
    require(e[0] * e[1] == e[3], "e1 e2 != e4")
    require(cross7.oct_associator(one, e[1], e[2]).is_zero(),
            "associator with the unit is nonzero")
    require(cross7.oct_associator(e[0], e[0], e[1]).is_zero(),
            "associator with a repeated argument is nonzero")
    require(not cross7.oct_associator(e[0], e[1], e[2]).is_zero(),
            "associator (e1,e2,e3) vanished; the algebra must be non-associative")


@check("oct.norm", "n(pq) = n(p) n(q) on 100 random pairs")
def _oct_norm(ws, rng, trials):
    for _ in range(100):
        p = cross7.Octonion(Scalar.of(rng.randint(-3, 3)), _rand_vec7(rng))
        q = cross7.Octonion(Scalar.of(rng.randint(-3, 3)), _rand_vec7(rng))
        require((p * q).norm() == p.norm() * q.norm(),
                "norm multiplicativity fails")


@check("cross.induced_form",
       "induced bilinear form of omega = 2 * identity (definite, c = 2 > 0); "
       "induced form of 0 vanishes")
def _cross_induced(ws, rng, trials):
    beta = cross7.induced_bilinear(cross7.omega)
    expected = Matrix.identity(7).scale(Scalar.of(2))
    require(beta == expected, f"beta != 2 I: beta[0][0] = {beta.rows[0][0]}")
    require(beta.rows[0][0].sign() > 0, "diagonal constant is not positive")
    zero_form = lambda x, y, z: ZERO
    require(cross7.induced_bilinear(zero_form).is_zero(),
            "zero form induced a nonzero matrix")


# ------------------------------------------------------------------- g2

@check("g2.dimension", "dim Der(R^7, x) = 14, computed as a kernel")
def _g2_dim(ws, rng, trials):
    require(ws.g2.dim == 14, f"dimension {ws.g2.dim} != 14")


@check("g2.skew", "every basis derivation d satisfies d + d^t = 0")
def _g2_skew(ws, rng, trials):
    for idx, b in enumerate(ws.g2.basis):
        require((b + b.transpose()).is_zero(), f"basis element {idx} not skew")


@check("g2.leibniz", "d(x cross y) = d(x) cross y + x cross d(y) on basis pairs")
def _g2_leibniz(ws, rng, trials):
    e = [cross7.basis_vector(i) for i in range(7)]
    for idx, b in enumerate(ws.g2.basis):
        for i, j in combinations(range(7), 2):
            lhs = b.apply(cross7.cross(e[i], e[j]))
            rhs = [u + v for u, v in zip(cross7.cross(b.apply(e[i]), e[j]),
                                         cross7.cross(e[i], b.apply(e[j])))]
            require(lhs == rhs, f"Leibniz fails for basis {idx} at ({i}, {j})")


@check("g2.jacobi", "Jacobi identity on all basis triples")
def _g2_jacobi(ws, rng, trials):
    # on g2's bracket constants (`G2.bracket_coords`), which the triple
    # systems use; on matrices it would only restate that [x, y] = xy - yx
    n, br = ws.g2.dim, ws.g2.lts.bracket
    b = [[ONE if k == i else ZERO for k in range(n)] for i in range(n)]
    inner = {(i, j): br(b[i], b[j]) for i, j in combinations(range(n), 2)}
    for i, j, k in combinations(range(n), 3):
        s = zip(br(inner[i, j], b[k]), br(inner[j, k], b[i]), br(inner[i, k], b[j]))
        require(not any(x + y - z for x, y, z in s), "Jacobi fails on a basis triple")


@check("g2.d_operator", "D(x,x) = 0; D(e1,e2)(e1) = 4 e2; values are derivations")
def _g2_d(ws, rng, trials):
    e = [cross7.basis_vector(i) for i in range(7)]
    x = _rand_vec7(rng)
    require(g2alg.d_operator(x, x).is_zero(), "D(x, x) != 0")
    d12 = g2alg.d_operator(e[0], e[1])
    require(d12.apply(e[0]) == [Scalar.of(4) * t for t in e[1]],
            "D(e1,e2)(e1) != 4 e2")
    require(ws.g2.contains(d12), "D(e1,e2) is not a derivation")
    for _ in range(5):
        require(ws.g2.contains(g2alg.d_operator(_rand_vec7(rng), _rand_vec7(rng))),
                "a D value is not a derivation")


@check("g2.cyclic_sum",
       "D(x cross y, z) + D(y cross z, x) + D(z cross x, y) = 0, all 35 triples")
def _g2_cyclic(ws, rng, trials):
    e = [cross7.basis_vector(i) for i in range(7)]
    count = 0
    for i, j, k in combinations(range(7), 3):
        x, y, z = e[i], e[j], e[k]
        s = (g2alg.d_operator(cross7.cross(x, y), z)
             + g2alg.d_operator(cross7.cross(y, z), x)
             + g2alg.d_operator(cross7.cross(z, x), y))
        require(s.is_zero(), f"cyclic sum fails at ({i}, {j}, {k})")
        count += 1
    require(count == 35, "expected 35 unordered basis triples")


@check("g2.lambda_rho",
       "lambda_i(i) = 0; rho_i(j) = 2k; [l_a,l_b] = 2 l_{a x b}; [l_a,r_b] = 0; "
       "[r_a,r_b] = 2 r_{a x b}; all values are derivations")
def _g2_lambda_rho(ws, rng, trials):
    fr = ws.frame
    lam = {n: g2alg.lambda_operator(v, fr)
           for n, v in (("i", fr.i), ("j", fr.j), ("k", fr.k))}
    rho = {n: g2alg.rho_operator(v, fr)
           for n, v in (("i", fr.i), ("j", fr.j), ("k", fr.k))}
    require(is_zero_vec(lam["i"].apply(fr.i)), "lambda_i(i) != 0")
    require(rho["i"].apply(fr.j) == [Scalar.of(2) * t for t in fr.k],
            "rho_i(j) != 2k")
    for m in list(lam.values()) + list(rho.values()):
        require(ws.g2.contains(m), "operator is not a derivation")
    vecs = {"i": fr.i, "j": fr.j, "k": fr.k}
    for na, a in vecs.items():
        for nb, b in vecs.items():
            axb = cross7.cross(a, b)
            lam_axb = g2alg.lambda_operator(axb, fr)
            rho_axb = g2alg.rho_operator(axb, fr)
            require(commutator(lam[na], lam[nb]) == lam_axb.scale(Scalar.of(2)),
                    f"[lambda_{na}, lambda_{nb}] != 2 lambda cross")
            require(commutator(lam[na], rho[nb]).is_zero(),
                    f"[lambda_{na}, rho_{nb}] != 0")
            require(commutator(rho[na], rho[nb]) == rho_axb.scale(Scalar.of(2)),
                    f"[rho_{na}, rho_{nb}] != 2 rho cross")


@check("g2.killing", "Killing form negative definite; even part orthogonal to "
                     "odd part; kappa = 4 * (7-dim trace form), recorded")
def _g2_killing(ws, rng, trials):
    g2 = ws.g2
    kf = g2.killing_form
    require(is_positive_definite(-kf), "Killing form is not negative definite")
    grading = ws.grading_std
    for er in grading.even.rows:
        for orow in grading.odd.rows:
            require(dot(er, kf.apply(orow)) == ZERO,
                    "even and odd parts are not Killing-orthogonal")
    ratio = g2.killing_trace_ratio()
    require(g2.killing_form == g2.trace_form.scale(ratio),
            "Killing form is not proportional to the trace form")
    require(ratio == Scalar.of(4), f"recorded ratio changed: {ratio}")


@check("g2.normalizer", "normalizer(full) = full; the principal triple is "
                        "self-normalizing with zero centralizer")
def _g2_normalizer(ws, rng, trials):
    g2 = ws.g2
    full = Subspace.full(g2.dim)
    require(g2.normalizer(full) == full, "normalizer of the algebra is smaller")
    h = ws.tds.space
    require(g2.normalizer(h) == h, "principal triple is not self-normalizing")
    require(g2.centralizer(h).dim == 0, "principal triple has a centralizer")


# ------------------------------------------------------------------- lts

@check("lts.triple", "[[x,y],z] antisymmetric; (E12, E21, E12) -> 2 E12 in gl2")
def _lts_triple(ws, rng, trials):
    e12, e21 = Matrix.unit(2, 2, 0, 1), Matrix.unit(2, 2, 1, 0)
    require(lts.triple_in_lie(e12, e21, e12) == e12.scale(Scalar.of(2)),
            "[[E12,E21],E12] != 2 E12")
    require(lts.triple_in_lie(e12, e12, e21).is_zero(), "[[x,x],z] != 0")
    hs = ws.tds
    # [[h1,h2],h1] = [h3,h1] = h2 by the bracket relations
    require(lts.triple_in_lie(hs.h1, hs.h2, hs.h1) == hs.h2,
            "[[h1,h2],h1] != h2")


@check("lts.axioms_full", "the full 14-dim algebra as a triple system passes "
                          "antisymmetry, the cyclic sum, and the derivation axiom")
def _lts_axioms_full(ws, rng, trials):
    carrier = lts.LtsCarrier(ws.g2.lts, Subspace.full(14), "full-algebra")
    report = lts.check_axioms(carrier)
    require(report.all_pass(), report.witness or "axiom failure")


@check("lts.abstract_counterexample",
       "the 2-dim system with c_1211 = 1 satisfies (ii)-(iii) but fails (iv)")
def _lts_counterexample(ws, rng, trials):
    z2 = [ZERO, ZERO]
    struct = [[[list(z2) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    struct[0][1][0] = [ONE, ZERO]    # [e1, e2, e1] = e1
    struct[1][0][0] = [-ONE, ZERO]
    system = lts.abstract_lts(struct, "c1211")
    carrier = lts.LtsCarrier(system, Subspace.full(2), "c1211")
    report = lts.check_axioms(carrier)
    require(report.antisymmetry and report.cyclic,
            "counterexample should satisfy (ii) and (iii)")
    require(not report.derivation,
            "the derivation axiom unexpectedly holds for c_1211 = 1")


@check("lts.m34", "the 3x4 skew product satisfies (i)-(iv) on the full 12-dim "
                  "space and the 8-element template basis closes")
def _lts_m34(ws, rng, trials):
    system = matmodel.M34
    full = lts.LtsCarrier(system, Subspace.full(12), "m34-full")
    report = lts.check_axioms(full)
    require(report.all_pass(), report.witness or "axiom failure on 3x4 blocks")
    basis = matmodel.m34_template_basis()
    sub = lts.LtsCarrier(system,
                         Subspace.span([m.flatten() for m in basis], 12),
                         "m34-template")
    require(sub.dim == 8, "template basis does not have dimension 8")
    require(sub.is_closed(), "template basis does not close")
    a = Matrix.unit(3, 4, 0, 0)  # e11
    b = Matrix.unit(3, 4, 0, 1)  # e12
    require(matmodel.m34_triple(a, b, b) == a, "(e11, e12, e12) != e11")
    c = Matrix.unit(3, 4, 2, 3)
    require(matmodel.m34_triple(a, a, c).is_zero(), "(a, a, c) != 0")


@check("lts.envelope", "embedded envelope dims: odd part -> 14; "
                       "5-dim family -> 8; zero -> 0")
def _lts_envelope(ws, rng, trials):
    require(lts.envelope_dim(ws.m4v) == 14, "envelope of the odd part != 14")
    require(lts.envelope_dim(ws.t_carrier("T2")) == 8,
            "envelope of the 5-dim family != 8")
    zero = lts.LtsCarrier(ws.g2.lts, Subspace.zero(14), "zero")
    require(lts.envelope_dim(zero) == 0, "envelope of 0 != 0")


@check("lts.ideals", "0 and T are ideals of T; a 1-dim span inside the "
                     "2-dim sphere family is not an ideal")
def _lts_ideals(ws, rng, trials):
    t1 = ws.t_carrier("T1")
    require(lts.is_ideal(Subspace.zero(14), t1), "0 is not an ideal")
    require(lts.is_ideal(t1.space, t1), "T is not an ideal of itself")
    one_dim = Subspace.span([t1.space.rows[0]], 14)
    require(not lts.is_ideal(one_dim, t1),
            "a line in the sphere family should not be an ideal")


# --------------------------------------------------------------- catalog

@check("catalog.associative", "<e1,e2,e4> is associative; <e1,e2,e3> is not; "
                              "2-dim subspaces are rejected")
def _catalog_assoc(ws, rng, trials):
    e = [cross7.basis_vector(i) for i in range(7)]
    require(catalog.is_associative(Subspace.span([e[0], e[1], e[3]], 7)),
            "<e1,e2,e4> not associative")
    require(not catalog.is_associative(Subspace.span([e[0], e[1], e[2]], 7)),
            "<e1,e2,e3> should not be associative")
    require(not catalog.is_associative(Subspace.span([e[0], e[1]], 7)),
            "2-dim subspace accepted")


@check("catalog.theta", "theta = 2 proj - 1 is an order-two algebra "
                        "automorphism, +1 on V and -1 on the complement")
def _catalog_theta(ws, rng, trials):
    v = ws.v_std
    th = v.theta()
    e = [cross7.basis_vector(i) for i in range(7)]
    require(th.apply(e[0]) == e[0], "theta(e1) != e1")
    require(th.apply(e[2]) == [-t for t in e[2]], "theta(e3) != -e3")
    require(th @ th == Matrix.identity(7), "theta^2 != id")
    # against V and its complement, not theta's own formula
    require(all(th.apply(r) == r for r in v.space.rows), "theta is not +1 on V")
    require(all(th.apply(r) == [-t for t in r] for r in v.complement().rows),
            "theta is not -1 on the complement")
    for i, j in combinations(range(7), 2):
        require(th.apply(cross7.cross(e[i], e[j]))
                == cross7.cross(th.apply(e[i]), th.apply(e[j])),
                f"theta(e{i+1} x e{j+1}) != theta(e{i+1}) x theta(e{j+1})")


@check("catalog.grading", "even/odd dims 6 and 8; bracket laws; even part = "
                          "span of the lambda/rho operators")
def _catalog_grading(ws, rng, trials):
    g, g2 = ws.grading_std, ws.g2
    require(g.even.dim == 6 and g.odd.dim == 8,
            f"grading dims ({g.even.dim}, {g.odd.dim}) != (6, 8)")
    # grading solves membership (d(V-perp) <= V-perp, resp. d swaps V and
    # V-perp); cross-check with the eigenspaces of conjugation by theta
    th = ws.v_std.theta()
    conj = Matrix.from_columns([g2.coords(th @ b @ th) for b in g2.basis])
    for part, sign, name in ((g.even, 1, "even"), (g.odd, -1, "odd")):
        eigen = kernel((conj - Matrix.identity(g2.dim).scale(sign)).rows, g2.dim)
        if eigen != part:
            stray = next(r for a, b in ((part, eigen), (eigen, part))
                         for r in a.rows if not b.contains(r))
            raise CheckFailure(
                f"{name} part != {sign:+d}-eigenspace of conjugation by theta"
                f" (dims {part.dim}, {eigen.dim}); in one only: "
                f"[{', '.join(map(str, stray))}]")
    require(catalog.verify_grading(g, g2), "bracket laws fail")
    fr = ws.frame
    mats = [g2alg.lambda_operator(a, fr) for a in (fr.i, fr.j, fr.k)]
    mats += [g2alg.rho_operator(a, fr) for a in (fr.i, fr.j, fr.k)]
    require(g2.subspace_from_matrices(mats) == g.even,
            "even part is not the lambda/rho span")


@check("catalog.annihilator", "dim {d : d(u) = 0} = 8; closed under the "
                              "bracket; annihilator(2u) = annihilator(u)")
def _catalog_annihilator(ws, rng, trials):
    g2 = ws.g2
    u = cross7.basis_vector(2)
    ann = catalog.annihilator_subalg(u, g2)
    require(ann.dim == 8, f"annihilator dim {ann.dim} != 8")
    require(catalog.is_subalgebra(ann, g2), "annihilator is not bracket-closed")
    for r in ann.rows:
        require(is_zero_vec(g2.mat(r).apply(u)), "annihilator member moves u")
    require(catalog.annihilator_subalg([Scalar.of(2) * t for t in u], g2) == ann,
            "annihilator is not scale-invariant")


@check("catalog.principal", "[h_i, h_{i+1}] = h_{i+2}; char(h1) = "
                            "x(x^2+1)(x^2+4)(x^2+9); h1 even, h2 and h3 odd")
def _catalog_principal(ws, rng, trials):
    tds = ws.tds
    hs = tds.matrices()
    for i in range(3):
        require(commutator(hs[i], hs[(i + 1) % 3]) == hs[(i + 2) % 3],
                f"[h{i+1}, h{(i+1)%3+1}] != h{(i+2)%3+1}")
    require(char_poly(tds.h1) == poly_from_roots_squared([1, 4, 9]),
            "char(h1) != x^7 + 14x^5 + 49x^3 + 36x")
    g = ws.grading_std
    require(g.even.contains(ws.g2.coords(tds.h1)), "h1 is not even")
    require(g.odd.contains(ws.g2.coords(tds.h2)), "h2 is not odd")
    require(g.odd.contains(ws.g2.coords(tds.h3)), "h3 is not odd")


@check("catalog.adapted", "standard pair is adapted with dim(h cap odd) = 2; "
                          "homogeneity and dimension criteria agree on 100 "
                          "random subalgebras; a non-adapted witness exists")
def _catalog_adapted(ws, rng, trials):
    tds = ws.tds
    require(catalog.is_adapted(tds, ws.v_std, ws.g2),
            "standard pair is not adapted")
    require(tds.space.intersect(ws.grading_std.odd).dim == 2,
            "dim(h cap odd) != 2")
    e = [cross7.basis_vector(i) for i in range(7)]
    for a, b, c in ((1, 5, 6), (1, 2, 4)):  # adapted, off the standard frame
        v = catalog.AssocSubalg(Subspace.span([e[a], e[b], e[c]], 7))
        require(catalog.is_adapted(tds, v, ws.g2),
                f"<e{a+1},e{b+1},e{c+1}> is not adapted")
    non_adapted = 0
    for _ in range(100):
        v = catalog.random_assoc(rng)
        # is_adapted raises if the two criteria ever disagree
        if not catalog.is_adapted(tds, v, ws.g2):
            non_adapted += 1
    require(non_adapted > 0, "no non-adapted subalgebra found in 100 draws")


@check("catalog.t_dims", "the four intersection families have dims 2/5/4/4, "
                         "close under the triple product, and satisfy the axioms")
def _catalog_t_dims(ws, rng, trials):
    _require_families((kind, dim, ws.t_carrier(kind))
                      for kind, (dim, _, _) in catalog.FAMILIES.items())


@check("catalog.t_envelopes",
       "embedded envelopes have dims 3/8/8/6 (the 8-dim annihilator algebra is "
       "simple, so the third family generates all of it); [T4,T4] = "
       "even(W) cap even(V); T2 and T4 explicit spans")
def _catalog_t_env(ws, rng, trials):
    g2 = ws.g2
    dims = {kind: lts.envelope_dim(ws.t_carrier(kind)) for kind in catalog.FAMILIES}
    expected = {kind: env for kind, (_, env, _) in catalog.FAMILIES.items()}
    require(dims == expected, f"envelope dims {dims} != "
            + ", ".join(f"{kind}:{env}" for kind, env in expected.items()))
    fr = ws.frame
    # T2 = span of the symmetrised D(v, v x l) family, dimension 5
    fam = [g2alg.d_operator(a, cross7.cross(b, fr.l))
           + g2alg.d_operator(b, cross7.cross(a, fr.l))
           for a, b in combinations_with_replacement((fr.i, fr.j, fr.k), 2)]
    require(g2.subspace_from_matrices(fam) == ws.t_carrier("T2").space,
            "T2 is not the symmetrised D(v, v x l) span")
    # T4 = span{D(x, y)} over x in V cap W-perp, y in V-perp cap W-perp
    v, w = ws.v_std, ws.w_std
    xs = v.space.intersect(w.complement())
    ys = v.complement().intersect(w.complement())
    fam4 = [g2alg.d_operator(x, y) for x in xs.rows for y in ys.rows]
    require(g2.subspace_from_matrices(fam4) == ws.t_carrier("T4").space,
            "T4 is not the D(V cap W-perp, V-perp cap W-perp) span")
    # [T4, T4] equals even(W) cap even(V)
    t4 = ws.t_carrier("T4").space.rows
    lhs = Subspace.span([g2.lts.bracket(a, b) for a, b in combinations(t4, 2)], 14)
    rhs = ws.grading_w.even.intersect(ws.grading_std.even)
    require(lhs == rhs, "[T4, T4] != even(W) cap even(V)")
    require(rhs.dim == 2, "even(W) cap even(V) does not have dimension 2")
    # the annihilator of a vector inside V splits 4/4 along the grading
    ann_i = catalog.annihilator_subalg(fr.i, g2)
    require(ann_i.intersect(ws.grading_std.even).dim == 4,
            "annihilator(i) cap even does not have dimension 4")
    require(ann_i.intersect(ws.grading_std.odd).dim == 4,
            "annihilator(i) cap odd does not have dimension 4")


@check("catalog.profile", "V = W gives (3,0,0,4); the crossing pair gives "
                          "(1,2,2,2); random profiles fall in the case list")
def _catalog_profile(ws, rng, trials):
    v, w = ws.v_std, ws.w_std
    require(catalog.intersection_profile(v, v) == (3, 0, 0, 4),
            "profile(V, V) wrong")
    require(catalog.intersection_profile(v, w) == (1, 2, 2, 2),
            "profile of the crossing pair wrong")
    # dim V cap W is 0, 1 or 3 (two independent common vectors bring their
    # cross product), the middle entries agree (the projections V -> W and
    # W -> V are adjoint), and the last is dim (V + W)-perp
    allowed = {
        (3, 0, 0, 4),              # W = V
        (1, 2, 2, 2),              # crossing case
        (1, 0, 0, 2),              # shares one line with V, generic
        (0, 1, 1, 1),              # three hyperplane traces
        (0, 0, 0, 1),              # generic
    }
    for _ in range(40):
        w2 = catalog.random_assoc(rng)
        prof = catalog.intersection_profile(v, w2)
        require(prof in allowed, f"unexpected intersection profile {prof}")


@check("catalog.pasapa", "theta_V theta_W = theta_W theta_V iff "
                         "theta_W(V) <= V, for V != W")
def _catalog_pasapa(ws, rng, trials):
    v = ws.v_std
    thv = v.theta()

    def sides(w):  # (theta_V theta_W = theta_W theta_V, theta_W(V) <= V)
        thw = w.theta()
        require(thw @ thw == Matrix.identity(7), "theta_W is not an involution")
        return (thv @ thw == thw @ thv,
                all(v.space.contains(thw.apply(r)) for r in v.space.rows))
    # the crossing pair, profile (1,2,2,2), is on the commuting side
    require(sides(ws.w_std) == (True, True),
            "the crossing pair is not on the commuting side")
    for _ in range(40):
        w = catalog.random_assoc(rng)
        if w.space == v.space:
            continue
        commute, invariant = sides(w)
        require(commute == invariant,
                "commutation and invariance criteria disagree")


@check("catalog.maximality", "seeded adjoin-and-close trials: every extension "
                             "of each family generates the full odd part")
def _catalog_maximality(ws, rng, trials):
    _require_maximal(((kind, ws.t_carrier(kind)) for kind in catalog.FAMILIES),
                     ws.m4v, trials, rng)


@check("catalog.non_maximal_witness",
       "a 1-dim subfamily of the sphere family is not maximal: adjoining the "
       "partner element closes to the 2-dim family, a proper subspace")
def _catalog_non_maximal(ws, rng, trials):
    tds, g2 = ws.tds, ws.g2
    one_dim = lts.LtsCarrier(g2.lts, g2.subspace_from_matrices([tds.h2]), "line")
    report = catalog.maximality_probe(one_dim, ws.m4v, 1, rng,
                                      extra_candidates=[g2.coords(tds.h3)])
    require(not report.all_passed(), "crafted extension closed to the full space")
    require(report.failures and report.failures[0][1] == 2,
            "closure of the crafted extension should have dimension 2")


# -------------------------------------------------------------- matmodel

@check("matmodel.ms_prime", "projection onto <e1,e2,e4> passes the vanishing "
                            "test; onto <e1,e2,e3> fails; bad trace rejected")
def _mm_ms_prime(ws, rng, trials):
    e = [cross7.basis_vector(i) for i in range(7)]
    p_good = matmodel.projection_onto(ws.v_std.space)
    require(matmodel.in_ms_prime(p_good), "projection onto V1 fails")
    p_bad = matmodel.projection_onto(Subspace.span([e[0], e[1], e[2]], 7))
    require(not matmodel.in_ms_prime(p_bad),
            "projection onto <e1,e2,e3> passes")
    try:
        matmodel.Projection(Matrix.identity(7))
        raise CheckFailure("trace-7 projection accepted")
    except ValueError:
        pass


@check("matmodel.gr3_tangent", "tangent dim 12; tangents swap the fixed and "
                               "kernel spaces; symmetric with zero diagonal blocks")
def _mm_gr3(ws, rng, trials):
    p = matmodel.projection_onto(ws.v_std.space)
    tangent = matmodel.gr3_tangent(p)
    require(tangent.dim == 12, f"tangent dim {tangent.dim} != 12")
    fixed = p.fixed_space()
    kerp = p.kernel_space()
    for row in tangent.rows:
        d = Matrix.from_flat(row, 7, 7)
        require(d == d.transpose(), "tangent element is not symmetric")
        require(d.trace() == ZERO, "tangent element has nonzero trace")
        for fv in fixed.rows:
            require(kerp.contains(d.apply(fv)), "d does not map fix into ker")
        for kv in kerp.rows:
            require(fixed.contains(d.apply(kv)), "d does not map ker into fix")


@check("matmodel.ms_tangent", "dim 8; the linearised product rule holds on all "
                              "basis pairs; v-multiplication table; third-row template")
def _mm_ms_tangent(ws, rng, trials):
    fr = ws.frame
    p = matmodel.projection_onto(ws.v_std.space)
    tangent = matmodel.ms_tangent(p, fr)
    require(tangent.dim == 8, f"tangent dim {tangent.dim} != 8")
    e = [cross7.basis_vector(i) for i in range(7)]
    pc = p.complement_map()
    pe = [p.mat.apply(v) for v in e]
    pexpe = [[cross7.cross(a, b) for b in pe] for a in pe]
    for row in tangent.rows:
        d = Matrix.from_flat(row, 7, 7)
        de = [d.apply(v) for v in e]
        for i in range(7):
            for j in range(7):
                # complement-projected product rule at the projection point
                lhs = pc.apply([u + v for u, v in zip(cross7.cross(de[i], pe[j]),
                                                      cross7.cross(pe[i], de[j]))])
                rhs = d.apply(pexpe[i][j])
                require(lhs == rhs, f"linearised rule fails at ({i}, {j})")
        rm = matmodel.row_matrix(d, fr)
        require(matmodel.matches_template(rm), "third-row template violated")
        require(matmodel.from_row_matrix(rm, fr) == d,
                "row-matrix data does not determine the tangent element")
    vs = fr.vectors[3:]
    table = {("i", 0): vs[1], ("i", 1): [-t for t in vs[0]],
             ("i", 2): [-t for t in vs[3]], ("i", 3): vs[2],
             ("j", 0): vs[2], ("j", 1): vs[3],
             ("j", 2): [-t for t in vs[0]], ("j", 3): [-t for t in vs[1]],
             ("k", 0): vs[3], ("k", 1): [-t for t in vs[2]],
             ("k", 2): vs[1], ("k", 3): [-t for t in vs[0]]}
    named = {"i": fr.i, "j": fr.j, "k": fr.k}
    for (nm, idx), expect in table.items():
        require(cross7.cross(named[nm], vs[idx]) == expect,
                f"v-table entry ({nm}, v{idx}) wrong")
    require(vs[1] == cross7.basis_vector(6)
            and vs[2] == cross7.basis_vector(4)
            and vs[3] == [-t for t in cross7.basis_vector(5)],
            "standard frame resolves to v1 = e7, v2 = e5, v3 = -e6")


@check("matmodel.m34_match", "the row-matrix of [[d1,d2],d3] equals the 3x4 "
                             "skew product of the row matrices")
def _mm_m34_match(ws, rng, trials):
    lift = ws.lift
    rms = [matmodel.row_matrix(d, ws.frame) for d in lift.basis]
    # row_matrix is linear, so lhs is the row matrix of [[d_x, d_y], d_z]
    for x, y, z, lhs, rhs in lift.triple_images(rms, matmodel.M34.operator):
        require(lhs == rhs, f"mismatch at basis triple ({x},{y},{z})")


@check("matmodel.lift", "each tangent element lifts to the unique odd "
                        "derivation agreeing on V0; the lift is a bijection "
                        "and intertwines triples with global sign -1")
def _mm_lift(ws, rng, trials):
    lift = ws.lift
    for d, dtilde in zip(lift.basis, lift.lifted):
        for f in (ws.frame.i, ws.frame.j, ws.frame.k):
            require(dtilde.apply(f) == d.apply(f), "lift changes values on V0")
    require(Subspace.span([ws.g2.coords(m) for m in lift.lifted], 14)
            == ws.grading_std.odd, "lift image is not the odd part")
    nonzero = False
    for x, y, z, lhs, rhs in lift.triple_images(lift.lifted, lts.GL7.operator):
        require(lhs == [-t for t in rhs], f"sign -1 fails at ({x},{y},{z})")
        nonzero = nonzero or any(rhs)
    require(nonzero, "triple product vanished identically")


@check("matmodel.to_sl3", "roundtrips both ways; intertwines all 512 basis "
                          "triples with the twisted 3x3 product; envelope "
                          "dimension through the lift = 14")
def _mm_to_sl3(ws, rng, trials):
    lift = ws.lift
    fr = ws.frame
    rms = [matmodel.row_matrix(d, fr) for d in lift.basis]
    sl3s = [matmodel.to_sl3(rm) for rm in rms]
    for rm in rms:
        require(matmodel.from_sl3(matmodel.to_sl3(rm)) == rm,
                "from_sl3(to_sl3) is not the identity")
    for m in sl3s:
        require(matmodel.to_sl3(matmodel.from_sl3(m)) == m,
                "to_sl3(from_sl3) is not the identity")
    require(not any(m.trace() for m in sl3s), "an sl3 image is not traceless")
    # to_sl3 and row_matrix are linear, so lhs is the image of [[d_x, d_y], d_z]
    for x, y, z, lhs, rhs in lift.triple_images(sl3s, matmodel.SL3.operator):
        require(not (rhs[0] + rhs[4] + rhs[8]),
                f"triple product left the traceless space at ({x},{y},{z})")
        require(lhs == rhs, f"intertwining fails at ({x},{y},{z})")
    image = Subspace.span([m.flatten() for m in lift.lifted], 49)
    require(lts.envelope_dim(lts.LtsCarrier(lts.GL7, image, "lift-image")) == 14,
            "envelope through the lift != 14")


@check("matmodel.sphere", "the 2-dim family maps onto the (-2s, ..., s, t) "
                          "matrix pattern; equals the image of the adapted "
                          "intersection")
def _mm_sphere(ws, rng, trials):
    fr = ws.frame
    sphere = ws.sl3_carrier("sphere")
    t1 = ws.t_carrier("T1")
    images = []
    for row in t1.space.rows:
        m = matmodel.to_sl3(matmodel.row_matrix(ws.g2.mat(row), fr))
        images.append(m.flatten())
        s = m.rows[0][0] / Scalar.of(-2)
        t = m.rows[1][2]
        require(m == matmodel.d_st(s, t), "image is not of the d_{s,t} form")
    require(Subspace.span(images, 9) == sphere.space,
            "image of the adapted intersection is not the sphere family")
    h2_img = matmodel.to_sl3(matmodel.row_matrix(ws.tds.h2, fr))
    half_r6 = Scalar(0, -1, 0, 0, 2)
    require(h2_img == matmodel.d_st(half_r6, ZERO),
            "h2 does not map to d_{-r6/2, 0}")


@check("matmodel.grid", "triple product coefficient exactly 2/3 on the full "
                        "integer grid s, t in {-2..2}; metric identity "
                        "coefficient -28/3 on the same grid")
def _mm_grid(ws, rng, trials):
    report = matmodel.curvature_check(2)
    require(report.get("triple_coefficient_ok", False),
            f"2/3 coefficient fails at {report.get('witness')}")
    require(report.get("metric_identity_ok", False),
            f"-28/3 identity fails at {report.get('witness')}")


@check("matmodel.curvature", "curvature over metric form ratio = 1/14 exactly")
def _mm_curvature(ws, rng, trials):
    report = matmodel.curvature_check(1)
    require(report.get("curvature_over_metric_form") == Scalar.rational(1, 14),
            "ratio != 1/14")


@check("matmodel.metric", "positive definite on the traceless basis; "
                          "metric(E12+E21, E12-E21) = 0")
def _mm_metric(ws, rng, trials):
    basis = [Matrix.from_flat(r, 3, 3) for r in ws.sl3_carrier("full").space.rows]
    require(matmodel.metric_gram_is_positive_definite(basis),
            "metric Gram matrix is not positive definite")
    e12, e21 = Matrix.unit(3, 3, 0, 1), Matrix.unit(3, 3, 1, 0)
    require(matmodel.metric(e12 + e21, e12 - e21) == ZERO,
            "mixed symmetric/antisymmetric value != 0")


@check("matmodel.sl3_catalog", "families have dims 2/5/4/4; all closed; "
                               "refl4 orthogonal to gotro; gotro closed; "
                               "symmetric family reduces to the plain product")
def _mm_sl3_catalog(ws, rng, trials):
    carriers = _require_families((kind, dim, ws.sl3_carrier(kind))
                                 for dim, _, kind in catalog.FAMILIES.values())
    gotro = ws.sl3_carrier("gotro")  # built only if it closes
    for a in carriers["refl4"].space.rows:
        for b in gotro.space.rows:
            require(matmodel.metric(Matrix.from_flat(a, 3, 3),
                                    Matrix.from_flat(b, 3, 3)) == ZERO,
                    "refl4 is not metric-orthogonal to gotro")
    sym = [Matrix.from_flat(r, 3, 3) for r in carriers["sym5"].space.rows]
    for x, y, z in product(sym[:3], repeat=3):
        require(matmodel.sl3_triple(x, y, z) == matmodel.skew_triple(x, y, z),
                "twist term does not vanish on symmetric matrices")


@check("matmodel.sl3_maximality", "seeded adjoin-and-close trials: every "
                                  "extension of each 3x3 family generates the "
                                  "full traceless space")
def _mm_sl3_max(ws, rng, trials):
    _require_maximal(((kind, ws.sl3_carrier(kind))
                      for _, _, kind in catalog.FAMILIES.values()),
                     ws.sl3_carrier("full"), trials, rng)


# ----------------------------------------------------------------- runner

def select_checks(patterns: list[str] | None) -> list[Check]:
    if not patterns:
        return list(CHECKS)
    selected = [c for c in CHECKS
                if any(fnmatchcase(c.id, p) for p in patterns)]
    return selected


def run_checks(checks: list[Check], seed: int, trials: int,
               corrupt: str | None = None,
               timing: bool = True) -> list[CheckResult]:
    ws = Workspace(corrupt=corrupt)
    results = []
    for c in checks:
        rng = random.Random((seed & 0xFFFFFFFF) ^ zlib.crc32(c.id.encode()))
        start = time.perf_counter()
        try:
            c.fn(ws, rng, trials)
            status, witness = "pass", None
        except SkipCheck as exc:
            status, witness = "skipped", str(exc)
        except CheckFailure as exc:
            status, witness = "fail", str(exc)
        except Exception as exc:  # noqa: BLE001 - any escape is a failure
            status, witness = "fail", f"{type(exc).__name__}: {exc}"
        duration = int((time.perf_counter() - start) * 1000) if timing else 0
        results.append(CheckResult(c.id, c.anchor, status, witness, duration))
    return results
