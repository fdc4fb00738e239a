"""Associative subalgebras of (R^7, x) and the triple-system catalogue.

The even/odd split of the derivation algebra induced by an associative
3-dimensional subspace V, the order-two automorphism theta_V, the
annihilator subalgebras, the explicit 3-dimensional simple subalgebra of
the principal type, adaptedness tests, the four intersection families
T1-T4 inside the odd part, and the maximality probe.  Subalgebras and
families are subspaces of g2's 14 basis coordinates; the families and the
odd part carry g2's triple product there (`G2.lts`), so closures and
envelopes never form a 7x7 matrix.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import NamedTuple, Sequence

from .cross7 import cross
from .g2alg import G2, Frame, d_operator
from .linalg import (Matrix, Subspace, Vec, char_poly, cleared, combine,
                     commutator, dot, flat_product, kernel,
                     poly_from_roots_squared, projection_matrix, zero_of)
from .lts import LtsCarrier, generated_subtriple, quotient_module_test
from .scalar import Scalar

__all__ = [
    "AssocSubalg", "FAMILIES", "Family", "Grading", "PrincipalTds",
    "ProbeReport", "is_associative", "grading", "verify_grading",
    "annihilator_subalg", "principal_tds", "is_adapted", "maximal_lts",
    "intersection_profile", "maximality_probe", "random_assoc",
    "mapping_space", "is_subalgebra",
]

def is_associative(v: Subspace) -> bool:
    """dim 3 and a x b in V for the first two basis rows a, b.

    One pair suffices: for independent a and b, a x b is nonzero and
    orthogonal to both, so a x b in V makes V = span{a, b, a x b}, which
    is always closed under the cross product."""
    if v.n != 7:
        raise ValueError("expected a subspace of R^7")
    if v.dim != 3:
        return False
    a, b, _ = v.basis
    return v.contains(cross(a, b))


class AssocSubalg:
    """A 3-dimensional subspace closed under the cross product."""

    __slots__ = ("space", "_complement")

    def __init__(self, space: Subspace):
        if not is_associative(space):
            raise ValueError("subspace is not a 3-dimensional associative subalgebra")
        self.space = space
        comp = self._complement = space.complement()
        failure = _split_failure(space, comp)
        if failure:
            raise AssertionError(failure)

    @classmethod
    def from_frame(cls, frame: Frame) -> "AssocSubalg":
        """V = <i, j, k> of the frame."""
        return cls(Subspace.span([frame.i, frame.j, frame.k], 7))

    @classmethod
    def from_pair(cls, u: Sequence[Scalar], w: Sequence[Scalar]) -> "AssocSubalg":
        """span{u, w, u x w}: associative for any independent u, w, given as
        Scalars or as ints (as `random_assoc` draws them)."""
        uxw = cross(list(u), list(w))
        space = Subspace.span([list(u), list(w), uxw], 7)
        if space.dim != 3:
            raise ValueError("vectors do not span a 3-dimensional subalgebra")
        return cls(space)

    def theta(self) -> Matrix:
        """theta_V = 2 pi_V - 1: +id on V, -id on the complement."""
        pi = projection_matrix(self.space)
        return pi.scale(Scalar.of(2)) - Matrix.identity(7)

    def complement(self) -> Subspace:
        return self._complement


def _split_failure(space: Subspace, comp: Subspace) -> str | None:
    """Which half of the split V x V-perp <= V-perp, V-perp x V-perp <= V
    fails, or None; on the integer bases for rational V.  Since a x a = 0
    and b x a = -(a x b), V-perp x V-perp is formed on the 6 unordered
    pairs of V-perp's basis rows."""
    vs, ts = space.basis, comp.basis
    if not all(comp.contains(cross(a, b)) for a, b in product(vs, ts)):
        return "V x V-perp leaves the complement"
    if not all(space.contains(cross(a, b)) for a, b in combinations(ts, 2)):
        return "V-perp x V-perp leaves V"
    return None


def random_assoc(rng: random.Random) -> AssocSubalg:
    """Random associative subalgebra from small-integer spanning vectors."""
    while True:
        u = [rng.randint(-3, 3) for _ in range(7)]
        w = [rng.randint(-3, 3) for _ in range(7)]
        try:
            return AssocSubalg.from_pair(u, w)
        except ValueError:
            continue


class Grading(NamedTuple):
    """Commutant/anticommutant split of the derivation algebra under theta."""

    v: AssocSubalg  # the subalgebra split along
    even: Subspace  # basis coordinates; dimension 6
    odd: Subspace   # basis coordinates; dimension 8


def grading(v: AssocSubalg, g2: G2) -> Grading:
    """Even part {d : d(V-perp) <= V-perp} and odd part {d : d(V) <= V-perp
    and d(V-perp) <= V}: the +1 and -1 eigenspaces of conjugation by
    theta_V, one kernel each."""
    space, comp = v.space, v.complement()
    # d(S) <= T-perp iff <d s, t> = 0 for s in S and t in T
    even = mapping_space([(comp, space)], g2)
    odd = mapping_space([(space, space), (comp, comp)], g2)
    if even.dim + odd.dim != g2.dim:
        raise AssertionError("even and odd parts do not span the algebra")
    return Grading(v, even, odd)


def verify_grading(g: Grading, g2: G2) -> bool:
    """[even,even] <= even, [even,odd] <= odd, [odd,odd] <= even on bases."""
    bracket = g2.lts.bracket
    return all(part.contains(bracket(a, b))
               for part, xs, ys in ((g.even, g.even, g.even),
                                    (g.odd, g.even, g.odd),
                                    (g.even, g.odd, g.odd))
               for a in xs.rows for b in ys.rows)


def mapping_space(systems: Sequence[tuple[Subspace, Subspace]], g2: G2,
                  within: Subspace | None = None) -> Subspace:
    """{d : <d s, t> = 0 for s in source, t in orthogonal} = {d : d(source) <=
    orthogonal-perp} for every pair of systems, in basis coordinates.  With
    `within`, only the d in that subspace: each row is restricted to within's
    basis and added in turn, and once every coordinate of within has a
    pivot the answer is 0 and the remaining rows are not formed."""
    rows = (g2.pairing_row(s, t) for source, orth in systems
            for s in source.basis for t in orth.basis)
    if within is None:
        return kernel(list(rows), g2.dim)
    red = Subspace.zero(within.dim)
    for row in rows:
        if red.add([dot(row, w) for w in within.rows]) and red.dim == within.dim:
            return Subspace.zero(g2.dim)
    return Subspace.span([combine(c, within.rows)
                          for c in kernel(red.rows, within.dim).rows], g2.dim)


def annihilator_subalg(u: Sequence[Scalar], g2: G2) -> Subspace:
    """{d : d(u) = 0} in basis coordinates; a subalgebra of dimension 8."""
    u = [Scalar.of(x) for x in u]
    if not any(u):
        raise ValueError("annihilator of the zero vector is the whole algebra")
    return mapping_space([(Subspace.span([u], 7), Subspace.full(7))], g2)


class PrincipalTds(NamedTuple):
    """A 3-dimensional simple subalgebra acting irreducibly on R^7."""

    h1: Matrix
    h2: Matrix
    h3: Matrix
    space: Subspace  # basis coordinates

    def matrices(self) -> list[Matrix]:
        return [self.h1, self.h2, self.h3]


def principal_tds(frame: Frame, g2: G2) -> PrincipalTds:
    """The explicit principal triple built from the two-argument derivations.

    The only validation of a principal triple: the bracket relations, the
    eigenvalue ladder char(h1) = lambda (lambda^2 + 1)(lambda^2 + 4)(lambda^2 + 9),
    dimension 3 and self-normalizing.  Violations abort loudly; this guards
    against transcription errors in the radical coefficients.  The checks
    `catalog.principal` and `g2.normalizer` do not restate them.
    """
    i, j, k, l = frame.i, frame.j, frame.k, frame.l
    ixl = cross(i, l)
    h1 = (d_operator(l, ixl).scale(Scalar.rational(4, 6))
          + d_operator(j, k).scale(Scalar.rational(5, 6)))
    h2 = (d_operator(i, ixl).scale(Scalar(0, 1, 0, 0, 4))        # r6/4
          + (d_operator(l, j) + d_operator(ixl, k)).scale(Scalar(0, 0, 1, 0, 12)))  # r10/12
    h3 = (d_operator(i, l).scale(Scalar(0, -1, 0, 0, 4))
          + (d_operator(l, k) - d_operator(ixl, j)).scale(Scalar(0, 0, 1, 0, 12)))
    hs = [h1, h2, h3]
    for idx in range(3):
        if commutator(hs[idx], hs[(idx + 1) % 3]) != hs[(idx + 2) % 3]:
            raise AssertionError(f"[h{idx+1}, h{idx+2}] != h{idx+3}")
    if char_poly(h1) != poly_from_roots_squared([1, 4, 9]):
        raise AssertionError("h1 does not have the expected eigenvalue ladder")
    space = g2.subspace_from_matrices(hs)
    if space.dim != 3:
        raise AssertionError("generators are linearly dependent")
    if g2.normalizer(space) != space:
        raise AssertionError("the subalgebra is not self-normalizing")
    return PrincipalTds(h1, h2, h3, space)


def is_subalgebra(space: Subspace, g2: G2) -> bool:
    return all(space.contains(g2.lts.bracket(a, b))
               for a, b in combinations(space.rows, 2))


class AdaptednessError(AssertionError):
    """The homogeneity and intersection-dimension criteria disagreed."""


def is_adapted(h: PrincipalTds, v: AssocSubalg, g2: G2) -> bool:
    """Whether the principal subalgebra h, as validated by `principal_tds`,
    splits along V's grading.

    Both characterisations are computed: homogeneity (h is theta_V-stable:
    theta d theta lies in h for each basis matrix d of h, which for d in h
    is (d - theta d theta)/2 in h) and the intersection dimension
    dim(h cap odd) = 2.  The intersection is solved on h's own coordinates
    from the odd part's membership conditions (`mapping_space` with
    within=h.space), not from theta, so the two routes are independent.  They must
    agree; a disagreement is an internal consistency failure, not a result.
    theta and d are cleared to ints where rational; scaling leaves membership
    as it is.
    """
    if not isinstance(h, PrincipalTds):
        raise TypeError("adaptedness is defined for a PrincipalTds")
    th = v.theta().flatten()
    t = cleared(th) or th
    homogeneous = True
    for m in h.matrices():  # h1 first: it is rational
        d = cleared(m.flatten()) or m.flatten()
        zero = zero_of(t, d)
        td, tdt = [zero] * 49, [zero] * 49
        flat_product(td, t, d, 7, 7)
        flat_product(tdt, td, t, 7, 7)
        x = g2.space.coords(tdt)
        if x is None or not h.space.contains(x):  # None: outside g2, so outside h
            homogeneous = False
            break
    comp = v.complement()
    by_dimension = mapping_space([(v.space, v.space), (comp, comp)], g2,
                                 within=h.space).dim == 2
    if homogeneous != by_dimension:
        raise AdaptednessError(
            f"homogeneity says {homogeneous}, intersection dimension says {by_dimension}")
    return homogeneous


class Family(NamedTuple):
    """A row of the catalogue: the paper's claims about one maximal family,
    which only the checks read; the builders build and certify closure."""

    dim: int       # in odd(V), and of the 3x3 partner
    envelope: int  # of the embedded envelope in g2
    partner: str   # the 3x3 partner's kind in matmodel.sl3_catalog


# Each envelope is a named subalgebra of g2: T1 generates the principal h,
# T2 ann(l) and T3 ann(i) (both su(3)), T4 the sum T4 + even(W) cap even(V).
FAMILIES = {"T1": Family(2, 3, "sphere"), "T2": Family(5, 8, "sym5"),
            "T3": Family(4, 8, "col4"), "T4": Family(4, 6, "refl4")}


def maximal_lts(split: Grading, kind: str,
                witness: PrincipalTds | Sequence[Scalar] | Grading,
                g2: G2) -> LtsCarrier:
    """The four maximal families inside odd(V), as closed carriers in g2's
    basis coordinates; closure is certified before the carrier is returned.
    `FAMILIES` only names the kinds: its claims (dimension, envelope) are
    the `catalog.t_dims` and `catalog.t_envelopes` checks' to compare.
    The witness is h, l, i or W's split by kind:

    T1: h cap odd for a principal subalgebra h (a PrincipalTds) adapted to V.
    T2: {d in odd : d(l) = 0} for 0 != l in the orthogonal complement of V.
    T3: {d in odd : d(i) = 0} for 0 != i in V.
    T4: even(W) cap odd(V) for an associative W meeting both V and its
        complement.
    """
    if kind not in FAMILIES:
        raise ValueError(f"unknown kind {kind!r}")
    v, odd = split.v, split.odd
    if kind == "T1":
        if not is_adapted(witness, v, g2):
            raise ValueError("principal subalgebra is not adapted to V")
        space = witness.space.intersect(odd)
    elif kind == "T4":
        if witness.v.space.intersect(v.space).dim == 0:
            raise ValueError("kind T4 needs W meeting V")
        if witness.v.space.intersect(v.complement()).dim == 0:
            raise ValueError("kind T4 needs W meeting the complement of V")
        space = witness.even.intersect(odd)
    else:  # T2 and T3: ann(u) cap odd, u in V-perp or in V
        u = list(witness)
        if not any(u):
            raise ValueError(f"kind {kind} needs a nonzero vector")
        where, inside = (("orthogonal to V", v.complement()) if kind == "T2"
                         else ("inside V", v.space))
        if not inside.contains(u):
            raise ValueError(f"kind {kind} needs the vector {where}")
        space = annihilator_subalg(u, g2).intersect(odd)
    carrier = LtsCarrier(g2.lts, space, kind)
    carrier.constants  # closure certificate
    return carrier


def intersection_profile(v: AssocSubalg, w: AssocSubalg) -> tuple[int, int, int, int]:
    """(dim V cap W, dim V cap W-perp, dim V-perp cap W, dim V-perp cap W-perp)."""
    vp = v.complement()
    wp = w.complement()
    return (v.space.intersect(w.space).dim,
            v.space.intersect(wp).dim,
            vp.intersect(w.space).dim,
            vp.intersect(wp).dim)


class ProbeReport(NamedTuple):
    trials: int
    passes: int
    failures: list[tuple[Vec, int]]  # (adjoined coordinates, closure dimension)

    def all_passed(self) -> bool:
        return self.passes == self.trials and not self.failures


def maximality_probe(t: LtsCarrier, ambient: LtsCarrier, trials: int,
                     rng: random.Random,
                     extra_candidates: Sequence[Vec] = ()) -> ProbeReport:
    """Adjoin elements outside T and close; maximality predicts full closure.

    T must be closed and carry the ambient's product.  Random candidates
    have integer coordinates in [-3, 3] in the ambient basis, redrawn in T;
    extra candidates, ambient vectors, come first.  A trial is first decided
    mod p by `lts.quotient_module_test`, whose docstring proves it sound.
    A declined candidate x gets the seed span(T, x) in the ambient's own
    basis, closed exactly by `lts.generated_subtriple`, which alone reports
    a proper closure; a failure records x as an ambient vector.
    """
    if t.system is not ambient.system:
        raise ValueError("probe needs T and the ambient under one product")
    t_coords = [ambient.space.coords(r) for r in t.space.rows]
    if None in t_coords:
        raise ValueError("probe needs T inside the ambient carrier")
    if t.space.dim >= ambient.space.dim:
        raise ValueError("probe needs a proper subsystem")
    if trials < 1:
        raise ValueError("probe needs at least one trial")
    candidates = [ambient.space.coords(c) for c in extra_candidates]
    if None in candidates:
        raise ValueError("seed is not contained in the ambient carrier")
    t.constants  # certifies that T is closed
    t_space = Subspace.span(t_coords, ambient.dim)
    fills = quotient_module_test(t_space, ambient)
    failures: list[tuple[Vec, int]] = []
    produced = 0
    while produced < trials:
        if candidates:
            x = candidates.pop(0)
            v = [c.mod_p() for c in x]
        else:
            x = v = [rng.randint(-3, 3) for _ in range(ambient.dim)]
        if not fills(v):
            x = ambient.element([Scalar.of(c) for c in x])
            seed = t.space.copy()  # grows to the RREF of T + x
            if not seed.add(x):
                continue  # x is in T
            closed = generated_subtriple(seed, ambient)
            if closed.dim < ambient.dim:
                failures.append((x, closed.dim))
        produced += 1
    return ProbeReport(trials, trials - len(failures), failures)
