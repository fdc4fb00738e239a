"""Negative controls: each check is made to fail by one small corruption.

A control patches the smallest thing its check's anchor claims something
about and asserts that the check reports `fail` (not `skipped`, and
run_checks returns) with a witness naming what broke.  A check that no
control can fail would pass for the wrong reason too.  A control with a
family runs the family's checks too: the corruption fails only its check,
and the others pass or skip on a failed prerequisite.
"""

from functools import cached_property
from itertools import combinations
from types import SimpleNamespace

import pytest

from crossg2 import catalog, checks, cross7, g2alg, lts
from crossg2.checks import run_checks, select_checks
from crossg2.cross7 import Octonion, basis_vector, cross
from crossg2.g2alg import Frame
from crossg2.linalg import Subspace, char_poly, dot, kernel, projection_matrix
from crossg2.scalar import Scalar

E = [basis_vector(i) for i in range(7)]
V_STD = Subspace.span([E[0], E[1], E[3]], 7)  # V of the standard frame


def bracket_constants_off(monkeypatch, pair):
    """G2.bracket_coords with [b_i, b_j], the pair-th i < j (none for None),
    one unit off along its first nonzero coordinate, and [b_j, b_i] with
    it, so the constants stay antisymmetric; returns the list the built
    constants go in."""
    bracket_coords, built = g2alg.G2.bracket_coords, []

    def off(g2):
        sc = bracket_coords.func(g2)
        if pair is not None:
            i, j = list(combinations(range(g2.dim), 2))[pair]
            k = next((k for k, x in enumerate(sc[i][j]) if x), 0)
            sc[i][j][k] += 1
            sc[j][i][k] -= 1
        built.append(sc)
        return sc
    corrupted = cached_property(off)
    corrupted.__set_name__(g2alg.G2, "bracket_coords")
    monkeypatch.setattr(g2alg.G2, "bracket_coords", corrupted)
    return built


def commutator_one_entry_off(monkeypatch):
    # the constants of [b_0, b_1] one entry off, and [b_1, b_0] with them
    bracket_constants_off(monkeypatch, 0)


def theta_of_another_subalgebra(monkeypatch):
    # W = <e1, e5, e6>: associative, rational, and h is not adapted to it
    proj_w = projection_matrix(Subspace.span([E[0], E[4], E[5]], 7))
    monkeypatch.setattr(catalog, "projection_matrix", lambda space: proj_w)


def draws_all_standard(monkeypatch):
    monkeypatch.setattr(catalog, "random_assoc",
                        lambda rng: catalog.AssocSubalg.from_frame(Frame.standard()))


def theta_v_is_identity(monkeypatch):
    monkeypatch.setattr(catalog, "projection_matrix", lambda space: projection_matrix(
        Subspace.full(7) if space == V_STD else space))


def theta_from_the_complement(monkeypatch):
    # theta_V = 2 pi - 1 with pi the projection onto V-perp: -1 on V
    monkeypatch.setattr(catalog, "projection_matrix",
                        lambda space: projection_matrix(space.complement()))


def projection_scaled_by_the_denominator(monkeypatch):
    # m P for a basis with denominator m: theta = 2 m P - 1 squares to 1
    # only for m = 1, as for the standard V
    monkeypatch.setattr(catalog, "projection_matrix", lambda space: projection_matrix(
        space).scale(space.denominator or 1))


def draws_swap_w_and_its_complement(monkeypatch):
    draw = catalog.random_assoc

    def swapped(rng):
        w = draw(rng)
        return SimpleNamespace(space=w.complement(), complement=lambda: w.space)
    monkeypatch.setattr(catalog, "random_assoc", swapped)


def associativity_tests_a_cross_a(monkeypatch):
    # a x a = 0 lies in every space, so every 3-space passes
    monkeypatch.setattr(catalog, "is_associative", lambda v: v.dim == 3 and v.contains(
        cross(v.basis[0], v.basis[0])))


def annihilator_leaves_e7_free(monkeypatch):
    # d(u) is asked to be orthogonal to e1..e6 only: the membership rows of e7
    # are dropped, so d(u) = e7 passes too
    monkeypatch.setattr(catalog, "annihilator_subalg", lambda u, g2: (
        catalog.mapping_space([(Subspace.span([list(u)], 7),
                                Subspace.span(E[:6], 7))], g2)))


def t_constants_one_entry_off(monkeypatch):
    # the certified structure constants of T1-T4, each with its first
    # nonzero coordinate one unit off
    constants = lts.LtsCarrier.constants

    def off(carrier):
        flat, den = constants.func(carrier)
        if carrier.name in catalog.FAMILIES:
            flat = list(flat)
            flat[next(k for k, x in enumerate(flat) if x)] += 1
        return flat, den
    corrupted = cached_property(off)
    corrupted.__set_name__(lts.LtsCarrier, "constants")
    monkeypatch.setattr(lts.LtsCarrier, "constants", corrupted)


def closure_reports_the_full_ambient(monkeypatch):
    monkeypatch.setattr(catalog, "generated_subtriple", lambda seed, ambient: ambient.space)


def declined_closure_stays_proper(monkeypatch):
    # every candidate is declined by the quotient test, and its closure
    # stops at its seed, the span of T and the candidate
    monkeypatch.setattr(catalog, "quotient_module_test",
                        lambda t, ambient: lambda x: False)
    monkeypatch.setattr(catalog, "generated_subtriple", lambda seed, ambient: seed)


# -- foundations: the field, linear algebra, the cross product, the octonions

def division_multiplies(monkeypatch):
    monkeypatch.setattr(Scalar, "__truediv__", lambda self, o: self * Scalar.of(o))


def inverse_forgets_the_denominator(monkeypatch):
    # right for the integral values (1/r6 still r6/6), wrong for x/q
    inverse = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse", lambda self: inverse(
        Scalar(self.na, self.nb, self.nc, self.nd)))


def sign_reads_the_rational_part(monkeypatch):
    monkeypatch.setattr(Scalar, "sign", lambda self: (self.na > 0) - (self.na < 0))


def show_tags_r15_as_r10(monkeypatch):
    show = Scalar.show
    monkeypatch.setattr(Scalar, "show", lambda self: show(self).replace("*r15", "*r10"))


def kernel_of_a_zero_matrix_is_zero(monkeypatch):
    monkeypatch.setattr(checks, "kernel", lambda rows, ncols=None: kernel(
        rows, ncols) if any(any(r) for r in rows) else Subspace.zero(ncols))


def rank_counts_the_rows(monkeypatch):
    monkeypatch.setattr(checks, "rank", len)


def meet_loses_a_dimension(monkeypatch):
    intersect = Subspace.intersect
    monkeypatch.setattr(Subspace, "intersect", lambda self, other: Subspace.span(
        intersect(self, other).rows[:-1], self.n))


def char_poly_coefficients_reversed(monkeypatch):
    # palindromic for I2, so only diag(0, 2, -2) tells
    monkeypatch.setattr(checks, "char_poly", lambda m: char_poly(m)[::-1])


def cross_table_one_sign_flipped(monkeypatch):
    table = [row[:] for row in cross7.CROSS_TABLE]
    k, sg = table[0][1]
    table[0][1] = (k, -sg)
    monkeypatch.setattr(cross7, "CROSS_TABLE", table)


def cross_doubled(monkeypatch):
    # still alternating and orthogonal to its factors
    product = cross7.cross
    monkeypatch.setattr(cross7, "cross", lambda x, y: [2 * c for c in product(x, y)])


def e1_x_e2_gains_e3(monkeypatch):
    # an antisymmetric term x1 y2 - x2 y1 along e3: <e1 x e2, e3> = 1, but
    # <e1, e2 x e3> = 0
    product = cross7.cross

    def skewed(x, y):
        out = product(x, y)
        out[2] = out[2] + x[0] * y[1] - x[1] * y[0]
        return out
    monkeypatch.setattr(cross7, "cross", skewed)


def omega_pulled_back(monkeypatch, diagonal=(1,) * 7, swap=()):
    # omega(g x, g y, g z) for g the coordinate swaps times a diagonal
    def move(v):
        v = [d * x for d, x in zip(diagonal, v)]
        for a, b in swap:
            v[a], v[b] = v[b], v[a]
        return v
    omega = cross7.omega
    monkeypatch.setattr(cross7, "omega", lambda x, y, z: omega(move(x), move(y), move(z)))


def omega_relabelled(monkeypatch):
    # e1 <-> e2 and e3 <-> e4: orthogonal with det 1, so beta is still 2 I
    omega_pulled_back(monkeypatch, swap=((0, 1), (2, 3)))


def omega_doubled(monkeypatch):
    # beta is cubic in omega: 16 I
    omega = cross7.omega
    monkeypatch.setattr(cross7, "omega", lambda x, y, z: 2 * omega(x, y, z))


def e3_stretched_in_omega(monkeypatch):
    # g = diag(1, 1, 2, 1, 1, 1, 1) fixes omega(e1,e2,e4) and omega(e1,e2,e3) = 0,
    # and beta = det(g) g^T (2 I) g = diag(4, 4, 16, 4, 4, 4, 4)
    omega_pulled_back(monkeypatch, diagonal=(1, 1, 2, 1, 1, 1, 1))


def octonion_real_part_sign_flipped(monkeypatch):
    # xy = +<x, y> 1 + x cross y on pure parts: 2 <x, y> added to the real part
    mul = Octonion.__mul__
    monkeypatch.setattr(Octonion, "__mul__", lambda p, o: mul(p, o) + Octonion(
        2 * dot(p.im, o.im), [0] * 7))


def octonion_norm_split(monkeypatch):
    monkeypatch.setattr(Octonion, "norm", lambda p: p.re * p.re - dot(p.im, p.im))


# (check id, corruption, witness prefix, family of checks run alongside)
CONTROLS = [
    ("scalar.arith", division_multiplies, "1/r6 != r6/6", "scalar.*"),
    ("scalar.field_axioms", inverse_forgets_the_denominator, "inverse fails at ",
     "scalar.*"),
    ("scalar.sign", sign_reads_the_rational_part, "sign(r6 - 2) != +1", "scalar.*"),
    ("scalar.text_roundtrip", show_tags_r15_as_r10, "roundtrip fails for ",
     "scalar.*"),
    ("linalg.kernel", kernel_of_a_zero_matrix_is_zero, "kernel of 0 is not everything",
     "linalg.*"),
    ("linalg.rank_nullity", rank_counts_the_rows, "rank-nullity fails", "linalg.*"),
    ("linalg.subspaces", meet_loses_a_dimension, "plane meet fails", "linalg.*"),
    ("linalg.charpoly", char_poly_coefficients_reversed,
     "char poly of diag(0,2,-2) wrong", "linalg.*"),
    ("cross.table", cross_table_one_sign_flipped, "e1 x e2 != e4", None),
    ("cross.double_product", cross_doubled, "double product expansion fails", None),
    ("cross.associative_form", e1_x_e2_gains_e3, "associative form fails at (0, 1, 2)",
     None),
    ("cross.gram", cross_doubled, "Gram determinant identity fails", None),
    ("cross.omega", omega_relabelled, "omega(e1,e2,e4) != 1", "cross.*"),
    ("cross.induced_form", omega_doubled, "beta != 2 I: beta[0][0] = 16 ", None),
    ("cross.induced_form", e3_stretched_in_omega, "beta != 2 I: beta[0][0] = 4 ",
     "cross.*"),
    ("oct.algebra", octonion_real_part_sign_flipped, "e1^2 != -1", None),
    ("oct.norm", octonion_norm_split, "norm multiplicativity fails", "oct.*"),
    ("g2.jacobi", commutator_one_entry_off, "Jacobi fails on a basis triple", None),
    ("lts.axioms_full", commutator_one_entry_off, "cyclic sum at (0, 1, 2) != 0",
     None),
    ("catalog.theta", theta_from_the_complement, "theta(e1) != e1", None),
    ("catalog.adapted", theta_of_another_subalgebra,
     "AdaptednessError: homogeneity says False, intersection dimension says True",
     None),
    ("catalog.adapted", draws_all_standard,
     "no non-adapted subalgebra found in 100 draws", None),
    ("catalog.pasapa", theta_v_is_identity,
     "commutation and invariance criteria disagree", None),
    ("catalog.pasapa", projection_scaled_by_the_denominator,
     "theta_W is not an involution", "catalog.*"),
    ("catalog.profile", draws_swap_w_and_its_complement,
     "unexpected intersection profile (0, 0, 1, 0)", None),
    ("catalog.associative", associativity_tests_a_cross_a,
     "<e1,e2,e3> should not be associative", "catalog.*"),
    ("catalog.annihilator", annihilator_leaves_e7_free,
     "annihilator dim 9 != 8", "catalog.*"),
    ("catalog.t_dims", t_constants_one_entry_off, "T1: [b0, b", "catalog.*"),
    ("catalog.non_maximal_witness", closure_reports_the_full_ambient,
     "crafted extension closed to the full space", "catalog.*"),
    ("catalog.maximality", declined_closure_stays_proper, "T1: ", "catalog.*"),
]


@pytest.mark.parametrize("check_id, corrupt, witness, family", CONTROLS,
                         ids=[f"{c[0]}-{c[1].__name__}" for c in CONTROLS])
def test_the_check_fails_under_its_control(monkeypatch, check_id, corrupt, witness,
                                           family):
    corrupt(monkeypatch)
    results = run_checks(select_checks([check_id, family or check_id]), 0, 1)
    [result] = [r for r in results if r.id == check_id]
    assert result.status == "fail"
    assert result.witness.startswith(witness)
    others = {r.id: r.status for r in results if r is not result}
    assert set(others) == {c.id for c in select_checks([family])} - {check_id} if (
        family) else not others
    assert set(others.values()) <= {"pass", "skipped"}, others


def test_a_basis_entry_off_fails_g2_jacobi(monkeypatch):
    # g2's integer basis rows with one entry off span no Lie algebra: the
    # bracket constants the sweep reads cannot be built on them
    corrupted, init = [], g2alg.G2.__init__

    def built_then_off(g2):
        init(g2)
        rows = [list(r) for r in g2.space.basis]
        rows[0][next(k for k, x in enumerate(rows[0]) if not x)] += 1
        g2.space._basis = rows
        corrupted.append(rows)
    monkeypatch.setattr(g2alg.G2, "__init__", built_then_off)
    [result] = run_checks(select_checks(["g2.jacobi"]), 0, 1)
    assert len(corrupted) == 1 and result.status == "fail"
    assert result.witness == "ValueError: a commutator of the basis leaves the algebra"
