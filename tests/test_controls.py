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

from crossg2 import catalog, g2alg, lts
from crossg2.checks import run_checks, select_checks
from crossg2.cross7 import basis_vector, cross
from crossg2.g2alg import Frame
from crossg2.linalg import Subspace, projection_matrix

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


# (check id, corruption, witness prefix, family of checks run alongside)
CONTROLS = [
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
