"""Negative controls: each check is made to fail by one small corruption.

A control patches the smallest thing its check's anchor claims something
about and asserts that the check reports `fail` (not `skipped`, and
run_checks returns) with a witness naming what broke.  A check that no
control can fail would pass for the wrong reason too.
"""

from types import SimpleNamespace

import pytest

from crossg2 import catalog, checks, g2alg
from crossg2.checks import run_checks, select_checks
from crossg2.cross7 import basis_vector
from crossg2.g2alg import Frame
from crossg2.linalg import Subspace, cleared_basis, flat_commutator, projection_matrix

E = [basis_vector(i) for i in range(7)]
V_STD = Subspace.span([E[0], E[1], E[3]], 7)  # V of the standard frame


def commutator_one_entry_off(monkeypatch):
    def off(a, b, n, zero=0):
        out = flat_commutator(a, b, n, zero)
        out[1] += 1
        return out
    monkeypatch.setattr(checks, "flat_commutator", off)


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


def draws_swap_w_and_its_complement(monkeypatch):
    draw = catalog.random_assoc

    def swapped(rng):
        w = draw(rng)
        return SimpleNamespace(space=w.complement(), complement=lambda: w.space)
    monkeypatch.setattr(catalog, "random_assoc", swapped)


# (check id, corruption, witness prefix)
CONTROLS = [
    ("g2.jacobi", commutator_one_entry_off, "Jacobi fails on a basis triple"),
    ("catalog.adapted", theta_of_another_subalgebra,
     "AdaptednessError: homogeneity says False, intersection dimension says True"),
    ("catalog.adapted", draws_all_standard,
     "no non-adapted subalgebra found in 100 draws"),
    ("catalog.pasapa", theta_v_is_identity,
     "commutation and invariance criteria disagree"),
    ("catalog.profile", draws_swap_w_and_its_complement,
     "unexpected intersection profile (0, 0, 1, 0)"),
]


@pytest.mark.parametrize("check_id, corrupt, witness", CONTROLS,
                         ids=[f"{c[0]}-{c[1].__name__}" for c in CONTROLS])
def test_the_check_fails_under_its_control(monkeypatch, check_id, corrupt, witness):
    corrupt(monkeypatch)
    [result] = run_checks(select_checks([check_id]), 0, 1)
    assert result.status == "fail"
    assert result.witness.startswith(witness)


def test_a_basis_entry_off_does_not_fail_g2_jacobi(monkeypatch):
    # [[a, b], c] + [[b, c], a] + [[c, a], b] = 0 for any matrices, so only
    # a wrong bracket, not a wrong basis, can fail the check
    corrupted = []

    def off(space):
        rows, m, coords = cleared_basis(space)
        rows[0][next(k for k, x in enumerate(rows[0]) if not x)] += 1
        corrupted.append(rows)
        return rows, m, coords
    monkeypatch.setattr(g2alg, "cleared_basis", off)
    [result] = run_checks(select_checks(["g2.jacobi"]), 0, 1)
    assert len(corrupted) == 1 and result.status == "pass"
