"""g2's triple product on its 14 basis coordinates, against gl(7).

The families T1-T4, the odd part and every closure live in g2's basis
coordinates (`G2.lts`); gl(7) realizes them as 7x7 matrices.  These tests
tie the two together: structure constants, brackets and triples agree
through `G2.mat`, closures agree with the closure of the flattened
matrices, and a probe forms no 7x7 commutator at all.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from crossg2 import catalog, linalg, lts, matmodel
from crossg2.checks import Workspace
from crossg2.linalg import Subspace, cleared, commutator
from crossg2.lts import LtsCarrier, generated_subtriple, matrix_lts, triple_in_lie
from crossg2.scalar import ONE, SQRT6, SQRT10, ZERO, Scalar
from test_lts import c_major_closure

KINDS = ("T1", "T2", "T3", "T4")

# mostly zeros; rational entries and entries carrying r6 and r10
coordinates = st.lists(
    st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, Scalar.of(3),
                     Scalar.rational(-2, 5), SQRT6, SQRT10,
                     Scalar(1, -1, 2, 0, 3), Scalar(0, 0, 1, 1, 4)]),
    min_size=14, max_size=14)


def test_coordinate_struct_equals_the_gl7_struct(g2):
    coords = LtsCarrier(g2.lts, Subspace.full(14))
    gl7 = LtsCarrier(lts.GL7, g2.space)
    assert gl7.space.rows == [g2.mat(r).flatten() for r in coords.space.rows]
    assert coords.struct() == gl7.struct()


@settings(max_examples=40, deadline=None)
@given(coordinates, coordinates, coordinates)
def test_coordinate_products_match_gl7(g2, x, y, z):
    mx, my, mz = g2.mat(x), g2.mat(y), g2.mat(z)
    assert g2.mat(g2.lts.bracket(x, y)) == commutator(mx, my)
    assert g2.mat(g2.lts.triple(x, y, z)) == triple_in_lie(mx, my, mz)
    assert g2.lts.operator(x, y)(z) == g2.lts.triple(x, y, z)


def test_coordinate_products_reject_wrong_lengths(g2):
    ok, short = [ONE] + [ZERO] * 13, [ONE] * 13
    for args in ((short, ok), (ok, short)):
        with pytest.raises(ValueError):
            g2.lts.bracket(*args)
    with pytest.raises(ValueError):
        g2.lts.triple(ok, ok, short)


@pytest.mark.parametrize("kind", ["T1", "T2"])
def test_coordinate_closure_equals_the_gl7_closure(ws, g2, kind):
    m4v, t = ws.m4v, ws.t_carrier(kind)

    def flat(space):
        return Subspace.span([g2.mat(r).flatten() for r in space.rows], 49)
    ambient49 = LtsCarrier(lts.GL7, flat(m4v.space))
    rng = random.Random(17)
    dims, rational = set(), set()
    for trial in range(6):
        # one element of T, or T plus an element of the odd part
        coords = [Scalar.of(rng.randint(-2, 2)) for _ in range(t.dim)]
        elements = [t.element(coords)]
        if trial % 2:
            elements = t.space.rows + [m4v.element(
                [Scalar.of(rng.randint(-3, 3)) for _ in range(m4v.dim)])]
        seed = Subspace.span(elements, 14)
        rational.add(all(cleared(r) is not None for r in seed.rows))
        closed = generated_subtriple(seed, m4v)
        # the oracle: c-major closure of the flattened 7x7 matrices
        assert flat(closed) == c_major_closure(flat(seed), ambient49)
        dims.add(closed.dim)
    assert rational == {kind == "T2"}  # T1's basis carries r6 and r10
    assert m4v.dim in dims and min(dims) < m4v.dim


def test_probes_form_no_gl7_commutator(ws, monkeypatch):
    carriers = [ws.t_carrier(kind) for kind in KINDS]
    ambient = ws.m4v

    def refuse(*args):
        raise AssertionError("a closure formed a 7x7 commutator")
    monkeypatch.setattr(linalg, "flat_commutator", refuse)
    monkeypatch.setattr(lts, "flat_commutator", refuse)
    with pytest.raises(AssertionError):
        lts.GL7.bracket([ZERO] * 49, [ZERO] * 49)
    for t in carriers:
        report = catalog.maximality_probe(t, ambient, 3, random.Random(8))
        assert report.all_passed()


def test_families_share_their_ambient_product(ws):
    for kind in KINDS:
        assert ws.t_carrier(kind).system is ws.m4v.system is ws.g2.lts
    sl3 = matmodel.sl3_catalog("full").system
    assert sl3 is matmodel.SL3
    for kind in ("sphere", "sym5", "col4", "refl4", "gotro"):
        assert matmodel.sl3_catalog(kind).system is sl3


def test_each_workspace_owns_its_g2(ws):
    other = Workspace()
    assert other.g2 is not ws.g2
    # the two g2s carry two products, so their carriers do not mix
    with pytest.raises(ValueError, match="one product"):
        catalog.maximality_probe(ws.t_carrier("T2"), other.m4v, 1,
                                 random.Random(0))


def test_probe_rejects_a_mismatched_product():
    sym5 = matmodel.sl3_catalog("sym5")
    for space in (Subspace.full(9), matmodel.sl3_catalog("full").space):
        ambient = LtsCarrier(matrix_lts(3), space)
        with pytest.raises(ValueError, match="one product"):
            catalog.maximality_probe(sym5, ambient, 1, random.Random(0))


def test_element_checks_the_number_of_coordinates():
    full = matmodel.sl3_catalog("full")
    assert full.element([ONE] + [ZERO] * 7) == full.space.rows[0]
    for n in (3, 7, 9, 10):
        with pytest.raises(ValueError):
            full.element([ONE] * n)


def test_element_of_a_zero_dimensional_carrier_is_the_ambient_zero(g2):
    zero = LtsCarrier(g2.lts, Subspace.zero(14))
    assert zero.element([]) == [ZERO] * 14
    with pytest.raises(ValueError):
        zero.element([ONE])
