import random

import pytest
from hypothesis import example, given, settings, strategies as st

from crossg2 import catalog, lts, matmodel, scalar
from crossg2._intops import derivation_axiom_holds
from crossg2.linalg import Matrix, Subspace, cleared, combine, flat_commutator
from crossg2.lts import (LtsCarrier, NotClosedError, abstract_lts,
                         check_axioms, envelope_dim, generated_subtriple,
                         is_ideal, matrix_lts, triple_in_lie)
from crossg2.scalar import ONE, ZERO, Scalar
from test_intops import c1211, derivation_axiom_pure
from test_linalg import product_entries


def test_triple_in_lie_examples():
    e12 = Matrix([[ZERO, ONE], [ZERO, ZERO]])
    e21 = Matrix([[ZERO, ZERO], [ONE, ZERO]])
    assert triple_in_lie(e12, e21, e12) == e12.scale(Scalar.of(2))
    assert triple_in_lie(e12, e12, e21).is_zero()
    with pytest.raises(ValueError):
        triple_in_lie(e12, e21, Matrix.identity(3))


def test_g2_structure_constants_match_the_bracket_constants(g2):
    rows = [b.flatten() for b in g2.basis]
    carrier = LtsCarrier(lts.GL7, Subspace.span(rows, 49), "g2")
    assert carrier.space.rows == rows  # struct() is on g2's own basis
    # oracle: [[b_i, b_j], b_k] = sum_m sc[i][j][m] [b_m, b_k]
    sc = g2.bracket_coords
    n = g2.dim
    cols = [[sc[m][k] for m in range(n)] for k in range(n)]
    expected = [[[combine(sc[i][j], cols[k]) for k in range(n)]
                 for j in range(n)] for i in range(n)]
    assert carrier.struct() == expected
    assert check_axioms(carrier).all_pass()


def test_operator_is_the_triple_product_with_two_slots_fixed():
    rng = random.Random(4)
    gl3 = matrix_lts(3)
    mats = [Matrix([[Scalar.of(rng.randint(-2, 2)) for _ in range(3)]
                    for _ in range(3)]) for _ in range(3)]
    x, y, z = (m.flatten() for m in mats)
    expected = triple_in_lie(*mats).flatten()
    assert gl3.operator(x, y)(z) == gl3.triple(x, y, z) == expected
    # the same product read back from gl(3)'s structure constants
    full = LtsCarrier(gl3, Subspace.full(9))
    abstract = abstract_lts(full.struct())
    assert abstract.operator(x, y)(z) == abstract.triple(x, y, z) == expected


@st.composite
def gl_operands(draw):
    """n and four n x n matrices, flattened: a, b and two different c."""
    n = draw(st.integers(1, 4))
    flat = st.lists(product_entries, min_size=n * n, max_size=n * n)
    a, b, c1 = draw(flat), draw(flat), draw(flat)
    return n, a, b, c1, draw(flat.filter(lambda c2: c2 != c1))


# [E12, E21] = H, and [H, E12] = 2 E12 differs from [H, E21] = -2 E21
@example((2, [ZERO, ONE, ZERO, ZERO], [ZERO, ZERO, ONE, ZERO],
          [ZERO, ONE, ZERO, ZERO], [ZERO, ZERO, ONE, ZERO]))
@settings(max_examples=120, deadline=None)
@given(gl_operands())
def test_gl_operator_equals_two_commutators_on_two_arguments(case):
    n, a, b, c1, c2 = case
    op = matrix_lts(n).operator(a, b)
    ab = flat_commutator(a, b, n)
    assert op(c1) == flat_commutator(ab, c1, n)
    assert op(c2) == flat_commutator(ab, c2, n)


@pytest.mark.parametrize("size", [5, 10])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_gl3_products_reject_arguments_of_the_wrong_length(slot, size):
    gl3 = matrix_lts(3)
    args = [[Scalar.of(i + s) for i in range(9)] for s in range(3)]
    args[slot] = [Scalar.of(i + 1) for i in range(size)]
    with pytest.raises(ValueError):
        gl3.triple(*args)
    with pytest.raises(ValueError):
        gl3.operator(args[0], args[1])(args[2])


@pytest.mark.parametrize("args", [
    ([ONE, ZERO], [ZERO, ONE], [ONE]),          # zip would truncate
    ([ONE, ZERO, ONE], [ZERO, ONE], [ONE, ZERO]),
    ([ONE, ZERO], [ZERO, ONE, ONE], [ONE, ZERO]),
    ([ONE], [ZERO, ONE], [ONE, ZERO]),          # indexing would run past x
    ([ONE, ZERO], [ONE], [ONE, ZERO]),
    ([ONE, ZERO], [ZERO, ONE], [ONE, ZERO, ZERO]),
])
def test_abstract_products_reject_arguments_of_the_wrong_length(args):
    system = abstract_lts(c1211(), "c1211")
    assert system.triple([ONE, ZERO], [ZERO, ONE], [ONE, ZERO]) == [ONE, ZERO]
    with pytest.raises(ValueError):
        system.triple(*args)
    with pytest.raises(ValueError):
        system.operator(args[0], args[1])(args[2])


def test_g2_struct_on_gl7_equals_the_struct_in_g2_coordinates(g2):
    on_gl7 = LtsCarrier(lts.GL7, g2.space).struct()
    assert on_gl7 == LtsCarrier(g2.lts, Subspace.full(14)).struct()


def test_counterexample_fails_derivation_axiom():
    z2 = [ZERO, ZERO]
    struct = [[[list(z2) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    struct[0][1][0] = [ONE, ZERO]
    struct[1][0][0] = [-ONE, ZERO]
    carrier = LtsCarrier(abstract_lts(struct, "c1211"), Subspace.full(2))
    report = check_axioms(carrier)
    assert report.antisymmetry
    assert report.cyclic
    assert not report.derivation
    assert not report.all_pass()


def test_pure_and_fast_derivation_checks_agree():
    # an 8-dim passing carrier and the 2-dim failing one: the pure oracle,
    # the integer kernel and check_axioms (which always runs the kernel)
    full = matmodel.sl3_catalog("full")
    assert derivation_axiom_pure(full.struct(), 8)
    assert derivation_axiom_holds(full.struct())
    assert check_axioms(full).all_pass()
    z2 = [ZERO, ZERO]
    struct = [[[list(z2) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    struct[0][1][0] = [ONE, ZERO]
    struct[1][0][0] = [-ONE, ZERO]
    bad = LtsCarrier(abstract_lts(struct), Subspace.full(2))
    assert not derivation_axiom_pure(bad.struct(), 2)
    assert not check_axioms(bad).derivation


def test_fast_path_detects_failure_at_dim_8():
    # corrupt one structure constant of a valid 8-dim system (keeping the
    # antisymmetry in the first two slots) and require both the integer
    # kernel and the pure path to reject the derivation axiom
    good = matmodel.sl3_catalog("full").struct()
    struct = [[[list(vec) for vec in line] for line in plane] for plane in good]
    struct[0][1][2][3] = struct[0][1][2][3] + ONE
    struct[1][0][2][3] = struct[1][0][2][3] - ONE
    bad = LtsCarrier(abstract_lts(struct, "corrupted"), Subspace.full(8))
    report = check_axioms(bad)
    assert report.antisymmetry
    assert not report.derivation
    assert not derivation_axiom_holds(bad.struct())
    assert not derivation_axiom_pure(bad.struct(), 8)


def test_not_closed_detection():
    gl2 = matrix_lts(2)
    e12 = Matrix([[ZERO, ONE], [ZERO, ZERO]])
    e21 = Matrix([[ZERO, ZERO], [ONE, ZERO]])
    # the off-diagonal pair is the odd part of an sl2 grading: closed
    closed = LtsCarrier(gl2, Subspace.span([e12.flatten(), e21.flatten()], 4))
    assert closed.is_closed()
    # in gl3, [[E12, E23+E31], E23+E31] = E11 + E22 - 2 E33 leaves the span
    gl3 = matrix_lts(3)
    x = Matrix.zeros(3, 3); x.rows[0][1] = ONE
    y = Matrix.zeros(3, 3); y.rows[1][2] = ONE; y.rows[2][0] = ONE
    open_carrier = LtsCarrier(gl3, Subspace.span([x.flatten(), y.flatten()], 9))
    assert not open_carrier.is_closed()
    with pytest.raises(NotClosedError):
        open_carrier.struct()


def test_generated_subtriple_basics(ws):
    m4v = ws.m4v
    assert generated_subtriple(m4v.space, m4v) == m4v.space
    assert generated_subtriple(Subspace.zero(14), m4v).dim == 0
    t1 = ws.t_carrier("T1")
    assert generated_subtriple(t1.space, m4v) == t1.space


def test_generated_subtriple_monotone_idempotent(ws):
    rng = random.Random(12)
    m4v = ws.m4v
    coords = [Scalar.of(rng.randint(-2, 2)) for _ in range(8)]
    x = m4v.element(coords)
    seed = Subspace.span([x], 14)
    closed = generated_subtriple(seed, m4v)
    assert closed.contains_subspace(seed)
    assert generated_subtriple(closed, m4v) == closed
    bigger = generated_subtriple(seed.sum(ws.t_carrier("T1").space), m4v)
    assert bigger.contains_subspace(closed) or bigger == m4v.space


def c_major_closure(seed, ambient):
    """Reference closure: c outermost, one triple(a, b, c) per product, no
    early return once the ambient carrier is filled."""
    triple = ambient.system.triple
    closed = seed.copy()
    grown = True
    while grown:
        grown = False
        basis_now = list(closed.rows)
        k = len(basis_now)
        for c in range(k):
            for a in range(k):
                for b in range(a + 1, k):
                    if closed.add(triple(basis_now[a], basis_now[b],
                                         basis_now[c])):
                        grown = True
    return closed


@pytest.mark.parametrize("ambient_name", ["sl3", "m4v"])
def test_generated_subtriple_equals_the_c_major_closure(ws, ambient_name):
    if ambient_name == "sl3":
        ambient = matmodel.sl3_catalog("full")
        parts = [matmodel.sl3_catalog(k) for k in ("sphere", "sym5", "col4")]
    else:
        ambient = ws.m4v
        parts = [ws.t_carrier(k) for k in ("T1", "T2", "T3")]
    rng = random.Random(21)
    r6 = Scalar(0, 1, 0, 0)
    dims, kinds = set(), set()
    for trial in range(12):
        # rational or irrational elements of a subfamily or of the ambient
        carrier = (parts + [ambient])[trial % 4]
        elements = []
        for _ in range(1 + trial % 2):
            coords = [Scalar.of(rng.randint(-2, 2)) for _ in range(carrier.dim)]
            if trial % 3 == 2:  # the first basis row has pivot entry 1
                coords[0] = coords[0] + r6
            elements.append(carrier.element(coords))
        seed = Subspace.span(elements, ambient.system.dim)
        kinds.add(any(cleared(r) is None for r in seed.rows))
        closed = generated_subtriple(seed, ambient)
        assert closed == c_major_closure(seed, ambient)
        dims.add(closed.dim)
    assert kinds == {True, False}  # rational and irrational seeds
    assert max(dims) == ambient.dim and min(dims) < ambient.dim


def ambient_coords(space, ambient):
    """The space in the ambient's own coordinates."""
    return Subspace.span([ambient.space.coords(r) for r in space.rows], ambient.dim)


def ambient_and_families(ws, ambient_name):
    """The odd part with T1-T4, or sl(3) with their 3x3 partners."""
    if ambient_name == "sl3":
        return matmodel.sl3_catalog("full"), [
            matmodel.sl3_catalog(fam.partner) for fam in catalog.FAMILIES.values()]
    return ws.m4v, [ws.t_carrier(kind) for kind in catalog.FAMILIES]


@pytest.mark.parametrize("ambient_name", ["m4v", "sl3"])
def test_certified_closures_equal_the_reference_closure(ws, ambient_name):
    """Seeds T + x (full closures) and pairs of elements of T (proper
    closures that grow) for each family T, with small integer or irrational
    coordinates: the quotient test passes exactly the x whose T + x the
    reference loop closes to the ambient, and no element of T, and every
    closure equals the reference's."""
    ambient, parts = ambient_and_families(ws, ambient_name)
    tests = [lts.quotient_module_test(ambient_coords(t.space, ambient), ambient)
             for t in parts]
    rng = random.Random(19)
    irrational = [Scalar(0, 1, 0, 0), Scalar(0, 0, 1, 0, 3), Scalar(0, 0, 0, 2)]
    kinds = set()
    for trial in range(32):
        t = parts[trial % 4]  # T1 and sphere have irrational bases
        extend = trial % 8 < 4
        source = ambient if extend else t
        elements = []
        for _ in range(1 if extend else 2):
            coords = [Scalar.of(rng.randint(-3, 3)) for _ in range(source.dim)]
            if trial % 3:
                coords[rng.randrange(source.dim)] += irrational[trial % 3]
            elements.append(source.element(coords))
        seed = Subspace.span((t.space.rows if extend else []) + elements,
                             ambient.system.dim)
        reference = c_major_closure(seed, ambient)
        full = reference == ambient.space
        passed = [tests[trial % 4]([c.mod_p() for c in ambient.space.coords(x)])
                  for x in elements]
        assert passed == ([full] if extend else [False, False])
        assert generated_subtriple(seed, ambient) == reference
        kinds.add((extend, full, reference.dim > seed.dim))
    assert {(True, True, True), (False, False, True)} <= kinds


def test_proper_closures_keep_their_exact_dimensions(ws, g2, tds):
    """The exact loop reports a proper closure with its dimension."""
    m4v, sl3 = ws.m4v, matmodel.sl3_catalog("full")
    h2, h3 = g2.coords(tds.h2), g2.coords(tds.h3)
    cases = [(m4v, Subspace.span([h2], 14), 1), (m4v, Subspace.span([h2, h3], 14), 2),
             (m4v, Subspace.zero(14), 0), (sl3, Subspace.zero(9), 0)]
    cases += [(m4v, ws.t_carrier(kind).space, fam.dim)
              for kind, fam in catalog.FAMILIES.items()]
    cases += [(sl3, matmodel.sl3_catalog(fam.partner).space, fam.dim)
              for fam in catalog.FAMILIES.values()]
    for ambient, seed, dim in cases:
        closed = generated_subtriple(seed, ambient)
        assert closed.dim == dim and closed == c_major_closure(seed, ambient)


def test_certificate_declines_when_the_prime_divides_a_denominator():
    """On the basis b_i / p of the traceless 3 x 3 matrices the structure
    constants are those of b_i over p^2, and a candidate may have p in a
    coordinate's denominator: the quotient test declines them, and the
    exact loop closes each seed as on the plain basis."""
    p, sl3 = scalar.PRIME, matmodel.sl3_catalog("full")
    over_p2 = Scalar(1, 0, 0, 0, p * p)
    plain = LtsCarrier(abstract_lts(sl3.struct()), Subspace.full(8), "plain")
    scaled = LtsCarrier(abstract_lts(
        [[[[x * over_p2 for x in image] for image in plane] for plane in row]
         for row in sl3.struct()]), Subspace.full(8), "scaled")
    assert plain.struct_mod_p is not None and scaled.struct_mod_p is None
    rng = random.Random(4)
    dims = set()
    for kind in ("sphere", "sym5", "col4", "refl4"):
        t = ambient_coords(matmodel.sl3_catalog(kind).space, sl3)
        x = [Scalar.of(rng.randint(-3, 3)) for _ in range(8)]
        v = [c.mod_p() for c in x]
        assert lts.quotient_module_test(t, plain)(v)
        assert not lts.quotient_module_test(t, scaled)(v)
        for seed in (t, Subspace.span(t.rows + [x], 8)):
            closed = generated_subtriple(seed, scaled)
            assert closed == generated_subtriple(seed, plain)
            dims.add(closed.dim)
    assert dims == {2, 4, 5, 8}
    # a candidate coordinate over p
    x = [ONE, Scalar(1, 0, 0, 0, p)] + [ZERO] * 6
    assert not lts.quotient_module_test(t, plain)([c.mod_p() for c in x])
    assert generated_subtriple(Subspace.span(t.rows + [x], 8), plain).dim == 8


def test_echelon_mod_p_checks_the_vector_length():
    e = lts._EchelonModP(7, 2)
    assert e.add([1, 2])
    for bad in ([1, 2, 3], [1]):  # zip would read [1, 2, 3] as [1, 2]
        with pytest.raises(ValueError):
            e.add(bad)
    assert e.dim == 1


@pytest.mark.parametrize("ambient_name", ["m4v", "sl3"])
def test_the_add_seeded_t_bar_is_t_mod_p(ws, monkeypatch, ambient_name):
    """The quotient test seeds T-bar by `add`: T's canonical rows mod p are
    reduced already, so each goes in as it is, at its own pivot."""
    ambient, parts = ambient_and_families(ws, ambient_name)
    made = []

    class Recorded(lts._EchelonModP):
        def __init__(self, p, n):
            super().__init__(p, n)
            made.append(self)
    monkeypatch.setattr(lts, "_EchelonModP", Recorded)
    for t in parts:
        made.clear()
        space = ambient_coords(t.space, ambient)
        lts.quotient_module_test(space, ambient)
        rows = [[x.mod_p() for x in r] for r in space.rows]
        assert made and not any(None in r for r in rows)
        t_bar = made[0]  # the first echelon the test builds
        assert (t_bar.p, t_bar.n) == (scalar.PRIME, ambient.dim)
        assert t_bar.rows == rows and t_bar.pivots == space.pivots


@pytest.mark.parametrize("name, nonzero", [("m4v", 232), ("sl3", 236), ("T1", None)])
def test_struct_mod_p_lists_the_nonzero_constants_mod_p(ws, name, nonzero):
    carrier = {"m4v": ws.m4v, "sl3": ws.sl3_carrier("full"),
               "T1": ws.t_carrier("T1")}[name]
    n = carrier.dim
    # the same numbers built from scratch on the identity basis
    scratch = LtsCarrier(abstract_lts(carrier.struct()), Subspace.full(n))
    assert carrier.struct_mod_p == scratch.struct_mod_p
    # the tables list exactly the nonzero entries mod p of each pair i < j
    tables = {(i, j): dict(table) for i, j, table in carrier.struct_mod_p}
    assert all(tables.values())
    for i in range(n):
        for j in range(i + 1, n):
            table = tables.get((i, j), {})
            assert [x.mod_p() for image in carrier.struct()[i][j] for x in image] == [
                table.get(km, 0) for km in range(n * n)]
    if nonzero is not None:
        assert sum(map(len, tables.values())) == nonzero


def test_gl_products_reject_vectors_of_the_wrong_length():
    gl3 = matrix_lts(3)
    ok, bad = [ONE] + [ZERO] * 8, [ONE] + [ZERO] * 4
    for args in ((bad, ok), (ok, bad)):
        with pytest.raises(ValueError):
            gl3.bracket(*args)
    for args in ((bad, ok, ok), (ok, bad, ok), (ok, ok, bad)):
        with pytest.raises(ValueError):
            gl3.triple(*args)


def test_seed_outside_ambient_rejected(ws):
    outside = Subspace.span([ws.g2.coords(ws.tds.h1)], 14)  # h1 is even
    with pytest.raises(ValueError):
        generated_subtriple(outside, ws.m4v)


def test_envelope_dims(ws):
    assert envelope_dim(ws.m4v) == 14
    assert envelope_dim(ws.t_carrier("T2")) == 8
    zero = LtsCarrier(ws.g2.lts, Subspace.zero(14))
    assert envelope_dim(zero) == 0
    with pytest.raises(ValueError):
        envelope_dim(matmodel.sl3_catalog("full"))  # no ambient bracket


def test_is_ideal(ws):
    t1 = ws.t_carrier("T1")
    assert is_ideal(Subspace.zero(14), t1)
    assert is_ideal(t1.space, t1)
    line = Subspace.span([t1.space.rows[0]], 14)
    assert not is_ideal(line, t1)
    with pytest.raises(ValueError):  # h1 is even, T1 is odd
        is_ideal(Subspace.span([ws.g2.coords(ws.tds.h1)], 14), t1)


def test_m34_skew_symmetrization_is_lts():
    full = LtsCarrier(matmodel.M34, Subspace.full(12))
    assert check_axioms(full).all_pass()


def test_closure_rejects_a_product_that_is_not_antisymmetric():
    # [b0, b0, b0] = b1: b0 generates a 2-dim subsystem, but a closure that
    # forms [a, b, c] only for a before b would stop at span{b0}
    struct = [[[[ZERO, ZERO] for _ in range(2)] for _ in range(2)]
              for _ in range(2)]
    struct[0][0][0] = [ZERO, ONE]
    carrier = LtsCarrier(abstract_lts(struct), Subspace.full(2))
    assert carrier.antisymmetry_witness == "[b0, b0, b0] != 0"
    report = check_axioms(carrier)
    assert not report.antisymmetry
    assert report.witness == "[b0, b0, b0] != 0"
    with pytest.raises(ValueError, match=r"\[b0, b0, b0\] != 0"):
        generated_subtriple(Subspace.span([[ONE, ZERO]], 2), carrier)


def test_quotient_test_declines_a_product_that_is_not_antisymmetric():
    # sl3's constants with [b0, b0, b0] = b1 added: the tables mod p, pairs
    # i < j only, are sl3's, but the maps read off them are not [a, b, .]
    sl3 = matmodel.sl3_catalog("full")
    struct = [[[list(image) for image in plane] for plane in row]
              for row in sl3.struct()]
    struct[0][0][0][1] += ONE
    plain = LtsCarrier(abstract_lts(sl3.struct()), Subspace.full(8))
    bad = LtsCarrier(abstract_lts(struct), Subspace.full(8))
    assert bad.struct_mod_p == plain.struct_mod_p
    assert bad.antisymmetry_witness == "[b0, b0, b0] != 0"
    t = ambient_coords(matmodel.sl3_catalog("sym5").space, sl3)
    x = [1, 2, 0, -1, 3, 0, 1, 1]
    assert lts.quotient_module_test(t, plain)(x)
    assert not lts.quotient_module_test(t, bad)(x)


def test_zero_dimensional_carrier_passes_the_axioms():
    assert check_axioms(LtsCarrier(matrix_lts(2), Subspace.zero(4))).all_pass()
