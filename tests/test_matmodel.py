import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from crossg2 import _intops, lts, matmodel
from crossg2.catalog import FAMILIES
from crossg2.checks import (CHECKS, CheckFailure, Workspace, run_checks,
                            select_checks)
from crossg2.cross7 import basis_vector
from crossg2.linalg import Matrix, Subspace
from crossg2.lts import GL7
from crossg2.scalar import ONE, SQRT6, ZERO, Scalar

E = [basis_vector(i) for i in range(7)]


@pytest.fixture(scope="module")
def proj(v_std):
    return matmodel.projection_onto(v_std.space)


@pytest.fixture(scope="module")
def tangent(proj, frame):
    return matmodel.ms_tangent(proj, frame)


def test_projection_invariants(proj):
    p = proj.mat
    assert p @ p == p
    assert p == p.transpose()
    assert p.trace() == Scalar.of(3)
    with pytest.raises(ValueError):
        matmodel.Projection(Matrix.identity(7))


def test_in_ms_prime(proj):
    assert matmodel.in_ms_prime(proj)
    bad = matmodel.projection_onto(Subspace.span([E[0], E[1], E[2]], 7))
    assert not matmodel.in_ms_prime(bad)


def test_gr3_tangent(proj):
    t = matmodel.gr3_tangent(proj)
    assert t.dim == 12
    fixed = proj.fixed_space()
    kerp = proj.kernel_space()
    for row in t.rows:
        d = Matrix.from_flat(row, 7, 7)
        assert d == d.transpose()
        assert d.trace() == ZERO
        for fv in fixed.rows:
            assert kerp.contains(d.apply(fv))


def test_ms_tangent_dim_and_template(tangent, frame):
    assert tangent.dim == 8
    for row in tangent.rows:
        d = Matrix.from_flat(row, 7, 7)
        rm = matmodel.row_matrix(d, frame)
        assert matmodel.matches_template(rm)
        assert matmodel.from_row_matrix(rm, frame) == d


def test_dk_closed_form(tangent, frame):
    # d(k) = (a2-b1)v0 + (a3+b0)v1 - (a0-b3)v2 - (a1+b2)v3
    vs = frame.vectors[3:]
    for row in tangent.rows:
        d = Matrix.from_flat(row, 7, 7)
        rm = matmodel.row_matrix(d, frame)
        a, b = rm.rows[0], rm.rows[1]
        expected = [ZERO] * 7
        for coeff, v in zip([a[2] - b[1], a[3] + b[0], -(a[0] - b[3]),
                             -(a[1] + b[2])], vs):
            expected = [u + coeff * w for u, w in zip(expected, v)]
        assert d.apply(frame.k) == expected


def test_v_basis_in_standard_frame(frame):
    vs = frame.vectors[3:]
    assert vs[0] == E[2]
    assert vs[1] == E[6]
    assert vs[2] == E[4]
    assert vs[3] == [-t for t in E[5]]


def test_m34_triple_examples():
    a = Matrix.zeros(3, 4); a.rows[0][0] = ONE      # e11
    b = Matrix.zeros(3, 4); b.rows[0][1] = ONE      # e12
    assert matmodel.m34_triple(a, b, b) == a
    c = Matrix.zeros(3, 4); c.rows[2][2] = ONE
    assert matmodel.m34_triple(a, a, c).is_zero()


def skew_oracle(a, b, c):
    """The skew triple as its eight matrix products."""
    at, bt = a.transpose(), b.transpose()
    return (a @ bt @ c) - (b @ at @ c) + (c @ bt @ a) - (c @ at @ b)


def sl3_oracle(m1, m2, m3):
    """The twisted product: the skew triple plus gamma, eleven products."""
    def outer(u, w):
        return Matrix([[x * y for y in w] for x in u])
    a1, a2, a3 = (matmodel.alpha(m) for m in (m1, m2, m3))
    gamma = ((outer(a1, a2) - outer(a2, a1)) @ m3
             + outer(a3, a2) @ m1 - outer(a3, a1) @ m2)
    return skew_oracle(m1, m2, m3) + gamma


# mostly zeros, with irrational values (r6, r15/3) and a large rational
entries = st.sampled_from([ZERO] * 7 + [ONE, -ONE, SQRT6, Scalar(0, 0, 0, 1, 3),
                                        Scalar.rational(2 ** 70 + 1, 3)])


def matrices(n, m, count, traceless=False):
    def build(flat):
        mat = Matrix.from_flat(flat, n, m)
        if traceless:
            mat.rows[-1][-1] = mat.rows[-1][-1] - mat.trace()
        return mat
    one = st.lists(entries, min_size=n * m, max_size=n * m).map(build)
    return st.lists(one, min_size=count, max_size=count)


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: matrices(*shape, 3)))
def test_skew_triple_equals_the_eight_product_formula(mats):
    assert matmodel.skew_triple(*mats) == skew_oracle(*mats)


@settings(max_examples=150, deadline=None)
@given(matrices(3, 4, 4))
def test_m34_operator_equals_the_eight_product_formula(mats):
    x, y, z, z2 = mats
    op = matmodel.M34.operator(x.flatten(), y.flatten())
    for c in (z, z2):  # one operator, applied twice
        expected = skew_oracle(x, y, c)
        assert op(c.flatten()) == expected.flatten()
        assert matmodel.m34_triple(x, y, c) == expected


@settings(max_examples=150, deadline=None)
@given(matrices(3, 3, 4, traceless=True))
def test_sl3_operator_equals_the_eleven_product_formula(mats):
    x, y, z, z2 = mats
    op = matmodel.SL3.operator(x.flatten(), y.flatten())
    for c in (z, z2):
        expected = sl3_oracle(x, y, c)
        assert op(c.flatten()) == expected.flatten()
        assert matmodel._sl3_triple_raw(x, y, c) == expected
        assert matmodel.sl3_triple(x, y, c) == expected


def test_flat_products_reject_vectors_of_the_wrong_length():
    for system, n in ((matmodel.SL3, 9), (matmodel.M34, 12)):
        ok = [ONE] + [ZERO] * (n - 1)
        for bad in ([ONE] + [ZERO] * (n + 2), [ONE] + [ZERO] * (n - 2)):
            for args in ((bad, ok, ok), (ok, bad, ok), (ok, ok, bad)):
                with pytest.raises(ValueError):
                    system.triple(*args)
    a, b = Matrix.zeros(3, 4), Matrix.zeros(4, 3)
    for args in ((a, a, b), (a, b, a), (b, a, a)):
        with pytest.raises(ValueError):
            matmodel.skew_triple(*args)
    with pytest.raises(ValueError):
        matmodel._sl3_triple_raw(a, a, a)


def test_m34_template_basis_closes():
    basis = matmodel.m34_template_basis()
    space = Subspace.span([m.flatten() for m in basis], 12)
    assert space.dim == 8
    carrier = lts.LtsCarrier(matmodel.M34, space)
    assert carrier.is_closed()


def test_row_matrix_intertwines_m34(tangent, frame):
    rng = random.Random(3)
    mats = [Matrix.from_flat(r, 7, 7) for r in tangent.rows]
    rms = [matmodel.row_matrix(d, frame) for d in mats]
    for _ in range(30):
        x, y, z = (rng.randrange(8) for _ in range(3))
        lhs = matmodel.row_matrix(lts.triple_in_lie(mats[x], mats[y], mats[z]),
                                  frame)
        assert lhs == matmodel.m34_triple(rms[x], rms[y], rms[z])


def test_lift(ws):
    lift = ws.lift
    assert all(lhs == [-t for t in rhs] for *_, lhs, rhs
               in lift.triple_images(lift.lifted, GL7.operator))
    d = lift.basis[0]
    lifted = lift.lift(d)
    for f in (lift.frame.i, lift.frame.j, lift.frame.k):
        assert lifted.apply(f) == d.apply(f)
    assert ws.g2.contains(lifted)


def test_triple_images_match_direct_products(ws):
    lift = ws.lift
    rng = random.Random(7)
    picks = {tuple(rng.randrange(8) for _ in range(3)) for _ in range(12)}
    for x, y, z, image, product in lift.triple_images(lift.basis,
                                                      GL7.operator):
        if (x, y, z) in picks:
            expected = lts.triple_in_lie(lift.basis[x], lift.basis[y],
                                         lift.basis[z]).flatten()
            assert image == product == expected


@pytest.mark.parametrize("check_id", ["matmodel.m34_match", "matmodel.to_sl3",
                                      "matmodel.lift"])
def test_corrupted_triple_constants_fail_with_a_witness(ws, check_id):
    # negate one nonzero structure constant of a copy of the shared lift
    lift = copy.copy(ws.lift)
    lift.triples = copy.deepcopy(lift.triples)
    x, y, z, l = next((x, y, z, l) for x in range(8) for y in range(8)
                      for z in range(8) for l in range(8)
                      if lift.triples[x][y][z][l])
    lift.triples[x][y][z][l] = -lift.triples[x][y][z][l]
    bad = Workspace()
    bad._cache.update(lift=lift, frame=ws.frame)
    check = next(c for c in CHECKS if c.id == check_id)
    with pytest.raises(CheckFailure, match=rf"\({x},{y},{z}\)"):
        check.fn(bad, random.Random(0), 1)


def test_alpha():
    sym = Matrix([[ONE, ONE, ZERO], [ONE, ZERO, ONE], [ZERO, ONE, -ONE]])
    assert matmodel.alpha(sym) == [ZERO, ZERO, ZERO]
    e12 = Matrix.zeros(3, 3); e12.rows[0][1] = ONE
    assert matmodel.alpha(e12) == [ZERO, ZERO, ONE]
    e23 = Matrix.zeros(3, 3); e23.rows[1][2] = ONE
    e32 = Matrix.zeros(3, 3); e32.rows[2][1] = ONE
    assert matmodel.alpha(e23 - e32) == [Scalar.of(2), ZERO, ZERO]


def test_sl3_triple_rules():
    m = matmodel.d_st(1, 0)
    m2 = matmodel.d_st(0, 1)
    assert matmodel.sl3_triple(m, m, m2).is_zero()
    with pytest.raises(ValueError):
        matmodel.sl3_triple(Matrix.identity(3), m, m2)


def test_sphere_family_coefficient():
    # {d_s1t1, d_s2t2, d_s3t3} = (2/3)(s1 t2 - s2 t1) d_{t3, -s3}
    two_thirds = Scalar.rational(2, 3)
    for s1, t1, s2, t2, s3, t3 in ((1, 0, 0, 1, 1, 0), (2, -1, 1, 1, 0, 2),
                                   (1, 1, 1, 1, 2, 1)):
        lhs = matmodel.sl3_triple(matmodel.d_st(s1, t1), matmodel.d_st(s2, t2),
                                  matmodel.d_st(s3, t3))
        coeff = two_thirds * Scalar.of(s1 * t2 - s2 * t1)
        assert lhs == matmodel.d_st(t3, -s3).scale(coeff)


def test_to_sl3_symmetric_image():
    # a0 = b0 = 0 with a2 = b1 gives a symmetric traceless image
    a1, a2, a3 = Scalar.of(2), Scalar.of(-1), Scalar.of(3)
    b2, b3 = Scalar.of(5), Scalar.of(-2)
    rm = Matrix([[ZERO, a1, a2, a3],
                 [ZERO, a2, b2, b3],
                 [a2 - a2, a3 + ZERO, b3 - ZERO, -a1 - b2]])
    assert matmodel.matches_template(rm)
    m = matmodel.to_sl3(rm)
    assert m == m.transpose()
    assert m.trace() == ZERO


def test_to_sl3_roundtrip(tangent, frame):
    for row in tangent.rows:
        rm = matmodel.row_matrix(Matrix.from_flat(row, 7, 7), frame)
        m = matmodel.to_sl3(rm)
        assert matmodel.from_sl3(m) == rm
        assert matmodel.to_sl3(matmodel.from_sl3(m)) == m
    bad = Matrix.zeros(3, 4)
    bad.rows[2][0] = ONE
    with pytest.raises(ValueError):
        matmodel.to_sl3(bad)


def test_metric_examples():
    e12 = Matrix.zeros(3, 3); e12.rows[0][1] = ONE
    e21 = Matrix.zeros(3, 3); e21.rows[1][0] = ONE
    assert matmodel.metric(e12 + e21, e12 - e21) == ZERO
    m = matmodel.d_st(1, 1)
    assert matmodel.metric(m, m).sign() > 0
    basis = [Matrix.from_flat(r, 3, 3)
             for r in matmodel.sl3_catalog("full").space.rows]
    assert matmodel.metric_gram_is_positive_definite(basis)


def test_curvature_check():
    report = matmodel.curvature_check(1)
    assert report["triple_coefficient_ok"]
    assert report["metric_identity_ok"]
    assert report["curvature_over_metric_form"] == Scalar.rational(1, 14)


def _grid_oracle(grid_range):
    """The Scalar loop over the grid, the reference of curvature_check."""
    rng = range(-grid_range, grid_range + 1)
    mats = {(s, t): matmodel.d_st(s, t) for s in rng for t in rng}
    two_thirds = Scalar.rational(2, 3)
    minus_28_3 = Scalar.rational(-28, 3)
    for (s1, t1), m1 in mats.items():
        for (s2, t2), m2 in mats.items():
            for (s3, t3), m3 in mats.items():
                cross_coeff = Scalar.of(s1 * t2 - s2 * t1)
                target = mats[(t3, -s3)]
                trip = matmodel._sl3_triple_raw(m1, m2, m3)
                triple_ok = trip == target.scale(two_thirds * cross_coeff)
                lhs = (m2.scale(matmodel.metric(m1, m3))
                       - m1.scale(matmodel.metric(m2, m3)))
                metric_ok = lhs == target.scale(minus_28_3 * cross_coeff)
                if not (triple_ok and metric_ok):
                    return {"triple_coefficient_ok": triple_ok,
                            "metric_identity_ok": metric_ok,
                            "witness": (s1, t1, s2, t2, s3, t3)}
    ratio = Scalar.rational(-2, 3) / Scalar.rational(-28, 3)
    return {"triple_coefficient_ok": True, "metric_identity_ok": True,
            "curvature_over_metric_form": ratio}


def test_grid_kernel_matches_the_scalar_oracle():
    assert matmodel.curvature_check(1) == _grid_oracle(1)


def _at(point, delta):
    return lambda s, t: delta if (s, t) == point else Matrix.zeros(3, 3)


R15 = Scalar(0, 0, 0, 1)
U = {(r, c): Matrix.unit(3, 3, r, c) for r in range(3) for c in range(3)}
# corrupted families d_st + delta(s, t), each with 3 d_st still integral, and
# the flags each gives at its first failing point
CORRUPTIONS = {
    "entry-st": (lambda s, t: U[0, 1].scale(Scalar.of(s * t)), False, False),
    "r15-point": (_at((1, -1), U[2, 2].scale(R15)), False, False),
    "e00-point": (_at((1, -1), U[0, 0]), True, False),
    "e11-e22-point": (_at((1, -1), U[1, 1] - U[2, 2]), False, True),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_grid_kernel_and_oracle_agree_on_a_corrupted_family(monkeypatch, kind):
    delta, triple_ok, metric_ok = CORRUPTIONS[kind]
    clean = matmodel.d_st
    monkeypatch.setattr(matmodel, "d_st",
                        lambda s, t: clean(s, t) + delta(s, t))
    report = matmodel.curvature_check(1)
    assert report == _grid_oracle(1)
    assert (report["triple_coefficient_ok"], report["metric_identity_ok"]) == (
        triple_ok, metric_ok)


def _rational_d_st(s, t):
    """d_st with sqrt(15)/3 replaced by 1: rational, the identities fail."""
    s, t = Scalar.of(s), Scalar.of(t)
    return Matrix([[Scalar.of(-2) * s, ZERO, ZERO], [-t, s, t], [s, -t, s]])


def _symmetric_r6_d_st(s, t):
    """_rational_d_st plus a symmetric r6 part: alpha(d) stays rational."""
    return _rational_d_st(s, t) + (U[1, 2] + U[2, 1]).scale(SQRT6 * Scalar.of(s))


# family and the width of d and alpha(d), cleared as one tensor
GRID_WIDTHS = {
    "rational": (_rational_d_st, 1),
    "zero": (lambda s, t: Matrix.zeros(3, 3), 1),
    "symmetric-r6": (_symmetric_r6_d_st, 4),
}


@pytest.mark.parametrize("kind", sorted(GRID_WIDTHS))
def test_grid_d_and_alpha_share_one_width(monkeypatch, kind):
    family, width = GRID_WIDTHS[kind]
    cleared, products = [], []

    def spy(f, widths):
        def wrapped(*args):
            out = f(*args)
            widths.append(out.shape[-1])
            return out
        return wrapped

    monkeypatch.setattr(_intops, "clear_integral",
                        spy(_intops.clear_integral, cleared))
    monkeypatch.setattr(_intops, "qproduct", spy(_intops.qproduct, products))
    monkeypatch.setattr(matmodel, "d_st", family)
    assert matmodel.curvature_check(1) == _grid_oracle(1)
    # clear_integral gives d with alpha, then g and c; every product has
    # the width of d, and a rational family clears to one component only
    assert cleared[0] == width and set(products) == {width}
    assert width == 4 or set(cleared) == {1}


@pytest.mark.parametrize("name, broken", [
    ("d_st", lambda f: lambda s, t: f(s, t).scale(Scalar.rational(1, 2))),
    ("metric", lambda f: lambda a, b: f(a, b) + Scalar.rational(1, 2)),
])
def test_grid_rejects_a_non_integral_family(monkeypatch, name, broken):
    # 3 d_st and 9 metric must clear with denominator 1
    monkeypatch.setattr(matmodel, name, broken(getattr(matmodel, name)))
    with pytest.raises(ValueError, match="not integral"):
        matmodel.curvature_check(1)


def test_sl3_catalog_dims_and_closure():
    for kind, dim in (("full", 8), ("sphere", 2), ("sym5", 5), ("col4", 4),
                      ("refl4", 4), ("gotro", 4)):
        c = matmodel.sl3_catalog(kind)
        assert c.dim == dim
        assert c.is_closed()
    with pytest.raises(ValueError):
        matmodel.sl3_catalog("nope")


def test_each_sl3_carrier_is_built_once_per_run(monkeypatch):
    built = []
    sl3_catalog = matmodel.sl3_catalog

    def counting(kind):
        built.append(kind)
        return sl3_catalog(kind)

    monkeypatch.setattr(matmodel, "sl3_catalog", counting)
    results = run_checks(select_checks(["matmodel.*"]), 0, 2, timing=False)
    assert all(r.status == "pass" for r in results), results
    assert sorted(built) == ["col4", "full", "gotro", "refl4", "sphere", "sym5"]


def test_an_sl3_span_that_does_not_close_skips_its_checks(monkeypatch):
    # shifted by E12, the sphere span no longer closes
    d_st = matmodel.d_st
    monkeypatch.setattr(matmodel, "d_st",
                        lambda s, t: d_st(s, t) + Matrix.unit(3, 3, 0, 1))
    ids = ["matmodel.sphere", "matmodel.metric", "matmodel.sl3_catalog",
           "matmodel.sl3_maximality"]
    results = run_checks(select_checks(ids), 0, 2, timing=False)
    assert [r.status for r in results] == ["skipped", "pass", "skipped", "skipped"]
    assert {r.witness for r in results if r.status == "skipped"} == {
        "prerequisite sl3_sphere failed: basis triple (0, 1, 0) leaves the carrier"}


def test_refl4_orthogonal_to_gotro():
    refl = matmodel.sl3_catalog("refl4")
    gotro = matmodel.sl3_catalog("gotro")
    for a in refl.space.rows:
        for b in gotro.space.rows:
            assert matmodel.metric(Matrix.from_flat(a, 3, 3),
                                   Matrix.from_flat(b, 3, 3)) == ZERO


def test_sphere_matches_adapted_intersection(ws, frame, g2):
    # each family's image under to_sl3 . row_matrix spans its 3x3 partner;
    # T1's image elements are of the d_{s,t} form
    for kind, (_, _, partner) in FAMILIES.items():
        images = []
        for row in ws.t_carrier(kind).space.rows:
            m = matmodel.to_sl3(matmodel.row_matrix(g2.mat(row), frame))
            if kind == "T1":
                assert m == matmodel.d_st(m.rows[0][0] / Scalar.of(-2), m.rows[1][2])
            images.append(m.flatten())
        assert Subspace.span(images, 9) == matmodel.sl3_catalog(partner).space, kind


def test_grid_failure_names_the_metric_identity(monkeypatch):
    # break only the -28/3 identity: the triple product does not use metric
    metric = matmodel.metric
    monkeypatch.setattr(matmodel, "metric", lambda a, b: metric(a, b) + ONE)
    report = matmodel.curvature_check(1)
    assert report["triple_coefficient_ok"] is True
    assert report["metric_identity_ok"] is False
    [result] = run_checks(select_checks(["matmodel.grid"]), 0, 1)
    assert result.status == "fail"
    assert result.witness.startswith("-28/3 identity fails at ")


def _sign_flipped(real, shape):
    """_operator with the sign of one output entry flipped on `shape`."""
    def operator(x, y, n, m, twisted=False):
        apply = real(x, y, n, m, twisted)
        if (n, m) != shape:
            return apply

        def wrong(z):
            out = apply(z)
            out[5] = -out[5]
            return out
        return wrong
    return operator


def test_to_sl3_envelope_is_taken_through_the_lift(ws):
    # the eighth lifted image replaced by a copy of the first: 7 of 8 remain
    lift = copy.copy(ws.lift)
    lift.lifted = lift.lifted[:7] + [lift.lifted[0]]
    bad = Workspace()
    bad._cache.update(lift=lift, frame=ws.frame)
    check = next(c for c in CHECKS if c.id == "matmodel.to_sl3")
    with pytest.raises(CheckFailure, match="envelope through the lift"):
        check.fn(bad, random.Random(0), 1)


def test_m34_match_fails_on_a_sign_error_in_the_3x4_operator(ws, monkeypatch):
    check = next(c for c in CHECKS if c.id == "matmodel.m34_match")
    check.fn(ws, random.Random(0), 1)
    monkeypatch.setattr(matmodel, "_operator",
                        _sign_flipped(matmodel._operator, (3, 4)))
    with pytest.raises(CheckFailure, match=r"mismatch at basis triple \(\d,\d,\d\)"):
        check.fn(ws, random.Random(0), 1)


def test_to_sl3_fails_on_a_sign_error_in_the_twisted_operator(ws, monkeypatch):
    check = next(c for c in CHECKS if c.id == "matmodel.to_sl3")
    monkeypatch.setattr(matmodel, "_operator",
                        _sign_flipped(matmodel._operator, (3, 3)))
    with pytest.raises(CheckFailure, match=r"at \(\d,\d,\d\)"):
        check.fn(ws, random.Random(0), 1)
