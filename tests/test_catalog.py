import gc
import inspect
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from crossg2 import catalog, checks, cross7, lts, matmodel, scalar
from crossg2.checks import SkipCheck, Workspace, run_checks, select_checks
from crossg2.cross7 import basis_vector
from crossg2.g2alg import G2, lambda_operator, rho_operator
from crossg2.linalg import (Matrix, Subspace, char_poly, cleared, commutator,
                            is_zero_vec, kernel, projection_matrix)
from crossg2.scalar import ONE, ZERO, Scalar

E = [basis_vector(i) for i in range(7)]


def test_is_associative():
    assert catalog.is_associative(Subspace.span([E[0], E[1], E[3]], 7))
    assert not catalog.is_associative(Subspace.span([E[0], E[1], E[2]], 7))
    assert not catalog.is_associative(Subspace.span([E[0], E[1]], 7))


def test_assoc_from_pair():
    rng = random.Random(13)
    for _ in range(10):
        v = catalog.random_assoc(rng)
        assert catalog.is_associative(v.space)
    with pytest.raises(ValueError):
        catalog.AssocSubalg.from_pair(E[0], E[0])


def test_split_check_decides_alike_on_ints_and_scalars(monkeypatch, scalar_route):
    rng = random.Random(7)
    subalgs = [catalog.random_assoc(rng) for _ in range(4)]
    r6 = Scalar(0, 1, 0, 0)
    subalgs.append(catalog.AssocSubalg.from_pair(
        [ONE, r6, ZERO, ZERO, ZERO, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO, Scalar.of(2), ZERO, ZERO]))
    splits = [(v.space, v.complement()) for v in subalgs]
    products = []
    cross = catalog.cross

    def spy(x, y):
        products.append(cross(x, y))
        return products[-1]

    monkeypatch.setattr(catalog, "cross", spy)
    paths = []
    for space, comp in splits:
        products.clear()
        assert catalog._split_failure(space, comp) is None
        assert len(products) == 3 * 4 + 6  # V x V-perp, and 6 pairs in V-perp
        paths.append({type(x) for p in products for x in p})
    assert paths == [{int}] * 4 + [{Scalar}]  # rational V runs on ints

    def failures():
        """The split's verdicts under each sign pair e_i x e_j = -(e_j x e_i)
        of the table flipped in turn: the split forms V-perp x V-perp on
        unordered pairs, so each corruption keeps the product antisymmetric."""
        out = []
        for i, j in combinations(range(7), 2):
            table = [list(row) for row in clean]
            (k, sign), (_, back) = table[i][j], table[j][i]
            table[i][j], table[j][i] = (k, -sign), (k, -back)
            monkeypatch.setattr(cross7, "CROSS_TABLE", table)
            out.append([catalog._split_failure(space, comp) for space, comp in splits])
        return out

    clean = cross7.CROSS_TABLE
    monkeypatch.setattr(catalog, "is_associative", lambda v: True)
    on_ints = failures()
    assert all(all(verdicts[:4]) for verdicts in on_ints)  # every rational V
    # r6's V keeps its split only under the flip of e1 x e2; under two flips
    # only its V-perp x V-perp half fails
    assert [bool(verdicts[4]) for verdicts in on_ints].count(False) == 1
    assert [verdicts[4] for verdicts in on_ints].count("V-perp x V-perp leaves V") == 2
    for space, _ in splits:  # the last flip, e6 x e7, fails every split
        with pytest.raises(AssertionError, match="leaves"):
            catalog.AssocSubalg(space)
    scalar_route()
    assert failures() == on_ints
    for space, _ in splits:
        with pytest.raises(AssertionError, match="leaves"):
            catalog.AssocSubalg(space)


def test_theta(v_std):
    th = v_std.theta()
    assert th.apply(E[0]) == E[0]
    assert th.apply(E[2]) == [-t for t in E[2]]
    assert th @ th == Matrix.identity(7)
    pi = projection_matrix(v_std.space)
    assert th == pi.scale(Scalar.of(2)) - Matrix.identity(7)
    for i in range(7):  # an automorphism of the cross product
        for j in range(i + 1, 7):
            assert (th.apply(cross7.cross(E[i], E[j]))
                    == cross7.cross(th.apply(E[i]), th.apply(E[j])))


def test_theta_check_tells_v_from_another_subalgebra(monkeypatch):
    # theta_W for W = <e1, e5, e6> (associative, contains e1, orthogonal to
    # e3) is an automorphism fixing e1 and negating e3, as theta_V is; only a
    # comparison with V itself tells them apart
    proj_w = projection_matrix(Subspace.span([E[0], E[4], E[5]], 7))
    for module in (catalog, checks):  # every projection the check can reach
        monkeypatch.setattr(module, "projection_matrix", lambda space: proj_w,
                            raising=False)
    [result] = run_checks(select_checks(["catalog.theta"]), 0, 1)
    assert result.status == "fail"
    assert result.witness == "theta is not +1 on V"


def test_grading(v_std, g2, grading_std, frame):
    assert grading_std.even.dim == 6
    assert grading_std.odd.dim == 8
    assert catalog.verify_grading(grading_std, g2)
    mats = [lambda_operator(a, frame) for a in (frame.i, frame.j, frame.k)]
    mats += [rho_operator(a, frame) for a in (frame.i, frame.j, frame.k)]
    assert g2.subspace_from_matrices(mats) == grading_std.even


def conjugation_eigenspaces(v, g2):
    """The +1 and -1 eigenspaces of d -> theta d theta, in basis coordinates."""
    th = v.theta()
    conj = Matrix.from_columns([g2.coords(th @ b @ th) for b in g2.basis])
    ident = Matrix.identity(g2.dim)
    return (kernel((conj - ident).rows, g2.dim),
            kernel((conj + ident).rows, g2.dim))


def test_grading_equals_the_conjugation_eigenspaces(g2):
    rng = random.Random(8)
    for _ in range(10):
        v = catalog.random_assoc(rng)
        g = catalog.grading(v, g2)
        assert (g.even.dim, g.odd.dim) == (6, 8)
        assert (g.even, g.odd) == conjugation_eigenspaces(v, g2)


def test_mapping_space_decides_alike_on_the_scalar_route(g2, tds, scalar_route):
    # membership rows on the integer bases of rational V, V-perp and <u>,
    # against the same rows on Scalar bases
    rng = random.Random(31)
    r6 = Scalar(0, 1, 0, 0)
    subalgs = [catalog.random_assoc(rng) for _ in range(6)]
    subalgs.append(catalog.AssocSubalg.from_pair(
        [ONE, r6, ZERO, ZERO, ZERO, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO, Scalar.of(2), ZERO, ZERO]))
    us = [[Scalar.rational(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(7)]
          for _ in range(4)] + [[r6, ONE, ZERO, ZERO, ZERO, ZERO, ONE]]

    def spaces():
        out = []
        for v in subalgs:
            space, comp = v.space, v.complement()
            out.append(catalog.mapping_space([(comp, space)], g2))
            out.append(catalog.mapping_space([(space, space), (comp, comp)], g2))
            out.append(catalog.mapping_space([(space, space), (comp, comp)], g2,
                                             within=tds.space))
        return out + [catalog.annihilator_subalg(u, g2) for u in us if any(u)]

    on_ints = spaces()
    assert [s.dim for s in on_ints[:21:3]] == [6] * 7
    assert [s.dim for s in on_ints[21:]] == [8] * (len(on_ints) - 21)
    scalar_route()
    assert spaces() == on_ints


def test_grading_of_an_irrational_subalgebra(g2):
    # rows with r6 entries take the Scalar branch of the membership rows
    r6 = Scalar(0, 1, 0, 0)
    u = [ONE, r6, ZERO, ZERO, ZERO, ZERO, ZERO]
    w = [ZERO, ZERO, ONE, ZERO, Scalar.of(2), ZERO, ZERO]
    v = catalog.AssocSubalg.from_pair(u, w)
    assert any(cleared(r) is None for r in v.space.rows)
    assert any(cleared(r) is None for r in v.complement().rows)
    g = catalog.grading(v, g2)
    assert (g.even.dim, g.odd.dim) == (6, 8)
    assert (g.even, g.odd) == conjugation_eigenspaces(v, g2)


def test_grading_check_rejects_a_corrupted_odd_part(monkeypatch):
    clean = catalog.grading

    def corrupted(v, g2=None):
        g = clean(v, g2)
        # still 8-dimensional, but one basis element gains an even part
        rows = [[x + y for x, y in zip(g.odd.rows[0], g.even.rows[0])]]
        return catalog.Grading(g.v, g.even,
                               Subspace.span(rows + g.odd.rows[1:], 14))

    monkeypatch.setattr(catalog, "grading", corrupted)
    [result] = run_checks(select_checks(["catalog.grading"]), 0, 1)
    assert result.status == "fail"
    assert result.witness.startswith(
        "odd part != -1-eigenspace of conjugation by theta (dims 8, 8); "
        "in one only: [")


def test_annihilator(g2):
    ann = catalog.annihilator_subalg(E[2], g2)
    assert ann.dim == 8
    for r in ann.rows:
        assert is_zero_vec(g2.mat(r).apply(E[2]))
    assert catalog.annihilator_subalg([Scalar.of(2) * t for t in E[2]], g2) == ann
    with pytest.raises(ValueError):
        catalog.annihilator_subalg([ZERO] * 7, g2)


def test_principal_tds(tds, g2, grading_std):
    hs = tds.matrices()
    for i in range(3):
        assert commutator(hs[i], hs[(i + 1) % 3]) == hs[(i + 2) % 3]
    assert char_poly(tds.h1) == [ZERO, Scalar.of(36), ZERO, Scalar.of(49),
                                 ZERO, Scalar.of(14), ZERO, ONE]
    assert g2.normalizer(tds.space) == tds.space
    assert grading_std.even.contains(g2.coords(tds.h1))
    assert grading_std.odd.contains(g2.coords(tds.h2))
    assert grading_std.odd.contains(g2.coords(tds.h3))


def test_is_adapted(tds, v_std, g2, grading_std):
    assert catalog.is_adapted(tds, v_std, g2)
    assert tds.space.intersect(grading_std.odd).dim == 2
    # a non-adapted associative subalgebra exists among random draws
    rng = random.Random(100)
    found = False
    for _ in range(60):
        v = catalog.random_assoc(rng)
        if not catalog.is_adapted(tds, v, g2):
            found = True
            break
    assert found


def test_is_adapted_rejects_non_principal(v_std, g2, frame):
    lam_span = g2.subspace_from_matrices(
        [lambda_operator(a, frame) for a in (frame.i, frame.j, frame.k)])
    # a bare span is not a principal triple: only principal_tds validates one
    with pytest.raises(TypeError):
        catalog.is_adapted(lam_span, v_std, g2)
    with pytest.raises(TypeError):  # a rejected call leaves nothing behind
        catalog.is_adapted(lam_span, v_std, g2)


def test_principal_tds_rejects_a_corrupted_triple(monkeypatch, frame, g2):
    # doubling D(j, k) breaks h1, so the bracket relations fail first
    real = catalog.d_operator

    def doubled_jk(x, y):
        d = real(x, y)
        return d.scale(2) if (x, y) == (frame.j, frame.k) else d

    monkeypatch.setattr(catalog, "d_operator", doubled_jk)
    with pytest.raises(AssertionError, match=r"\[h1, h2\] != h3"):
        catalog.principal_tds(frame, g2)


def test_adapted_checks_leave_no_g2_alive():
    # the triple's matrices live on the run's PrincipalTds, in no module cache
    def live_g2():
        gc.collect()
        return sum(isinstance(o, G2) for o in gc.get_objects())

    before = live_g2()
    for seed in range(3):
        results = run_checks(select_checks(["catalog.adapted"]), seed, 1)
        assert [r.status for r in results] == ["pass"]
    del results
    assert live_g2() == before


def test_family_table_states_the_papers_values():
    Family = catalog.Family
    assert catalog.FAMILIES == {
        "T1": Family(dim=2, envelope=3, partner="sphere"),
        "T2": Family(dim=5, envelope=8, partner="sym5"),
        "T3": Family(dim=4, envelope=8, partner="col4"),
        "T4": Family(dim=4, envelope=6, partner="refl4")}
    assert all(type(fam) is Family for fam in catalog.FAMILIES.values())


def test_maximal_lts_dims(ws):
    for kind, dim in (("T1", 2), ("T2", 5), ("T3", 4), ("T4", 4)):
        carrier = ws.t_carrier(kind)
        assert carrier.dim == dim
        assert carrier.is_closed()
        assert lts.check_axioms(carrier).all_pass()


def test_maximal_lts_t1_is_span_of_h2_h3(ws, tds, g2):
    t1 = ws.t_carrier("T1")
    expected = Subspace.span([g2.coords(tds.h2), g2.coords(tds.h3)], 14)
    assert t1.space == expected


def test_maximal_lts_preconditions(grading_std, g2, frame, tds):
    zero = [ZERO] * 7
    with pytest.raises(ValueError, match="nonzero vector"):
        catalog.maximal_lts(grading_std, "T2", zero, g2)
    with pytest.raises(ValueError, match="orthogonal to V"):
        catalog.maximal_lts(grading_std, "T2", frame.i, g2)   # i not in V-perp
    with pytest.raises(ValueError, match="nonzero vector"):
        catalog.maximal_lts(grading_std, "T3", zero, g2)
    with pytest.raises(ValueError, match="inside V"):
        catalog.maximal_lts(grading_std, "T3", frame.l, g2)   # l not in V
    w_disjoint = catalog.AssocSubalg.from_pair(
        [x + y for x, y in zip(E[2], E[0])], E[4])
    assert catalog.intersection_profile(grading_std.v, w_disjoint) == (0, 1, 1, 1)
    with pytest.raises(ValueError, match="meeting V$"):
        catalog.maximal_lts(grading_std, "T4", catalog.grading(w_disjoint, g2), g2)
    with pytest.raises(ValueError, match="meeting the complement of V"):
        catalog.maximal_lts(grading_std, "T4", grading_std, g2)     # W = V
    # <e3, e4, e6>: the standard principal subalgebra is not adapted to it
    v_off = catalog.AssocSubalg.from_pair(E[2], E[3])
    assert not catalog.is_adapted(tds, v_off, g2)
    with pytest.raises(ValueError, match="not adapted to V"):
        catalog.maximal_lts(catalog.grading(v_off, g2), "T1", tds, g2)
    with pytest.raises(ValueError, match="unknown kind 'bogus'"):
        catalog.maximal_lts(grading_std, "bogus", None, g2)


@pytest.mark.parametrize("entry", [
    catalog.grading, catalog.verify_grading, catalog.mapping_space,
    catalog.annihilator_subalg, catalog.principal_tds, catalog.is_adapted,
    catalog.maximal_lts, matmodel.LiftMap], ids=lambda f: f.__name__)
def test_g2_is_passed_in(entry):
    # no entry point falls back to a process-wide algebra
    g2 = inspect.signature(entry).parameters["g2"]
    assert g2.default is inspect.Parameter.empty


def test_t_carrier_builds_only_its_own_witness(monkeypatch):
    # T2 and T3 need neither h nor W, T4 needs W, and only T1 needs h
    def broken(frame, g2=None):
        raise AssertionError("no principal subalgebra")

    monkeypatch.setattr(catalog, "principal_tds", broken)
    ws = Workspace()
    ws.t_carrier("T2"), ws.t_carrier("T3")
    assert "w_std" not in ws._cache
    ws.t_carrier("T4")
    with pytest.raises(SkipCheck, match="prerequisite tds failed: no principal"):
        ws.t_carrier("T1")


def test_envelopes(ws):
    dims = {kind: lts.envelope_dim(ws.t_carrier(kind))
            for kind in ("T1", "T2", "T3", "T4")}
    assert dims == {"T1": 3, "T2": 8, "T3": 8, "T4": 6}


def test_intersection_profile(ws, v_std):
    assert catalog.intersection_profile(v_std, v_std) == (3, 0, 0, 4)
    assert catalog.intersection_profile(v_std, ws.w_std) == (1, 2, 2, 2)
    rng = random.Random(77)
    allowed = {(3, 0, 0, 4), (1, 2, 2, 2), (1, 0, 0, 2), (0, 1, 1, 1),
               (0, 0, 0, 1)}
    for _ in range(50):
        w = catalog.random_assoc(rng)
        assert catalog.intersection_profile(v_std, w) in allowed


def test_pasapa_equivalence(v_std):
    thv = v_std.theta()
    rng = random.Random(31)
    for _ in range(30):
        w = catalog.random_assoc(rng)
        if w.space == v_std.space:
            continue
        thw = w.theta()
        commute = thv @ thw == thw @ thv
        invariant = all(v_std.space.contains(thw.apply(r))
                        for r in v_std.space.rows)
        assert commute == invariant


def test_maximality_probe(ws):
    rng = random.Random(42)
    report = catalog.maximality_probe(ws.t_carrier("T2"), ws.m4v, 10, rng)
    assert report.all_passed()
    assert report.trials == 10 and report.passes == 10


def decline_every_candidate(monkeypatch):
    """Send every candidate past the quotient test to its exact closure."""
    monkeypatch.setattr(catalog, "quotient_module_test",
                        lambda t, ambient: lambda x: False)


@pytest.mark.parametrize("kind", ["T1", "T2"])
def test_probe_seed_is_the_span_of_t_and_the_candidate(ws, kind, monkeypatch):
    # T1 has an irrational basis, T2 a rational one; only a declined
    # candidate has a seed, so the quotient test declines them all
    decline_every_candidate(monkeypatch)
    t, ambient = ws.t_carrier(kind), ws.m4v
    rng = random.Random(5)
    xs = [t.space.rows[0]] + [  # the first is in T: skipped, not probed
        ambient.element([Scalar.of(rng.randint(-3, 3))
                         for _ in range(ambient.dim)]) for _ in range(3)]
    seeds = []
    closure = catalog.generated_subtriple
    monkeypatch.setattr(catalog, "generated_subtriple", lambda seed, amb: seeds.append(
        (seed, amb)) or closure(seed, amb))
    report = catalog.maximality_probe(t, ambient, 3, rng, extra_candidates=xs)
    assert report.all_passed()
    # seeds span T and the candidate in the ambient's own basis, g2's 14
    # coordinates, and close in the ambient itself
    assert seeds == [(Subspace.span(t.space.rows + [x], 14), ambient)
                     for x in xs[1:]]


def ambient_vector_probe(t, ambient, trials, rng, extra_candidates=()):
    """Oracle: the probe on ambient vectors.  Each candidate is built as an
    ambient vector, T + x grows in the ambient's coordinate space, and the
    closure runs in the ambient carrier itself."""
    passes, failures, produced = 0, [], 0
    candidates = [list(c) for c in extra_candidates]
    while produced < trials:
        if candidates:
            x = candidates.pop(0)
        else:
            x = ambient.element([Scalar.of(rng.randint(-3, 3))
                                 for _ in range(ambient.dim)])
        seed = t.space.copy()
        if not seed.add(x):
            continue
        produced += 1
        closed = lts.generated_subtriple(seed, ambient)
        if closed == ambient.space:
            passes += 1
        else:
            failures.append((x, closed.dim))
    return catalog.ProbeReport(trials, passes, failures)


def test_probe_equals_the_ambient_vector_probe(ws, g2, tds):
    cases = [(ws.t_carrier(kind), ws.m4v) for kind in catalog.FAMILIES]
    cases += [(ws.sl3_carrier(fam.partner), ws.sl3_carrier("full"))
              for fam in catalog.FAMILIES.values()]
    for t, ambient in cases:
        for seed in range(5):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            report = catalog.maximality_probe(t, ambient, 8, rng)
            assert report == ambient_vector_probe(t, ambient, 8, oracle_rng)
            assert rng.getstate() == oracle_rng.getstate()
    # a proper closure records the candidate as an ambient vector; a
    # candidate in T is skipped, not probed
    line = lts.LtsCarrier(g2.lts, Subspace.span([g2.coords(tds.h2)], 14), "line")
    xs = [line.space.rows[0], g2.coords(tds.h3)]
    rng, oracle_rng = random.Random(3), random.Random(3)
    report = catalog.maximality_probe(line, ws.m4v, 3, rng, extra_candidates=xs)
    assert report == ambient_vector_probe(line, ws.m4v, 3, oracle_rng, xs)
    assert report.failures[0] == (xs[1], 2)
    assert rng.getstate() == oracle_rng.getstate()


def test_quotient_test_declines_candidates_with_a_proper_closure(ws, g2, tds):
    """T3 is maximal in the odd part, itself an LTS in g2: inside all of g2
    every odd candidate closes to the 8-dim odd part.  The h2 line and h3
    close to a plane, inside the odd part and inside h, where the module
    of h3 mod the line is one dimension short of the quotient."""
    full = lts.LtsCarrier(g2.lts, Subspace.full(14), "g2")
    t3, rng = ws.t_carrier("T3"), random.Random(2)
    xs = [ws.m4v.element([Scalar.of(rng.randint(-3, 3)) for _ in range(8)])
          for _ in range(4)]
    report = catalog.maximality_probe(t3, full, 4, random.Random(0), xs)
    assert report == ambient_vector_probe(t3, full, 4, random.Random(0), xs)
    assert report.failures == [(x, 8) for x in xs]
    line = lts.LtsCarrier(g2.lts, Subspace.span([g2.coords(tds.h2)], 14), "line")
    h3 = g2.coords(tds.h3)
    for ambient in (ws.m4v, lts.LtsCarrier(g2.lts, tds.space, "h")):
        report = catalog.maximality_probe(line, ambient, 1, random.Random(0), [h3])
        assert report.failures == [(h3, 2)]


PROBE_PAIRS = [(kind, "m4v") for kind in catalog.FAMILIES] + [
    (fam.partner, "full") for fam in catalog.FAMILIES.values()]
SPARSE_COORDINATE = st.one_of(st.just(ZERO), st.integers(-2, 2).map(Scalar.of),
                              st.builds(Scalar, *[st.integers(-2, 2)] * 4,
                                        st.integers(1, 3)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PROBE_PAIRS), st.data())
def test_quotient_test_passes_only_candidates_that_close_to_the_ambient(
        ws, pair, data):
    kind, ambient_name = pair
    t, ambient = ((ws.t_carrier(kind), ws.m4v) if ambient_name == "m4v" else
                  (ws.sl3_carrier(kind), ws.sl3_carrier("full")))
    t_space = Subspace.span([ambient.space.coords(r) for r in t.space.rows],
                            ambient.dim)
    x = data.draw(st.lists(SPARSE_COORDINATE, min_size=ambient.dim,
                           max_size=ambient.dim))
    if lts.quotient_module_test(t_space, ambient)([c.mod_p() for c in x]):
        seed = t.space.copy()
        assert seed.add(ambient.element(x))  # x is not in T
        assert lts.generated_subtriple(seed, ambient) == ambient.space


def test_probe_rejects_a_candidate_outside_the_ambient(ws, g2, tds):
    h1 = g2.coords(tds.h1)  # even, so outside the odd part
    with pytest.raises(ValueError, match="not contained in the ambient"):
        catalog.maximality_probe(ws.t_carrier("T2"), ws.m4v, 1,
                                 random.Random(0), extra_candidates=[h1])


def test_probe_determinism(ws):
    r1 = catalog.maximality_probe(ws.t_carrier("T1"), ws.m4v, 5,
                                  random.Random(99))
    r2 = catalog.maximality_probe(ws.t_carrier("T1"), ws.m4v, 5,
                                  random.Random(99))
    assert (r1.passes, r1.failures) == (r2.passes, r2.failures)


def test_probe_finds_non_maximal_witness(ws, tds, g2):
    line = lts.LtsCarrier(g2.lts, Subspace.span([g2.coords(tds.h2)], 14), "line")
    report = catalog.maximality_probe(line, ws.m4v, 1, random.Random(0),
                                      extra_candidates=[g2.coords(tds.h3)])
    assert not report.all_passed()
    assert report.failures[0][1] == 2


@pytest.mark.parametrize("check_id, kind", [("catalog.maximality", "T1"),
                                            ("matmodel.sl3_maximality", "sphere")])
def test_maximality_failure_names_the_family_and_the_closure_dims(
        monkeypatch, check_id, kind):
    # a closure that returns its seed stops at dim T + 1 = 3
    decline_every_candidate(monkeypatch)
    monkeypatch.setattr(catalog, "generated_subtriple", lambda seed, ambient: seed)
    [result] = run_checks(select_checks([check_id]), 0, 2)
    assert result.status == "fail"
    assert result.witness == (f"{kind}: 2 trial(s) closed to a proper subspace "
                              "(dims [3, 3])")


def test_probe_rejects_full_carrier(ws):
    with pytest.raises(ValueError):
        catalog.maximality_probe(ws.m4v, ws.m4v, 1, random.Random(0))


def test_probe_needs_a_trial(ws):
    with pytest.raises(ValueError, match="at least one trial"):
        catalog.maximality_probe(ws.t_carrier("T2"), ws.m4v, 0, random.Random(0))


def probe_run(monkeypatch):
    """Results and probe reports of a seeded run of both maximality checks,
    with how many candidates the quotient test passed, the closures of the
    declined ones and how many exact loops ran.  The run builds its own
    carriers, so their reduced structure constants use the prime set now."""
    reports, passed, closures, exact = [], [], [], []
    probe, quotient = catalog.maximality_probe, catalog.quotient_module_test
    closure, close = catalog.generated_subtriple, lts._close

    def counted(t, ambient):
        test = quotient(t, ambient)
        return lambda x: passed.append(test(x)) or passed[-1]
    with monkeypatch.context() as m:
        m.setattr(lts, "_close", lambda *args: exact.append(1) or close(*args))
        m.setattr(catalog, "generated_subtriple", lambda seed, amb: closures.append(
            closure(seed, amb)) or closures[-1])
        m.setattr(catalog, "quotient_module_test", counted)
        m.setattr(catalog, "maximality_probe", lambda *args: reports.append(
            probe(*args)) or reports[-1])
        results = run_checks(select_checks(["catalog.maximality",
                                            "matmodel.sl3_maximality"]),
                             1, 25, timing=False)
    return results, reports, sum(passed), closures, len(exact)


@pytest.mark.parametrize("prime, roots", [(3, (0, 1, 0)), (5, (1, 0, 0))])
def test_probes_agree_at_a_small_prime(monkeypatch, prime, roots):
    """Mod 3 (r6 -> 0, r10 -> 1) or 5 (r6 -> 1, r10 -> 0) many quotient
    tests fail or decline; the exact loop closes each declined candidate,
    and every probe report and check result equals the one at the real
    prime.  There the quotient test decides all but a few of the 200
    trials."""
    results, reports, passed, closures, exact = probe_run(monkeypatch)
    # 201 candidates: 197 passed, 3 closed and one redrawn, being in T
    assert (passed, len(closures), exact) == (197, 3, 3)
    assert all(c.dim == 8 for c in closures)
    for name, value in zip(("PRIME", "PRIME_R6", "PRIME_R10", "PRIME_R15"),
                           (prime,) + roots):
        monkeypatch.setattr(scalar, name, value)
    small = probe_run(monkeypatch)
    assert small[:2] == (results, reports)
    assert small[2] < passed and small[4] == len(small[3]) > len(closures)


def test_mapping_space_within_h_equals_the_intersection_with_odd(ws, tds, g2):
    rng = random.Random(15)
    vs = [catalog.random_assoc(rng) for _ in range(50)] + [ws.v_std, ws.w_std]
    dims = set()
    for v in vs:
        comp = v.complement()
        systems = [(v.space, v.space), (comp, comp)]
        within = catalog.mapping_space(systems, g2, within=tds.space)
        assert within == tds.space.intersect(catalog.grading(v, g2).odd)
        dims.add(within.dim)
    assert {0, 2} <= dims
    # within the whole algebra, or a random subspace of it, the restriction
    # is the intersection with the unrestricted answer
    for v in vs[:10]:
        w = Subspace.span([[Scalar.of(rng.randint(-2, 2)) for _ in range(14)]
                           for _ in range(rng.randint(1, 9))], 14)
        for systems in ([(v.space, v.space), (v.complement(), v.complement())],
                        [(v.complement(), v.space)]):
            plain = catalog.mapping_space(systems, g2)
            assert catalog.mapping_space(systems, g2, within=Subspace.full(14)) == plain
            assert catalog.mapping_space(systems, g2, within=w) == w.intersect(plain)
