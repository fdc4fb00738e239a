"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every tolerance is zero.  Each test prints a single pass/fail line (visible
under `pytest -s` or in captured output on failure).
"""

import functools
import json
import os
import random
import subprocess
import sys
import zlib
from itertools import combinations

from crossg2 import catalog, lts, matmodel
from crossg2.checks import CHECKS
from crossg2.linalg import Matrix, Subspace, char_poly, commutator
from crossg2.scalar import ONE, ZERO, Scalar

SEED = 0
TRIALS = 25


def run_check(ws, check_id: str, trials: int = TRIALS):
    check = next(c for c in CHECKS if c.id == check_id)
    rng = random.Random((SEED & 0xFFFFFFFF) ^ zlib.crc32(check_id.encode()))
    check.fn(ws, rng, trials)


def criterion(number: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} FAIL  {title}")
                raise
            print(f"criterion {number:02d} PASS  {title}")
        return wrapper
    return deco


@criterion(1, "derivation algebra: dim 14 as a kernel, all skew-adjoint")
def test_criterion_01(ws):
    run_check(ws, "g2.dimension")
    run_check(ws, "g2.skew")
    run_check(ws, "g2.leibniz")


@criterion(2, "subalgebra dims: principal 3, annihilator 8, even 6, odd 8")
def test_criterion_02(ws):
    assert ws.tds.space.dim == 3
    assert catalog.annihilator_subalg(ws.frame.l, ws.g2).dim == 8
    assert ws.grading_std.even.dim == 6
    assert ws.grading_std.odd.dim == 8


@criterion(3, "[h_i, h_{i+1}] = h_{i+2}; char(h1) = x(x^2+1)(x^2+4)(x^2+9)")
def test_criterion_03(ws):
    run_check(ws, "catalog.principal")
    hs = ws.tds.matrices()
    for i in range(3):
        assert commutator(hs[i], hs[(i + 1) % 3]) == hs[(i + 2) % 3]
    assert char_poly(ws.tds.h1) == [ZERO, Scalar.of(36), ZERO, Scalar.of(49),
                                    ZERO, Scalar.of(14), ZERO, ONE]


@criterion(4, "principal triple self-normalizing with zero centralizer")
def test_criterion_04(ws):
    assert ws.g2.normalizer(ws.tds.space) == ws.tds.space
    assert ws.g2.centralizer(ws.tds.space).dim == 0


@criterion(5, "adaptedness: dim(h cap odd) = 2; both criteria agree on "
              "100 random subalgebras")
def test_criterion_05(ws):
    assert ws.tds.space.intersect(ws.grading_std.odd).dim == 2
    assert catalog.is_adapted(ws.tds, ws.v_std, ws.g2)
    rng = random.Random(SEED)
    for _ in range(100):
        v = catalog.random_assoc(rng)
        catalog.is_adapted(ws.tds, v, ws.g2)  # raises on disagreement


@criterion(6, "families: dims 2/5/4/4, closed, axioms pass, envelope dims "
              "3/8/8/6")
def test_criterion_06(ws):
    kinds = ("T1", "T2", "T3", "T4")
    for kind, dim in zip(kinds, (2, 5, 4, 4)):
        carrier = ws.t_carrier(kind)
        assert carrier.dim == dim
        assert carrier.is_closed()
        assert lts.check_axioms(carrier).all_pass()
    env = tuple(lts.envelope_dim(ws.t_carrier(k)) for k in kinds)
    assert env == (3, 8, 8, 6), f"computed envelope dims {env}"

    # The reason for each value, as exact subspaces of g2's 14 coordinates.
    # If T is the odd part of a theta_V-stable subalgebra s, then T + [T, T]
    # is an ideal of s: [s cap even, T] <= T because [even, odd] <= odd,
    # [T, T, T] <= T because T is closed, and the Jacobi identity carries
    # both to [T, T].  T1, T2 and T3 are the odd parts of the simple
    # algebras h, ann(l) and ann(i) (dims 3, 8, 8), so each envelope is the
    # whole algebra, and a 6-dimensional envelope of T3 cannot occur.  The
    # envelope of T4 is T4 plus [T4, T4] = even(W) cap even(V).
    g2, fr = ws.g2, ws.frame

    def envelope(kind):
        t = ws.t_carrier(kind)
        brackets = [g2.lts.bracket(a, b)
                    for a, b in combinations(t.space.rows, 2)]
        return Subspace.span(t.space.rows + brackets, 14)

    both_even = catalog.grading(ws.w_std, g2).even.intersect(
        ws.grading_std.even)
    expected = {
        "T1": ws.tds.space,
        "T2": catalog.annihilator_subalg(fr.l, g2),
        "T3": catalog.annihilator_subalg(fr.i, g2),
        "T4": ws.t_carrier("T4").space.sum(both_even),
    }
    for kind, dim in zip(kinds, env):
        got = envelope(kind)
        assert got == expected[kind], (
            f"envelope of {kind} differs from the predicted algebra")
        assert got.dim == dim


@criterion(7, "maximality probes: 25 seeded trials per family fill the "
              "8-dim odd part")
def test_criterion_07(ws):
    rng = random.Random(SEED)
    for kind in ("T1", "T2", "T3", "T4"):
        report = catalog.maximality_probe(ws.t_carrier(kind), ws.m4v,
                                          TRIALS, rng)
        assert report.all_passed(), f"{kind}: {report.failures}"
        assert report.trials == TRIALS


@criterion(8, "operator brackets: [l_a,l_b] = 2 l_axb, [l_a,r_b] = 0, "
              "[r_a,r_b] = 2 r_axb on all frame pairs")
def test_criterion_08(ws):
    run_check(ws, "g2.lambda_rho")


@criterion(9, "cyclic identity D(x cross y, z) + D(y cross z, x) + "
              "D(z cross x, y) = 0 on all 35 basis triples")
def test_criterion_09(ws):
    run_check(ws, "g2.cyclic_sum")


@criterion(10, "Killing form: even perp odd; negative definite")
def test_criterion_10(ws):
    run_check(ws, "g2.killing")


@criterion(11, "tangent dims 12 and 8; linearised product rule on all basis "
               "pairs; third-row closed form")
def test_criterion_11(ws):
    run_check(ws, "matmodel.gr3_tangent")
    run_check(ws, "matmodel.ms_tangent")
    p = matmodel.projection_onto(ws.v_std.space)
    tangent = matmodel.ms_tangent(p, ws.frame)
    vs = ws.frame.vectors[3:]
    for row in tangent.rows:
        d = Matrix.from_flat(row, 7, 7)
        rm = matmodel.row_matrix(d, ws.frame)
        a, b = rm.rows[0], rm.rows[1]
        expected = [ZERO] * 7
        for coeff, v in zip([a[2] - b[1], a[3] + b[0], -(a[0] - b[3]),
                             -(a[1] + b[2])], vs):
            expected = [u + coeff * w for u, w in zip(expected, v)]
        assert d.apply(ws.frame.k) == expected


@criterion(12, "3x4 skew product satisfies the axioms; the 8-element basis "
               "closes")
def test_criterion_12(ws):
    run_check(ws, "lts.m34")


@criterion(13, "to_sl3 is a triple isomorphism on all 512 basis triples; "
               "envelope dimension 14 via the lift")
def test_criterion_13(ws):
    run_check(ws, "matmodel.lift")
    run_check(ws, "matmodel.to_sl3")


@criterion(14, "triple coefficient exactly 2/3 on the full grid "
               "s, t in {-2..2}")
def test_criterion_14(ws):
    report = matmodel.curvature_check(2)
    assert report.get("triple_coefficient_ok"), report
    ws._cache["curvature_grid"] = report  # reused by criterion 15


@criterion(15, "metric identity coefficient -28/3 exact; curvature over "
               "metric form = 1/14 exactly")
def test_criterion_15(ws):
    report = ws._cache.get("curvature_grid") or matmodel.curvature_check(2)
    assert report.get("metric_identity_ok"), report
    assert report.get("curvature_over_metric_form") == Scalar.rational(1, 14)


@criterion(16, "3x3 catalogue: dims 2/5/4/4, closed, maximal by probe; "
               "refl4 perp gotro and gotro closed")
def test_criterion_16(ws):
    run_check(ws, "matmodel.sl3_catalog")
    run_check(ws, "matmodel.sl3_maximality")


@criterion(17, "induced bilinear form = c * identity with c = 2 > 0; "
               "norm multiplicativity on 100 random pairs")
def test_criterion_17(ws):
    run_check(ws, "cross.induced_form")
    run_check(ws, "oct.norm")


@criterion(18, "negative control: the c_1211 = 1 system fails the "
               "derivation axiom")
def test_criterion_18(ws):
    run_check(ws, "lts.abstract_counterexample")


@criterion(19, "CLI determinism: identical seed and filter give "
               "byte-identical json with timing zeroed")
def test_criterion_19(ws):
    env = dict(os.environ)
    env.pop("CROSSG2_FILTER", None)
    args = [sys.executable, "-m", "crossg2", "verify", "--seed", "7",
            "--filter", "scalar.*", "--filter", "oct.*",
            "--format", "json", "--no-timing"]
    first = subprocess.run(args, capture_output=True, env=env)
    second = subprocess.run(args, capture_output=True, env=env)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload and all(r["status"] == "pass" for r in payload)
