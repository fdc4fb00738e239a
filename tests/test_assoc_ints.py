"""Rational associative subalgebras on integers, against the Scalar path.

`projection_matrix` reduces (B B^t | B) on the `Subspace.basis` B, so a
rational space's projection runs on ints; associativity and the split are
tested on V's integer basis; the homogeneity half of `is_adapted` forms
theta d theta with theta and d cleared to ints where rational.  Each is
checked against the Scalar computation it replaces, which is the oracle
(the `scalar_route` switch, or the formula itself).  g2.jacobi sweeps
g2's Scalar bracket constants; a sweep of the same constants cleared to
ints is its oracle.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from crossg2 import catalog, linalg
from crossg2.checks import run_checks, select_checks
from crossg2.cross7 import basis_vector
from crossg2.linalg import (Matrix, Subspace, cleared, inverse, projection_matrix,
                            rank)
from crossg2.scalar import ONE, SQRT6, ZERO, Scalar
from test_controls import bracket_constants_off

R6_PAIR = ([ONE, SQRT6, ZERO, ZERO, ZERO, ZERO, ZERO],
           [ZERO, ZERO, ONE, ZERO, Scalar.of(2), ZERO, ZERO])

E = [basis_vector(i) for i in range(7)]
BIG = 2 ** 63


def scalar_projection(space):
    """The Scalar formula B^t (B B^t)^-1 B, the oracle."""
    b = Matrix(space.rows)
    return b.transpose() @ inverse(b @ b.transpose()) @ b


def random_space(rng, k, big=False):
    """A rational k-space of R^7; with big, one row has entries near +-2^63."""
    while True:
        rows = [[Scalar.rational(rng.randint(-6, 6), rng.randint(1, 5))
                 for _ in range(7)] for _ in range(k)]
        if big:
            rows[0] = [Scalar.of(rng.choice((1, -1)) * (BIG - rng.randint(0, 50)))
                       if rng.random() < 0.6 else x for x in rows[0]]
        if rank(rows) == k:
            return Subspace.span(rows, 7)


@pytest.mark.parametrize("k", range(1, 7))
def test_integer_projection_equals_the_scalar_formula(k):
    rng = random.Random(100 + k)
    for big in (False, False, False, True, True):
        space = random_space(rng, k, big)
        assert projection_matrix(space) == scalar_projection(space)


def test_the_zero_space_projects_to_zero_and_the_full_space_to_one():
    for n in (1, 3, 7):
        assert projection_matrix(Subspace.zero(n)) == Matrix.zeros(n, n)
        assert projection_matrix(Subspace.full(n)) == Matrix.identity(n)


def test_an_irrational_space_takes_the_scalar_path(monkeypatch):
    # rref alone chooses: ints for a rational space, row insertion over the
    # field for an irrational one, and the formula is the same
    calls, insertion = [], linalg._insertion_rref

    def spy(rows):
        calls.append(len(rows))
        return insertion(rows)

    rational = Subspace.span([E[0], E[1], E[3]], 7)
    space = Subspace.span(list(R6_PAIR), 7)
    monkeypatch.setattr(linalg, "_insertion_rref", spy)
    p = projection_matrix(rational)
    assert calls == []
    assert p == scalar_projection(rational)
    p = projection_matrix(space)
    assert calls == [2]
    assert p == scalar_projection(space)
    assert p == p.transpose() and p @ p == p and p.trace() == Scalar.of(2)
    assert all(p.apply(r) == r for r in space.rows)
    rng = random.Random(24)
    for k in (1, 3, 5):
        rows = [[Scalar(rng.randint(-3, 3), rng.randint(-1, 1), rng.randint(-1, 1),
                        0, rng.randint(1, 3)) for _ in range(7)] for _ in range(k)]
        space = Subspace.span(rows, 7)
        assert space.denominator is None
        assert projection_matrix(space) == scalar_projection(space)


def random_three_spaces(rng, count):
    """Random rational 3-spaces, most not associative, drawn subalgebras, and
    two irrational spaces: span{u, w, u x w} for u with a r6 entry, and the
    same with u x w moved off V."""
    spaces = [random_space(rng, 3) for _ in range(count)]
    spaces += [catalog.random_assoc(rng).space for _ in range(count)]
    spaces += [Subspace.span([E[a], E[b], E[c]], 7)
               for a, b, c in combinations(range(7), 3)]
    u, w = R6_PAIR
    spaces.append(catalog.AssocSubalg.from_pair(u, w).space)
    spaces.append(Subspace.span([u, w, E[6]], 7))
    return spaces


def test_integer_associativity_equals_the_scalar_test(scalar_route):
    spaces = random_three_spaces(random.Random(21), 40)
    assert [s.denominator is None for s in spaces].count(True) == 2
    on_ints = [catalog.is_associative(s) for s in spaces]
    assert on_ints.count(True) >= 40 + 7 + 1  # drawn, the 7 lines, r6's V
    assert on_ints[-2:] == [True, False]
    scalar_route()
    assert all(s.denominator is None for s in spaces)
    assert [catalog.is_associative(s) for s in spaces] == on_ints


def test_a_rational_space_that_is_not_associative_raises_value_error():
    rng = random.Random(22)
    for _ in range(20):
        space = random_space(rng, 3)
        assert not catalog.is_associative(space)
        with pytest.raises(ValueError, match="not a 3-dimensional associative"):
            catalog.AssocSubalg(space)
    with pytest.raises(ValueError):
        catalog.AssocSubalg(Subspace.span([E[0], E[1], E[2]], 7))


def rotation_by_h1(h1):
    """exp(t h1) for cos t = 3/5, sin t = 4/5, exactly: h1 acts as k J on the
    plane where h1^2 = -k^2, so exp(t h1) = sum_k cos kt P_k + sin kt / k h1 P_k
    with P_k the spectral projections of h1^2, eigenvalues 0, -1, -4, -9."""
    sq, one = h1 @ h1, Matrix.identity(7)
    eigen = [0, -1, -4, -9]
    out, z = Matrix.zeros(7, 7), (Fraction(1), Fraction(0))
    for k, lam in enumerate(eigen):
        p = one
        for mu in eigen:
            if mu != lam:
                p = (p @ (sq - one.scale(mu))).scale(Fraction(1, lam - mu))
        out = out + p.scale(z[0]) + (h1 @ p).scale(z[1] / (k or 1))
        z = (z[0] * 3 / 5 - z[1] * 4 / 5, z[0] * 4 / 5 + z[1] * 3 / 5)
    return out


def scalar_stable(h, v, g2):
    """Oracle: theta d theta in h for each basis matrix d of h, on Scalars."""
    th = v.theta()
    for m in h.matrices():
        x = g2.space.coords((th @ m @ th).flatten())
        if x is None or not h.space.contains(x):
            return False
    return True


def test_integer_homogeneity_equals_the_scalar_route(monkeypatch, g2, tds, v_std):
    rng = random.Random(23)
    # exp(t h1) lies in h's group, so it moves subalgebras adapted to h to
    # adapted ones, here with denominators 5^6 in theta
    g = rotation_by_h1(tds.h1)
    assert g @ g.transpose() == Matrix.identity(7)
    moved = [catalog.AssocSubalg(Subspace.span([g.apply(r) for r in
                                                [E[a], E[b], E[c]]], 7))
             for a, b, c in ((1, 5, 6), (1, 2, 4))]
    assert all(cleared(v.theta().flatten() + [ONE])[-1] == 5 ** 6 for v in moved)
    subalgs = [v_std] + moved + [catalog.random_assoc(rng) for _ in range(200)]
    subalgs.append(catalog.AssocSubalg.from_pair(*R6_PAIR))
    expected = [scalar_stable(tds, v, g2) for v in subalgs]
    calls, coords = [], Subspace.coords

    def spy(space, v):
        if space is g2.space and type(v[0]) is int:
            calls.append(v)
        return coords(space, v)

    monkeypatch.setattr(Subspace, "coords", spy)
    on_ints = [catalog.is_adapted(tds, v, g2) for v in subalgs]
    assert all(on_ints[:3]) and not all(on_ints)
    assert len(calls) == len(subalgs) - 1  # h1 of each rational V ran on ints
    assert on_ints == expected


def integer_jacobi_fails(sc):
    """Oracle: whether [[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j]
    is nonzero for some i < j < k, summed on the constants cleared to ints
    (the sums are quadratic in the constants, so clearing keeps their zeros)."""
    n = len(sc)
    c = cleared([x for row in sc for image in row for x in image])

    def term(i, j, k):  # [[b_i, b_j], b_k] times the square of the scale
        ij = (i * n + j) * n
        return [sum(c[ij + m] * c[(m * n + k) * n + r] for m in range(n) if c[ij + m])
                for r in range(n)]
    return any(any(x + y + z for x, y, z in zip(term(i, j, k), term(j, k, i),
                                                term(k, i, j)))
               for i, j, k in combinations(range(n), 3))


@pytest.mark.parametrize("pair", [None, 1, 30])
def test_integer_jacobi_sweep_agrees_with_the_scalar_sweep(monkeypatch, pair):
    # the constants as built, or the pair-th [b_i, b_j] (and [b_j, b_i]) off
    built = bracket_constants_off(monkeypatch, pair)
    [result] = run_checks(select_checks(["g2.jacobi"]), 0, 1)
    [sc] = built
    assert integer_jacobi_fails(sc) == (pair is not None)
    assert result.status == ("fail" if pair is not None else "pass")
