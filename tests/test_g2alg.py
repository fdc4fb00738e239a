import random
from itertools import combinations, product

import pytest

from crossg2.cross7 import Octonion, basis_vector, cross, oct_associator
from crossg2 import g2alg
from crossg2.g2alg import (Frame, d_operator, lambda_operator, leibniz_rows,
                           rho_operator)
from crossg2.linalg import (Matrix, Subspace, _nonzeros, commutator,
                            is_zero_vec, vscale, vsub)
from crossg2.scalar import ONE, SQRT6, SQRT15, ZERO, Scalar

E = [basis_vector(i) for i in range(7)]


def test_dimension_and_skewness(g2):
    assert g2.dim == 14
    for b in g2.basis:
        assert (b + b.transpose()).is_zero()


def test_leibniz_on_basis(g2):
    for b in g2.basis:
        for i, j in combinations(range(7), 2):
            lhs = b.apply(cross(E[i], E[j]))
            rhs = [u + v for u, v in zip(cross(b.apply(E[i]), E[j]),
                                         cross(E[i], b.apply(E[j])))]
            assert lhs == rhs


def test_leibniz_rows_hold_the_defect_of_each_matrix_unit():
    # entry 7 r + c of the row (pair, m) is component m of
    # d(x cross y) - d(x) cross y - x cross d(y) for d = E_rc
    rng = random.Random(12)

    def vec():
        return [Scalar(rng.randint(-3, 3), rng.randint(-1, 1), 0,
                       rng.randint(-1, 1), rng.randint(1, 4))
                if rng.random() < 0.6 else ZERO for _ in range(7)]
    pairs = [(vec(), vec()) for _ in range(4)] + [(E[0], E[1]), (E[2], E[6])]
    rows = leibniz_rows(pairs)
    assert len(rows) == 7 * len(pairs)
    for p, (x, y) in enumerate(pairs):
        for r in range(7):
            for c in range(7):
                d = Matrix.unit(7, 7, r, c)
                defect = vsub(vsub(d.apply(cross(x, y)), cross(d.apply(x), y)),
                              cross(x, d.apply(y)))
                assert [rows[7 * p + m][7 * r + c] for m in range(7)] == defect


def test_membership_and_coords(g2):
    rng = random.Random(2)
    coords = [Scalar.of(rng.randint(-3, 3)) for _ in range(14)]
    m = g2.mat(coords)
    assert g2.contains(m)
    assert g2.coords(m) == coords
    assert not g2.contains(Matrix.identity(7))
    with pytest.raises(ValueError):
        g2.coords(Matrix.identity(7))


def test_bracket_closure(g2):
    sc = g2.bracket_coords
    for i in range(14):
        assert all(not x for x in sc[i][i])
    m = commutator(g2.basis[0], g2.basis[5])
    assert g2.contains(m)


def test_d_operator_examples(g2):
    rng = random.Random(6)
    x = [Scalar.of(rng.randint(-3, 3)) for _ in range(7)]
    assert d_operator(x, x).is_zero()
    d12 = d_operator(E[0], E[1])
    assert d12.apply(E[0]) == [Scalar.of(4) * t for t in E[1]]
    assert g2.contains(d12)


def test_d_cyclic_sum():
    for i, j, k in combinations(range(7), 3):
        s = (d_operator(cross(E[i], E[j]), E[k])
             + d_operator(cross(E[j], E[k]), E[i])
             + d_operator(cross(E[k], E[i]), E[j]))
        assert s.is_zero()


def test_frame_validation():
    fr = Frame.standard()
    assert fr.k == E[3]
    with pytest.raises(ValueError):
        Frame(E[0], E[0], E[2])            # repeated vector: not orthonormal
    with pytest.raises(ValueError):
        Frame(E[0], E[1], E[3])            # l inside V


def test_lambda_rho_values_and_brackets(g2, frame):
    lam = {name: lambda_operator(v, frame)
           for name, v in (("i", frame.i), ("j", frame.j), ("k", frame.k))}
    rho = {name: rho_operator(v, frame)
           for name, v in (("i", frame.i), ("j", frame.j), ("k", frame.k))}
    assert is_zero_vec(lam["i"].apply(frame.i))
    assert lam["i"].apply(frame.l) == cross(frame.i, frame.l)
    assert rho["i"].apply(frame.j) == [Scalar.of(2) * t for t in frame.k]
    two = Scalar.of(2)
    for m in list(lam.values()) + list(rho.values()):
        assert g2.contains(m)
    vecs = {"i": frame.i, "j": frame.j, "k": frame.k}
    for na, a in vecs.items():
        for nb, b in vecs.items():
            axb = cross(a, b)
            assert commutator(lam[na], lam[nb]) == lambda_operator(axb, frame).scale(two)
            assert commutator(lam[na], rho[nb]).is_zero()
            assert commutator(rho[na], rho[nb]) == rho_operator(axb, frame).scale(two)


def test_lambda_rejects_outside_v(frame):
    with pytest.raises(ValueError):
        lambda_operator(frame.l, frame)


def test_killing(g2, tds):
    kf = g2.killing_form
    assert kf == kf.transpose()
    assert g2.killing_trace_ratio() == Scalar.of(4)
    d = g2.basis[3]
    assert g2.killing(d, d).sign() < 0
    zero = Matrix.zeros(7, 7)
    assert g2.killing(zero, d) == ZERO


def test_normalizer_and_centralizer(g2, tds):
    full = Subspace.full(14)
    assert g2.normalizer(full) == full
    h = tds.space
    assert g2.normalizer(h) == h
    assert g2.centralizer(h).dim == 0
    assert g2.centralizer(full).dim == 0   # the algebra has trivial centre


def d_octonion(x, y):
    """Oracle: D(x, y) by octonion arithmetic, [[x,y],z] + 3(x,z,y).

    The real part of the result vanishes identically on pure arguments;
    this is checked, and the restriction to R^7 is returned.
    """
    ox = Octonion.pure(x)
    oy = Octonion.pure(y)
    comm = ox * oy - oy * ox
    three = Scalar.of(3)
    cols = []
    for c in range(7):
        oz = Octonion.pure(basis_vector(c))
        assoc = oct_associator(ox, oz, oy)
        val = (comm * oz - oz * comm) + Octonion(three * assoc.re,
                                                 vscale(three, assoc.im))
        assert not val.re, "derivation has a real component"
        cols.append(val.im)
    return Matrix.from_columns(cols)


def test_d_operator_equals_the_octonion_formula():
    # the integer listing of the 49 D(e_a, e_b) is the octonion one
    assert g2alg._d_basis() == _nonzeros(
        [t for a, b in product(range(7), repeat=2)
         for t in d_octonion(E[a], E[b]).flatten()], 49)
    for a, b in product(range(7), repeat=2):
        assert d_operator(E[a], E[b]) == d_octonion(E[a], E[b])
    rng = random.Random(15)
    entries = [ZERO, ZERO, ONE, -ONE, SQRT6, Scalar(0, 0, 1, 0, 3),
               Scalar(2, -1, 0, 1, 5), Scalar.rational(2 ** 70 + 1, 3), SQRT15]
    for _ in range(8):
        x = [rng.choice(entries) for _ in range(7)]
        y = [rng.choice(entries) for _ in range(7)]
        assert d_operator(x, y) == d_octonion(x, y)
    assert d_operator([1, 0, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0, 0]) == (
        d_octonion(E[0], E[1]).scale(Scalar.of(2)))


@pytest.mark.parametrize("x, y", [(E[0][:6], E[1]), (E[0], E[1] + [ZERO])])
def test_d_operator_rejects_vectors_of_other_lengths(x, y):
    with pytest.raises(ValueError):
        d_operator(x, y)
