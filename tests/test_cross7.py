import random
from itertools import combinations

import pytest

from crossg2.cross7 import (CROSS_TABLE, Octonion, basis_vector, cross,
                            induced_bilinear, oct_associator, omega,
                            triple_is_alternating)
from crossg2.linalg import Matrix, char_poly, dot, is_zero_vec
from crossg2.scalar import ONE, ZERO, Scalar

E = [basis_vector(i) for i in range(7)]


def rand_vec(rng):
    return [Scalar.of(rng.randint(-3, 3)) for _ in range(7)]


def test_table_cycles():
    for i in range(7):
        a, b, c = i, (i + 1) % 7, (i + 3) % 7
        assert cross(E[a], E[b]) == E[c]
        assert cross(E[b], E[c]) == E[a]
        assert cross(E[c], E[a]) == E[b]
    assert CROSS_TABLE[0][0] is None


def test_spec_values():
    assert cross(E[0], E[1]) == E[3]          # e1 x e2 = e4
    assert cross(E[6], E[0]) == E[2]          # e7 x e1 = e3, indices mod 7
    rng = random.Random(1)
    x = rand_vec(rng)
    assert is_zero_vec(cross(x, x))


def test_double_product_expansion():
    rng = random.Random(4)
    two = Scalar.of(2)
    for _ in range(40):
        x, y, z = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        lhs = [a + b for a, b in zip(cross(cross(x, y), z), cross(x, cross(y, z)))]
        rhs = [two * dot(x, z) * yy - dot(y, z) * xx - dot(x, y) * zz
               for xx, yy, zz in zip(x, y, z)]
        assert lhs == rhs


def test_adjoint_and_gram():
    rng = random.Random(8)
    for i in range(7):
        for j in range(7):
            for k in range(7):
                assert dot(cross(E[i], E[j]), E[k]) == dot(E[i], cross(E[j], E[k]))
    for _ in range(25):
        x, y = rand_vec(rng), rand_vec(rng)
        c = cross(x, y)
        assert dot(c, x) == ZERO
        assert dot(c, c) == dot(x, x) * dot(y, y) - dot(x, y) * dot(x, y)


def test_omega():
    assert omega(E[0], E[1], E[3]) == ONE
    assert omega(E[0], E[1], E[2]) == ZERO
    assert triple_is_alternating(omega)


def test_octonion_unit_and_products():
    one = Octonion.unit()
    e1 = Octonion.pure(E[0])
    e2 = Octonion.pure(E[1])
    assert one * e1 == e1
    assert e1 * one == e1
    assert e1 * e1 == Octonion(Scalar.of(-1), [ZERO] * 7)
    assert e1 * e2 == Octonion.pure(E[3])


def test_associator():
    one = Octonion.unit()
    es = [Octonion.pure(E[i]) for i in range(7)]
    assert oct_associator(one, es[1], es[2]).is_zero()
    assert oct_associator(es[0], es[0], es[1]).is_zero()
    assert not oct_associator(es[0], es[1], es[2]).is_zero()


def test_norm_multiplicative():
    rng = random.Random(17)
    for _ in range(100):
        p = Octonion(Scalar.of(rng.randint(-3, 3)), rand_vec(rng))
        q = Octonion(Scalar.of(rng.randint(-3, 3)), rand_vec(rng))
        assert (p * q).norm() == p.norm() * q.norm()


def test_induced_bilinear_of_omega():
    beta = induced_bilinear(omega)
    assert beta == Matrix.identity(7).scale(Scalar.of(2))
    assert beta.rows[0][0].sign() > 0


def test_induced_bilinear_zero_and_rejection():
    assert induced_bilinear(lambda x, y, z: ZERO).is_zero()
    not_alternating = lambda x, y, z: dot(x, y) * dot(z, z)
    with pytest.raises(ValueError):
        induced_bilinear(not_alternating)


def form_on_sorted_triples(values):
    """The alternating trilinear form with the given values on the 35 sorted
    basis triples: the sum of value * det(x, y, z restricted to the triple)."""
    def gamma(x, y, z):
        total = ZERO
        for (i, j, k), v in values.items():
            if v:
                total = total + v * (x[i] * (y[j] * z[k] - y[k] * z[j])
                                     - x[j] * (y[i] * z[k] - y[k] * z[i])
                                     + x[k] * (y[i] * z[j] - y[j] * z[i]))
        return total
    return gamma


def random_alternating(seed):
    rng = random.Random(seed)
    return form_on_sorted_triples({c: rng.randint(-2, 2)
                                   for c in combinations(range(7), 3)})


# e_i -> e_{3i+1}, upper unitriangular with entries -1, 0, 1, and det 12
PERMUTATION = Matrix([[ONE if j == (3 * i + 1) % 7 else ZERO for j in range(7)]
                      for i in range(7)])
UNIPOTENT = Matrix([[Scalar.of(1 if i == j else (i + 2 * j) % 3 - 1 if i < j else 0)
                     for j in range(7)] for i in range(7)])
DIAGONAL = Matrix([[(1, 2, -1, 3, 1, -2, 1)[i] if i == j else 0 for j in range(7)]
                   for i in range(7)])


@pytest.mark.parametrize("g", [PERMUTATION, UNIPOTENT, DIAGONAL],
                         ids=["permutation", "unipotent", "diagonal"])
@pytest.mark.parametrize("seed", [1, 2])
def test_induced_bilinear_is_gl7_equivariant(seed, g):
    # beta of gamma(g., g., g.) is det(g) g^T beta_gamma g
    gamma = random_alternating(seed)
    moved = lambda x, y, z: gamma(g.apply(x), g.apply(y), g.apply(z))
    det = -char_poly(g)[0]  # char_poly(g)[0] = det(-g), and g is 7x7
    expected = (g.transpose() @ induced_bilinear(gamma) @ g).scale(det)
    assert induced_bilinear(moved) == expected


def test_induced_bilinear_is_cubic_in_gamma():
    gamma = random_alternating(3)
    doubled = lambda x, y, z: Scalar.of(2) * gamma(x, y, z)
    assert induced_bilinear(doubled) == induced_bilinear(gamma).scale(Scalar.of(8))


NOT_ALTERNATING = {
    # antisymmetric in its first two slots only
    "first-two-slots": lambda x, y, z: (x[0] * y[1] - x[1] * y[0]) * z[2],
    # alternating except at (e1, e1, e1)
    "repeated-index": lambda x, y, z: omega(x, y, z) + x[0] * y[0] * z[0],
    # alternating except on the triples with e1 twice and e2 once
    "repeated-pair": lambda x, y, z: omega(x, y, z) + (
        x[0] * y[0] * z[1] - x[0] * y[1] * z[0] + x[1] * y[0] * z[0]),
}


@pytest.mark.parametrize("gamma", NOT_ALTERNATING.values(), ids=NOT_ALTERNATING)
def test_forms_that_do_not_alternate_are_rejected(gamma):
    assert not triple_is_alternating(gamma)
    with pytest.raises(ValueError, match="gamma is not alternating"):
        induced_bilinear(gamma)
