"""The cross-product algebra (R^7, x), its 3-form, and the octonions.

The table follows the cyclic convention, indices mod 7 (1-based in the
usual notation, 0-based here):

    e_i x e_{i+1} = e_{i+3},  e_{i+1} x e_{i+3} = e_i,  e_{i+3} x e_i = e_{i+1}.

Also provides the exterior-algebra construction that turns an alternating
trilinear form gamma into a symmetric bilinear form: the coefficient of
e1^...^e7 in -(1/3) * gamma(u,.,.) ^ gamma(v,.,.) ^ gamma, with the
isomorphism from 7-forms to scalars fixed by e1^...^e7 -> 1.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Callable, Sequence

from .linalg import Matrix, Vec, dot, is_zero_vec, vadd, vscale, zero_of
from .scalar import ONE, ZERO, Scalar

__all__ = [
    "CROSS_TABLE", "basis_vector", "cross", "omega", "Octonion",
    "oct_associator", "induced_bilinear", "triple_is_alternating",
]


def _build_table() -> list[list[tuple[int, int] | None]]:
    table: list[list[tuple[int, int] | None]] = [[None] * 7 for _ in range(7)]
    for i in range(7):
        a, b, c = i, (i + 1) % 7, (i + 3) % 7
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[x][y] = (z, 1)
            table[y][x] = (z, -1)
    return table


#: CROSS_TABLE[i][j] = (k, sign) with e_i x e_j = sign * e_k, or None when i == j.
CROSS_TABLE = _build_table()


def basis_vector(i: int) -> Vec:
    v = [ZERO] * 7
    v[i] = ONE
    return v


def cross(x: Sequence[Scalar], y: Sequence[Scalar]) -> Vec:
    """Bilinear extension of the table, in the operands' ring (`zero_of`)."""
    out = [zero_of(x, y)] * 7
    for i in range(7):
        xi = x[i]
        if not xi:
            continue
        row = CROSS_TABLE[i]
        for j in range(7):
            yj = y[j]
            if not yj or i == j:
                continue
            k, sg = row[j]
            term = xi * yj
            out[k] = out[k] + term if sg > 0 else out[k] - term
    return out


def omega(x: Sequence[Scalar], y: Sequence[Scalar], z: Sequence[Scalar]) -> Scalar:
    """The 3-form <x cross y, z>."""
    return dot(cross(x, y), z)


class Octonion:
    """Octonion r*1 + v with the product xy = -<x,y>1 + x cross y on pure parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Scalar, im: Sequence[Scalar]):
        self.re = Scalar.of(re)
        self.im = [Scalar.of(x) for x in im]
        if len(self.im) != 7:
            raise ValueError("imaginary part must have 7 coordinates")

    @classmethod
    def pure(cls, v: Sequence[Scalar]) -> "Octonion":
        return cls(ZERO, v)

    @classmethod
    def unit(cls) -> "Octonion":
        return cls(ONE, [ZERO] * 7)

    def __add__(self, o: "Octonion") -> "Octonion":
        return Octonion(self.re + o.re, vadd(self.im, o.im))

    def __sub__(self, o: "Octonion") -> "Octonion":
        return Octonion(self.re - o.re, [a - b for a, b in zip(self.im, o.im)])

    def __neg__(self) -> "Octonion":
        return Octonion(-self.re, [-a for a in self.im])

    def __mul__(self, o: "Octonion") -> "Octonion":
        re = self.re * o.re - dot(self.im, o.im)
        im = vadd(vadd(vscale(self.re, o.im), vscale(o.re, self.im)),
                  cross(self.im, o.im))
        return Octonion(re, im)

    def norm(self) -> Scalar:
        return self.re * self.re + dot(self.im, self.im)

    def is_zero(self) -> bool:
        return not self.re and is_zero_vec(self.im)

    def __eq__(self, o) -> bool:
        return isinstance(o, Octonion) and self.re == o.re and self.im == o.im

    def __repr__(self):
        return f"Octonion({self.re}, {self.im})"


def oct_associator(x: Octonion, y: Octonion, z: Octonion) -> Octonion:
    """(x, y, z) = (xy)z - x(yz); alternating, nonzero in general."""
    return (x * y) * z - x * (y * z)


Trilinear = Callable[[Vec, Vec, Vec], Scalar]


def triple_is_alternating(gamma: Trilinear) -> bool:
    """Exhaustive check gamma(e_s) = sign(s) gamma(sorted s) on basis triples."""
    e = [basis_vector(i) for i in range(7)]
    for i, j, k in combinations(range(7), 3):
        base = gamma(e[i], e[j], e[k])
        for perm, sign in _SIGNED_PERMS:
            a, b, c = (i, j, k)[perm[0]], (i, j, k)[perm[1]], (i, j, k)[perm[2]]
            expected = base if sign > 0 else -base
            if gamma(e[a], e[b], e[c]) != expected:
                return False
    # repeated arguments
    for i in range(7):
        for j in range(7):
            if gamma(e[i], e[i], e[j]) or gamma(e[i], e[j], e[j]) or gamma(e[i], e[j], e[i]):
                return False
    return True


def _perm_sign(p: tuple[int, ...]) -> int:
    sign = 1
    for a in range(len(p)):
        for b in range(a + 1, len(p)):
            if p[a] > p[b]:
                sign = -sign
    return sign


_SIGNED_PERMS = [(p, _perm_sign(p)) for p in permutations(range(3))]


def _wedge(f1: dict, f2: dict) -> dict:
    out: dict[tuple, Scalar] = {}
    for m1, c1 in f1.items():
        s1 = set(m1)
        for m2, c2 in f2.items():
            if s1 & set(m2):
                continue
            seq = m1 + m2
            merged = tuple(sorted(seq))
            coeff = c1 * c2
            if _perm_sign(seq) < 0:
                coeff = -coeff
            if merged in out:
                out[merged] = out[merged] + coeff
            else:
                out[merged] = coeff
    return {k: v for k, v in out.items() if v}


def induced_bilinear(gamma: Trilinear) -> Matrix:
    """Symmetric 7x7 matrix of the bilinear form induced by an alternating gamma.

    beta(u, v) is the coefficient of e1^...^e7 in
    -(1/3) * gamma(u,.,.) ^ gamma(v,.,.) ^ gamma.
    """
    if not triple_is_alternating(gamma):
        raise ValueError("gamma is not alternating")
    e = [basis_vector(i) for i in range(7)]
    gamma3 = {}
    for tri in combinations(range(7), 3):
        val = gamma(e[tri[0]], e[tri[1]], e[tri[2]])
        if val:
            gamma3[tri] = val

    def contract(u: Vec) -> dict:
        out: dict[tuple, Scalar] = {}
        for tri, cval in gamma3.items():
            for pos in range(3):
                coeff = u[tri[pos]]
                if not coeff:
                    continue
                rest = tuple(x for p, x in enumerate(tri) if p != pos)
                term = cval * coeff
                if pos == 1:
                    term = -term
                if rest in out:
                    out[rest] = out[rest] + term
                else:
                    out[rest] = term
        return {k: v for k, v in out.items() if v}

    top = tuple(range(7))
    third = Scalar.rational(-1, 3)
    contracted = [contract(e[i]) for i in range(7)]
    beta = Matrix.zeros(7, 7)
    for i in range(7):
        for j in range(7):
            seven = _wedge(_wedge(contracted[i], contracted[j]), gamma3)
            beta.rows[i][j] = third * seven.get(top, ZERO)
    # symmetry of the construction, asserted rather than imposed
    if beta != beta.transpose():
        raise AssertionError("induced form is not symmetric")
    return beta
