"""The cross-product algebra (R^7, x), its 3-form, and the octonions.

The table follows the cyclic convention, indices mod 7 (1-based in the
usual notation, 0-based here):

    e_i x e_{i+1} = e_{i+3},  e_{i+1} x e_{i+3} = e_i,  e_{i+3} x e_i = e_{i+1}.

Also turns an alternating trilinear form gamma into a symmetric bilinear
form: the coefficient of e1^...^e7 in -(1/3) * gamma(u,.,.) ^ gamma(v,.,.)
^ gamma, with the isomorphism from 7-forms to scalars fixed by
e1^...^e7 -> 1, read off as a signed sum over index splits.
"""

from __future__ import annotations

from itertools import combinations, product
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


def _sort_sign(s: tuple[int, ...]) -> int:
    """Sign of the permutation that sorts s; 0 when an index repeats."""
    if len(set(s)) < len(s):
        return 0
    return (-1) ** sum(x > y for x, y in combinations(s, 2))


def _basis_table(gamma: Trilinear) -> dict[tuple[int, int, int], Scalar] | None:
    """gamma on all 343 basis index triples s, or None unless every value is
    sign(s) gamma(sorted s), so that gamma is alternating."""
    e = [basis_vector(i) for i in range(7)]
    values = {s: gamma(e[s[0]], e[s[1]], e[s[2]])
              for s in product(range(7), repeat=3)}
    alternating = all(v == _sort_sign(s) * values[tuple(sorted(s))]
                      for s, v in values.items())
    return values if alternating else None


def triple_is_alternating(gamma: Trilinear) -> bool:
    """Exhaustive check gamma(e_s) = sign(s) gamma(sorted s) on basis triples."""
    return _basis_table(gamma) is not None


def induced_bilinear(gamma: Trilinear) -> Matrix:
    """Symmetric 7x7 matrix of the bilinear form induced by an alternating gamma.

    beta(u, v) is the coefficient of e1^...^e7 in
    -(1/3) * gamma(u,.,.) ^ gamma(v,.,.) ^ gamma.  As gamma(u,.,.) is the sum
    of gamma(u, a) e^a over pairs a0 < a1, beta(e_i, e_j) is -(1/3) times the
    sum of sign(a b c) gamma(e_i, a) gamma(e_j, b) gamma(c) over the splits of
    {1..7} into two pairs a, b and a triple c.
    """
    g = _basis_table(gamma)
    if g is None:
        raise ValueError("gamma is not alternating")
    sums = [[ZERO] * 7 for _ in range(7)]
    for c in combinations(range(7), 3):
        if not g[c]:
            continue
        rest = [x for x in range(7) if x not in c]
        for a in combinations(rest, 2):
            b = tuple(x for x in rest if x not in a)
            coeff = _sort_sign(a + b + c) * g[c]
            for i in range(7):
                gia = g[(i,) + a]
                if gia:
                    for j in range(7):
                        sums[i][j] = sums[i][j] + coeff * gia * g[(j,) + b]
    third = Scalar.rational(-1, 3)
    beta = Matrix([[third * x for x in row] for row in sums])
    # symmetry of the construction, asserted rather than imposed
    if beta != beta.transpose():
        raise AssertionError("induced form is not symmetric")
    return beta
