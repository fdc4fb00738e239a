"""The derivation algebra of (R^7, x) as concrete 7x7 matrices.

The algebra is constructed as the kernel of the linear system expressing
the Leibniz rule d(x cross y) = d(x) cross y + x cross d(y) on all 21
unordered basis pairs (a 147-equation system in the 49 matrix entries).
Skew-adjointness is not imposed; it emerges from the solve and is kept
as a verification.

Also houses the named operator families: the two-argument derivations
D(x, y) from the octonion formula written in cross products, the lambda/rho operators attached to
a frame, the Killing form, and normalizer/centralizer solves.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from typing import Sequence

from .cross7 import basis_vector, cross
from .linalg import (Matrix, Subspace, Vec, _accumulate, _nonzeros, combine,
                     dot, flat_commutator, kernel, vadd, vscale, vsub, zero_of)
from .lts import TripleSystem, lie_lts
from .scalar import ONE, ZERO, Scalar

__all__ = ["G2", "Frame", "derivation_algebra", "leibniz_rows", "d_operator",
           "lambda_operator", "rho_operator"]

_UNIT = tuple(tuple(int(r == c) for c in range(7)) for r in range(7))  # on ints


def leibniz_rows(pairs: Sequence[tuple[Vec, Vec]]) -> list[Vec]:
    """Rows of d(x cross y) = d(x) cross y + x cross d(y), 7 per pair (x, y),
    in the pairs' ring, as `cross`.

    The unknown is a 7x7 matrix d; entry (r, c) is flat index 7*r + c.
    """
    rows = []
    for x, y in pairs:
        target = cross(x, y)
        ey = [cross(e, y) for e in _UNIT]   # e_r x y
        xe = [cross(x, e) for e in _UNIT]   # x x e_r
        lx, ly = _nonzeros(x, 7), _nonzeros(y, 7)
        for m in range(7):
            # d(x cross y) - d(x) cross y - x cross d(y), component m
            row = [zero_of(x, y)] * 49
            row[7 * m:7 * m + 7] = target
            _accumulate(row, _nonzeros([v[m] for v in ey], 1), lx, 7, sub=True)
            _accumulate(row, _nonzeros([w[m] for w in xe], 1), ly, 7, sub=True)
            rows.append(row)
    return rows


class G2:
    """The 14-dimensional derivation algebra with cached structure data."""

    def __init__(self):
        pairs = [(_UNIT[i], _UNIT[j]) for i, j in combinations(range(7), 2)]
        self.space = kernel(leibniz_rows(pairs), 49)
        self.dim = self.space.dim
        self.basis = [Matrix.from_flat(row, 7, 7) for row in self.space.rows]
        # the nonzero entries (i, j, b[i][j]) of each integer basis row b
        self._terms = [[(k // 7, k % 7, x) for k, x in enumerate(row) if x]
                       for row in self.space.basis]

    # -- membership and coordinates -----------------------------------

    def contains(self, m: Matrix) -> bool:
        return self.space.contains(m.flatten())

    def coords(self, m: Matrix) -> Vec:
        c = self.space.coords(m.flatten())
        if c is None:
            raise ValueError("matrix is not a derivation of the cross product")
        return c

    def mat(self, coords: Sequence[Scalar]) -> Matrix:
        return Matrix.from_flat(combine(coords, self.space.rows), 7, 7)

    def pairing_row(self, s: Sequence[Scalar], t: Sequence[Scalar]) -> list:
        """[<b s, t> for each basis matrix b], the condition <d s, t> = 0 on d's
        coordinates, times the positive m of `Subspace.basis`; ints for ints."""
        return [sum(c * t[i] * s[j] for i, j, c in e) for e in self._terms]

    def subspace_from_matrices(self, mats: Sequence[Matrix]) -> Subspace:
        """Span of the given members, in basis coordinates."""
        return Subspace.span([self.coords(m) for m in mats], self.dim)

    # -- bracket structure ---------------------------------------------

    @cached_property
    def bracket_coords(self) -> list[list[Vec]]:
        """sc[i][j] = coordinates of [b_i, b_j], from m^2 [b_i, b_j] on ints."""
        n, rows, m = self.dim, self.space.basis, self.space.denominator
        sc = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i, j in combinations(range(n), 2):
            x = self.space.coords(flat_commutator(rows[i], rows[j], 7))
            if x is None:
                raise ValueError("a commutator of the basis leaves the algebra")
            sc[i][j] = [Scalar(t, 0, 0, 0, m * m) if t else ZERO for t in x]
            sc[j][i] = [-y for y in sc[i][j]]
        return sc

    @cached_property
    def lts(self) -> TripleSystem:
        """[[x, y], z] on basis coordinates, from the bracket constants."""
        return lie_lts(self.bracket_coords, "g2")

    @cached_property
    def killing_form(self) -> Matrix:
        """kappa(b_i, b_j) = tr(ad b_i ad b_j) on the adjoint representation."""
        sc, r = self.bracket_coords, range(self.dim)
        # entry (q, p) of ad b_i is sc[i][p][q]; tr(AB) = sum A_qp B_pq
        ad = [[sc[i][p][q] for q in r for p in r] for i in r]
        ad_t = [[sc[i][q][p] for q in r for p in r] for i in r]
        return Matrix._computed([[dot(a, b) for b in ad_t] for a in ad])

    @cached_property
    def trace_form(self) -> Matrix:
        """The 7-dimensional trace form tr(b_i b_j), kept alongside kappa."""
        flat_t = [b.transpose().flatten() for b in self.basis]
        return Matrix._computed([[dot(a, b) for b in flat_t]
                                 for a in self.space.rows])

    def killing(self, m1: Matrix, m2: Matrix) -> Scalar:
        return dot(self.coords(m1), self.killing_form.apply(self.coords(m2)))

    def killing_trace_ratio(self) -> Scalar:
        """Observed constant kappa / tr-form at (b_0, b_0), where
        tr(b_0 b_0) = -|b_0|^2 != 0 for the skew b_0; recorded, not asserted."""
        return self.killing_form.rows[0][0] / self.trace_form.rows[0][0]

    # -- normalizer / centralizer ---------------------------------------

    def normalizer(self, s: Subspace) -> Subspace:
        """{d : [d, s] <= s}, one linear solve in basis coordinates."""
        return self._stabilizer(s, s)

    def centralizer(self, s: Subspace) -> Subspace:
        """{d : [d, s] = 0}."""
        return self._stabilizer(s, Subspace.zero(self.dim))

    def _stabilizer(self, s: Subspace, target: Subspace) -> Subspace:
        """{d : [d, s] <= target}, on the coords of [b_t, r] for rows r of s."""
        self._check_subspace(s)
        sc = self.bracket_coords
        images = [[target.reduce(combine(r, sc[t])) for t in range(self.dim)]
                  for r in s.rows]
        return kernel([row for per_m in images for row in zip(*per_m)], self.dim)

    def _check_subspace(self, s: Subspace):
        if s.n != self.dim:
            raise ValueError("subspace must live in basis coordinates")


def derivation_algebra() -> G2:
    """A new algebra instance, its dimension checked; a run's `Workspace`
    builds one and shares it."""
    g2 = G2()
    if g2.dim != 14:
        raise AssertionError(f"derivation algebra has dimension {g2.dim}")
    return g2


def d_operator(x: Sequence[Scalar], y: Sequence[Scalar]) -> Matrix:
    """The derivation z -> [[x,y],z] + 3(x,z,y), bilinear in (x, y): the sum
    of x_a y_b D(e_a, e_b) over the 49 basis values (a = b included), each
    built once on integers (`_d_basis`)."""
    x, y = [Scalar.of(t) for t in x], [Scalar.of(t) for t in y]
    if len(x) != 7 or len(y) != 7:
        raise ValueError("D needs two vectors with 7 coordinates")
    out = [ZERO] * 49
    _accumulate(out, _nonzeros([a * b for a in x for b in y], 49), _d_basis(), 49)
    return Matrix._computed_flat(out, 7, 7)


@lru_cache(maxsize=1)
def _d_basis() -> tuple:
    """The `_nonzeros` listing of the 49 x 49 matrix whose row 7a + b is
    D(e_a, e_b) flattened.  On pure octonions [x, y] = 2 x cross y and the
    real parts of the associator cancel, so D(x, y)z = 4 (x cross y) cross z
    + 3 ((x cross z) cross y - x cross (z cross y) - <x, z> y + <y, z> x),
    here on integer unit vectors."""
    def d(a: int, b: int, c: int) -> list[int]:  # D(e_a, e_b) e_c
        x, y, z = _UNIT[a], _UNIT[b], _UNIT[c]
        return [4 * s + 3 * (t - u - (a == c) * yk + (b == c) * xk)
                for s, t, u, xk, yk in zip(
                    cross(cross(x, y), z), cross(cross(x, z), y),
                    cross(x, cross(z, y)), x, y)]
    flat = []
    for a in range(7):
        for b in range(7):
            columns = [d(a, b, c) for c in range(7)]
            flat += [Scalar.of(t) for row in zip(*columns) for t in row]
    return _nonzeros(flat, 49)


class Frame:
    """An orthonormal associative triple {i, j, k = i x j} plus a unit l
    orthogonal to it; carries the derived basis {i, j, k, l, ixl, jxl, kxl},
    whose matrix F of columns must satisfy F^t F = I."""

    __slots__ = ("i", "j", "k", "l", "vectors")

    def __init__(self, i: Sequence[Scalar], j: Sequence[Scalar],
                 l: Sequence[Scalar]):
        i = [Scalar.of(x) for x in i]
        j = [Scalar.of(x) for x in j]
        l = [Scalar.of(x) for x in l]
        k = cross(i, j)
        vectors = [i, j, k, l, cross(i, l), cross(j, l), cross(k, l)]
        ft = Matrix(vectors)
        if ft @ ft.transpose() != Matrix.identity(7):
            raise ValueError("frame is not orthonormal")
        self.i, self.j, self.k, self.l = i, j, k, l
        self.vectors = vectors

    @classmethod
    def standard(cls) -> "Frame":
        """The desk frame i = e1, j = e2, l = e3 (so k = e4)."""
        return cls(basis_vector(0), basis_vector(1), basis_vector(2))

    def matrix(self) -> Matrix:
        """Columns are the frame basis; orthonormal, so inverse = transpose."""
        return Matrix.from_columns(self.vectors)

    def in_v(self, a: Sequence[Scalar]) -> bool:
        span = Subspace.span([self.i, self.j, self.k], 7)
        return span.contains(list(a))


def _operator_from_images(frame: Frame, images: list[Vec]) -> Matrix:
    f = frame.matrix()
    im = Matrix.from_columns(images)
    return im @ f.transpose()


def lambda_operator(a: Sequence[Scalar], frame: Frame) -> Matrix:
    """lambda_a: kills V, l -> a x l, v x l -> (a x v) x l - <v,a> l."""
    a = [Scalar.of(x) for x in a]
    if not frame.in_v(a):
        raise ValueError("lambda argument must lie in the associative triple")
    zero = [ZERO] * 7
    images = [list(zero), list(zero), list(zero), cross(a, frame.l)]
    for v in (frame.i, frame.j, frame.k):
        images.append(vsub(cross(cross(a, v), frame.l),
                           vscale(dot(v, a), frame.l)))
    return _operator_from_images(frame, images)


def rho_operator(a: Sequence[Scalar], frame: Frame) -> Matrix:
    """rho_a: v -> 2 a x v, l -> -a x l, v x l -> (a x v) x l + <v,a> l."""
    a = [Scalar.of(x) for x in a]
    if not frame.in_v(a):
        raise ValueError("rho argument must lie in the associative triple")
    two = Scalar.of(2)
    images = [vscale(two, cross(a, v)) for v in (frame.i, frame.j, frame.k)]
    images.append(vscale(-ONE, cross(a, frame.l)))
    for v in (frame.i, frame.j, frame.k):
        images.append(vadd(cross(cross(a, v), frame.l),
                           vscale(dot(v, a), frame.l)))
    return _operator_from_images(frame, images)
