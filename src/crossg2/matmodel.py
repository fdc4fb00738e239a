"""Projection model of the 8-dimensional symmetric space and the 3x3 models.

The rank-3 symmetric idempotents of R^7 form the Grassmannian; those whose
fixed space is an associative subalgebra form the submanifold studied here.
Tangent spaces are obtained by solving the linearised constraint systems
exactly.  A tangent element restricted to the fixed space V0 is recorded as
a 3x4 row matrix over the bases {i, j, k} of V0 and {v0..v3} of the
complement; dropping the first column identifies the eight-dimensional
tangent triple system with traceless 3x3 matrices carrying the twisted
product {m1,m2,m3} = [m1,m2,m3] + gamma(m1,m2,m3).
"""

from __future__ import annotations

from functools import partial
from itertools import product
from typing import Callable, Sequence

from .catalog import Grading
from .cross7 import basis_vector, cross
from .g2alg import G2, Frame, leibniz_rows
from .linalg import (Matrix, Subspace, Vec, _accumulate, _nonzeros, combine,
                     dot, flat_product, is_positive_definite, kernel,
                     projection_matrix, solve, zero_of)
from .lts import GL7, FlatOperator, LtsCarrier, TripleSystem
from .scalar import ONE, ZERO, Scalar

__all__ = [
    "Projection", "projection_onto", "in_ms_prime", "gr3_tangent",
    "ms_tangent", "row_matrix", "from_row_matrix", "matches_template",
    "skew_triple", "m34_triple", "M34", "m34_template_basis", "LiftMap",
    "alpha", "sl3_triple", "to_sl3", "from_sl3", "metric", "d_st",
    "SL3", "sl3_catalog", "curvature_check",
    "metric_gram_is_positive_definite",
]


# matrix units E_rc (0-based) of the 3x3 and 3x4 models
_e33 = partial(Matrix.unit, 3, 3)
_e34 = partial(Matrix.unit, 3, 4)


class Projection:
    """A symmetric idempotent 7x7 matrix of trace 3."""

    __slots__ = ("mat",)

    def __init__(self, mat: Matrix):
        if mat.shape != (7, 7):
            raise ValueError("projection must be 7x7")
        if mat @ mat != mat:
            raise ValueError("matrix is not idempotent")
        if mat != mat.transpose():
            raise ValueError("matrix is not symmetric")
        if mat.trace() != Scalar.of(3):
            raise ValueError("trace must be exactly 3")
        self.mat = mat

    def complement_map(self) -> Matrix:
        return Matrix.identity(7) - self.mat

    def fixed_space(self) -> Subspace:
        return kernel((self.mat - Matrix.identity(7)).rows, 7)

    def kernel_space(self) -> Subspace:
        return kernel(self.mat.rows, 7)


def projection_onto(space: Subspace) -> Projection:
    """Orthogonal projection onto a 3-dimensional subspace, exact."""
    return Projection(projection_matrix(space))


def in_ms_prime(p: Projection) -> bool:
    """Whether the trilinear form vanishes on (im P, im P, ker P)."""
    e = [basis_vector(i) for i in range(7)]
    pc = p.complement_map()
    px = [p.mat.apply(v) for v in e]
    qx = [pc.apply(v) for v in e]
    for a, b in product(px, repeat=2):
        ab = cross(a, b)
        if any(dot(ab, q) for q in qx):
            return False
    return True


def _gr3_rows(p: Projection) -> list[Vec]:
    """Linearised constraints: dP + Pd = d and d symmetric (trace is implied)."""
    pm = p.mat
    rows: list[Vec] = []
    for m in range(7):
        for c in range(7):
            row = [ZERO] * 49
            for k in range(7):
                row[7 * m + k] = row[7 * m + k] + pm.rows[k][c]
                row[7 * k + c] = row[7 * k + c] + pm.rows[m][k]
            row[7 * m + c] = row[7 * m + c] - ONE
            rows.append(row)
    for r in range(7):
        for c in range(r + 1, 7):
            row = [ZERO] * 49
            row[7 * r + c] = ONE
            row[7 * c + r] = -ONE
            rows.append(row)
    return rows


def gr3_tangent(p: Projection) -> Subspace:
    """12-dimensional tangent space at p, flattened to R^49."""
    return kernel(_gr3_rows(p), 49)


def ms_tangent(p: Projection, frame: Frame) -> Subspace:
    """8-dimensional tangent space of the associative locus at p.

    Adds to the Grassmannian constraints the Leibniz rule on the pairs of
    the fixed-space frame {i, j, k}.
    """
    fixed = p.fixed_space()
    for f in (frame.i, frame.j, frame.k):
        if not fixed.contains(f):
            raise ValueError("frame does not span the fixed space of p")
    pairs = ((frame.i, frame.j), (frame.i, frame.k), (frame.j, frame.k))
    return kernel(_gr3_rows(p) + leibniz_rows(pairs), 49)


def row_matrix(d: Matrix, frame: Frame) -> Matrix:
    """3x4 coordinates of d restricted to V0: entry (r, c) = <d f_r, v_c>,
    v0..v3 = l, i x l, j x l, k x l = frame.vectors[3:]."""
    vs = frame.vectors[3:]
    out = []
    for f in (frame.i, frame.j, frame.k):
        img = d.apply(f)
        out.append([dot(img, v) for v in vs])
    return Matrix(out)


def from_row_matrix(rm: Matrix, frame: Frame) -> Matrix:
    """The self-adjoint odd extension of the row-matrix data."""
    if rm.shape != (3, 4):
        raise ValueError("row matrix must be 3x4")
    vs = frame.vectors[3:]
    fs = [frame.i, frame.j, frame.k]
    out = Matrix.zeros(7, 7)
    for r in range(3):
        for c in range(4):
            coeff = rm.rows[r][c]
            if not coeff:
                continue
            for a in range(7):
                for b in range(7):
                    term = coeff * (vs[c][a] * fs[r][b] + fs[r][a] * vs[c][b])
                    if term:
                        out.rows[a][b] = out.rows[a][b] + term
    return out


def matches_template(rm: Matrix) -> bool:
    """Third row must be (a2-b1, a3+b0, b3-a0, -a1-b2) of the first two."""
    a = rm.rows[0]
    b = rm.rows[1]
    expected = [a[2] - b[1], a[3] + b[0], b[3] - a[0], -a[1] - b[2]]
    return rm.rows[2] == expected


def _operator(x: Vec, y: Vec, n: int, m: int,
              twisted: bool = False) -> Callable[[Vec], Vec]:
    """z -> [x, y, z] on n x m matrices flattened row by row, in their ring.

    The skew triple x y^t z - y x^t z + z y^t x - z x^t y is L z + z R, with
    L = x y^t - y x^t and R = y^t x - x^t y.  The twisted 3x3 product adds
    G z + alpha(z) w^t, where (a for alpha) G = a_x a_y^t - a_y a_x^t joins L
    and w^t = a_y^t x - a_x^t y.  L, R and w^t are formed and listed once per
    (x, y); each z, and alpha(z) for the twist, is listed once.
    """
    if len(x) != n * m or len(y) != n * m:
        raise ValueError(f"arguments must be {n} x {m} matrices, flattened")
    if twisted and (n, m) != (3, 3):
        raise ValueError("the twisted product is on 3x3 matrices")
    yt, zero = [y[i * m + j] for j in range(m) for i in range(n)], zero_of(x, y)
    left, right, w = [zero] * (n * n), [zero] * (m * m), [zero] * 3
    flat_product(left, x, yt, m, n)              # x y^t
    flat_product(right, yt, x, n, m)             # y^t x
    if twisted:
        ax, ay = _alpha(x), _alpha(y)
        flat_product(left, ax, ay, 1, 3)         # a_x a_y^t
        flat_product(w, ay, x, 3, 3)
        flat_product(w, [-a for a in ax], y, 3, 3)
    # L = X - X^t for X = x y^t (+ a_x a_y^t), R = Y - Y^t for Y = y^t x
    left = _nonzeros([left[i * n + j] - left[j * n + i]
                      for i in range(n) for j in range(n)], n)
    right = _nonzeros([right[i * m + j] - right[j * m + i]
                       for i in range(m) for j in range(m)], m)
    wt = _nonzeros(w, 3)

    def apply(z: Vec) -> Vec:
        if len(z) != n * m:
            raise ValueError(f"argument must be a {n} x {m} matrix, flattened")
        out, lz = [zero if type(z[0]) is int else ZERO] * (n * m), _nonzeros(z, m)
        _accumulate(out, left, lz, m)
        _accumulate(out, lz, right, m)
        if twisted:
            _accumulate(out, _nonzeros(_alpha(z), 1), wt, 3)
        return out
    return apply


def _triple(a: Matrix, b: Matrix, c: Matrix, twisted: bool = False) -> Matrix:
    if not a.shape == b.shape == c.shape:
        raise ValueError(f"shapes {a.shape}, {b.shape}, {c.shape} differ")
    n, m = a.shape
    op = _operator(a.flatten(), b.flatten(), n, m, twisted)
    return Matrix._computed_flat(op(c.flatten()), n, m)


def skew_triple(a: Matrix, b: Matrix, c: Matrix) -> Matrix:
    """a b^t c - b a^t c + c b^t a - c a^t b."""
    return _triple(a, b, c)


def m34_triple(a: Matrix, b: Matrix, c: Matrix) -> Matrix:
    """The skew triple on 3x4 blocks."""
    if not a.shape == b.shape == c.shape == (3, 4):
        raise ValueError("arguments must be 3x4")
    return skew_triple(a, b, c)


M34 = TripleSystem("m34", 12, lambda x, y: _operator(x, y, 3, 4), on_ints=True)


def m34_template_basis() -> list[Matrix]:
    """The eight block matrices spanning the template space."""
    e = _e34
    return [
        e(0, 0) - e(2, 2), e(0, 1) - e(2, 3),
        e(0, 2) + e(2, 0), e(0, 3) + e(2, 1),
        e(1, 0) + e(2, 1), e(1, 1) - e(2, 0),
        e(1, 2) - e(2, 3), e(1, 3) + e(2, 2),
    ]


class LiftMap:
    """The linear bijection from tangent elements to odd derivations.

    A tangent element d determines a unique odd derivation agreeing with it
    on V0.  The bijection intertwines the two triple products up to the
    global sign -1; the `matmodel.lift` check verifies that sign on every
    basis triple of `lifted`.

    `triples[x][y][z]` holds the coordinates of [[d_x, d_y], d_z] on the
    tangent basis `basis`, computed once; building them certifies that the
    tangent space is closed under the triple product.  The image of such a
    triple under any linear map is the same combination of the basis images.
    """

    def __init__(self, split: Grading, frame: Frame, g2: G2):
        self.g2 = g2
        self.frame = frame
        v, odd = split.v, split.odd
        self.m4v_mats = [g2.mat(r) for r in odd.rows]
        self.m4v_space = odd
        p = projection_onto(v.space)
        self.tangent = ms_tangent(p, frame)
        if self.tangent.dim != 8:
            raise AssertionError("tangent space does not have dimension 8")
        # columns of the solve: values of the odd basis on the frame of V0
        sysrows = []
        for f in (frame.i, frame.j, frame.k):
            images = [m.apply(f) for m in self.m4v_mats]
            for comp in range(7):
                sysrows.append([img[comp] for img in images])
        if kernel(sysrows, len(self.m4v_mats)).dim != 0:
            raise AssertionError("odd derivations are not determined by V0 values")
        self._sysrows = sysrows
        self.basis = [Matrix._computed_flat(r, 7, 7) for r in self.tangent.rows]
        self.triples = LtsCarrier(GL7, self.tangent, "tangent").struct()
        self.lifted = [self.lift(m) for m in self.basis]
        lift_coords = [g2.coords(m) for m in self.lifted]
        if Subspace.span(lift_coords, g2.dim) != odd:
            raise AssertionError("lift image does not fill the odd part")

    def lift(self, d: Matrix) -> Matrix:
        rhs = []
        for f in (self.frame.i, self.frame.j, self.frame.k):
            rhs.extend(d.apply(f))
        x = solve(self._sysrows, rhs)
        if x is None:
            raise ValueError("element does not lift to an odd derivation")
        out = self.g2.mat(combine(x, self.m4v_space.rows))
        for f in (self.frame.i, self.frame.j, self.frame.k):
            if out.apply(f) != d.apply(f):
                raise AssertionError("lift does not restrict correctly")
        return out

    def triple_images(self, images: Sequence[Matrix], operator: FlatOperator):
        """Yield (x, y, z, f([[d_x, d_y], d_z]), [f d_x, f d_y, f d_z]) over
        all basis triples, both flattened, for the linear map f that sends
        basis[i] to images[i] and the triple product whose flat operator is
        given; [f d_x, f d_y, .] is formed once per (x, y)."""
        flat = [m.flatten() for m in images]
        for x, y in product(range(8), repeat=2):
            op = operator(flat[x], flat[y])
            for z in range(8):
                yield x, y, z, combine(self.triples[x][y][z], flat), op(flat[z])


def alpha(m: Matrix) -> Vec:
    """Antisymmetric-part extraction (a23-a32, a31-a13, a12-a21)."""
    if m.shape != (3, 3):
        raise ValueError("alpha expects a 3x3 matrix")
    return _alpha(m.flatten())


def _alpha(f: Vec) -> Vec:
    """alpha of a 3x3 matrix flattened row by row."""
    return [f[5] - f[7], f[6] - f[2], f[1] - f[3]]


def _sl3_triple_raw(m1: Matrix, m2: Matrix, m3: Matrix) -> Matrix:
    return _triple(m1, m2, m3, twisted=True)


def sl3_triple(m1: Matrix, m2: Matrix, m3: Matrix) -> Matrix:
    """{m1, m2, m3} on traceless 3x3 matrices; tracelessness is enforced."""
    for m in (m1, m2, m3):
        if m.shape != (3, 3):
            raise ValueError("arguments must be 3x3")
        if m.trace():
            raise ValueError("arguments must be traceless")
    out = _sl3_triple_raw(m1, m2, m3)
    if out.trace():
        raise AssertionError("triple product left the traceless space")
    return out


def to_sl3(rm: Matrix) -> Matrix:
    """Forget the first column of a template row matrix."""
    if rm.shape != (3, 4):
        raise ValueError("expected a 3x4 row matrix")
    if not matches_template(rm):
        raise ValueError("row matrix does not satisfy the template relations")
    return Matrix([r[1:] for r in rm.rows])


def from_sl3(m: Matrix) -> Matrix:
    """Inverse of to_sl3: prepend the alpha column."""
    a = alpha(m)
    return Matrix([[a[r]] + list(m.rows[r]) for r in range(3)])


def metric(m1: Matrix, m2: Matrix) -> Scalar:
    """alpha(m1).alpha(m2) + tr(m1 m2^t)."""
    return dot(alpha(m1), alpha(m2)) + (m1 @ m2.transpose()).trace()


def d_st(s: Scalar | int, t: Scalar | int) -> Matrix:
    """The two-parameter family spanning the 2-dimensional subsystem."""
    s = Scalar.of(s)
    t = Scalar.of(t)
    r15_3 = Scalar(0, 0, 0, 1, 3)  # sqrt(15)/3 = sqrt(5/3)
    m2 = Scalar.of(-2)
    return Matrix([
        [m2 * s, ZERO, ZERO],
        [-r15_3 * t, s, t],
        [r15_3 * s, -t, s],
    ])


SL3 = TripleSystem("sl3-twisted", 9, lambda x, y: _operator(x, y, 3, 3, twisted=True),
                  on_ints=True)


def sl3_catalog(kind: str) -> LtsCarrier:
    """A carrier of the twisted product, closure certified: "full" is all
    traceless 3x3 matrices; the others are the 3x3 partners of the families
    in `catalog.FAMILIES`, plus refl4's metric orthocomplement gotro."""
    e = _e33
    # spans are formed on request and call d_st through the module, so a
    # wrapper bound to matmodel.d_st sees every call
    spans = {
        "full": lambda: [e(0, 0) - e(1, 1), e(1, 1) - e(2, 2)]
                        + [e(r, c) for r in range(3) for c in range(3) if r != c],
        "sphere": lambda: [d_st(1, 0), d_st(0, 1)],
        "sym5": lambda: [e(0, 0) - e(1, 1), e(1, 1) - e(2, 2), e(0, 1) + e(1, 0),
                         e(0, 2) + e(2, 0), e(1, 2) + e(2, 1)],
        # first row zero: rows (0,0,0), (b1,b2,b3), (b0,b3,-b2)
        "col4": lambda: [e(2, 0), e(1, 0), e(1, 1) - e(2, 2), e(1, 2) + e(2, 1)],
        # diag-plus-lower-block family (s1, 0, 0; 0, s2, s3; 0, s4, -s1-s2)
        "refl4": lambda: [e(0, 0) - e(2, 2), e(1, 1) - e(2, 2), e(1, 2), e(2, 1)],
        "gotro": lambda: [e(0, 1), e(0, 2), e(1, 0), e(2, 0)],
    }
    if kind not in spans:
        raise ValueError(f"unknown catalogue kind {kind!r}")
    carrier = LtsCarrier(SL3, Subspace.span(
        [m.flatten() for m in spans[kind]()], 9), kind)
    carrier.constants  # closure certificate
    return carrier


def curvature_check(grid_range: int = 2) -> dict:
    """Exact verification of the sphere-family identities on an integer grid.

    For all s_i, t_i in {-grid_range..grid_range}:
      {d_{s1,t1}, d_{s2,t2}, d_{s3,t3}} = (2/3)(s1 t2 - s2 t1) d_{t3,-s3}
      <d1,d3> d2 - <d2,d3> d1 = -(28/3)(s1 t2 - s2 t1) d_{t3,-s3}
    With R = -{.,.,.} the curvature-form ratio is (-2/3)/(-28/3) = 1/14.

    On D = 3 d_st (metric 9<d, d'>) the right sides are 6c D_{t3,-s3} and
    -84c D_{t3,-s3}, c = s1 t2 - s2 t1.  Integer arrays evaluate every point,
    one m1 at a time over all (m2, m3); the first failing point is the witness.
    """
    from ._intops import _INT64_LIMIT, clear_integral, qproduct
    rng = range(-grid_range, grid_range + 1)
    points = [(s, t) for s in rng for t in rng]
    mats = [d_st(s, t).scale(Scalar.of(3)) for s, t in points]
    da = clear_integral([m.rows + [alpha(m)] for m in mats])  # [P, 4, 3, w]
    d, a = da[:, :3], da[:, 3]             # one width: y adds d and a terms
    g = clear_integral([[metric(x, y) for y in mats] for x in mats])
    c = clear_integral([[Scalar.of(s1 * t2 - s2 * t1) for s2, t2 in points]
                        for s1, t1 in points])              # [P, P, 1]
    # M bounds |entries| of d, a, g, c.  A qproduct component is at most
    # 60 M^2 per contracted index (4 table rows, coefficients <= 15): y
    # reaches 240 M^2, z 180 M^2, v 360 M^2, the triple 180 (480 + 360) M^3
    # + 60 * 360 M^3 < 2^18 M^3, the metric side and targets 84 * 60 M^2.
    m = max(int(abs(x).max()) for x in (d, a, g, c))
    dtype = "int64" if 2 ** 18 * m ** 3 < _INT64_LIMIT else object
    d, a, g, c = (x.astype(dtype) for x in (d, a, g, c))
    target = d[[points.index((t, -s)) for s, t in points]]  # D_{t3,-s3}
    for i in range(len(points)):
        y = (qproduct(d[i], d, "ab,jcb->jac")               # m1 m2^t
             + qproduct(a[i], a, "r,jc->jrc"))              # + a1 a2^t
        z = qproduct(d, d[i], "jba,bc->jac")                # m2^t m1
        v = qproduct(a, d[i], "jb,bc->jc") - qproduct(a[i], d, "b,jbc->jc")
        trip = (qproduct(y - y.swapaxes(1, 2), d, "jab,kbc->jkac")
                + qproduct(d, z - z.swapaxes(1, 2), "kab,jbc->jkac")
                + qproduct(a, v, "ka,jc->jkac"))          # [m2, m3, 3, 3, w]
        lhs = (qproduct(g[i], d, "k,jab->jkab")
               - qproduct(g, d[i], "jk,ab->jkab"))
        rhs = qproduct(c[i], target, "j,kab->jkab")
        triple_ok = (trip == 6 * rhs).all(axis=(2, 3, 4))
        metric_ok = (lhs == -84 * rhs).all(axis=(2, 3, 4))
        if not (both := triple_ok & metric_ok).all():
            j, k = divmod(int(both.argmin()), len(points))
            return {"triple_coefficient_ok": bool(triple_ok[j, k]),
                    "metric_identity_ok": bool(metric_ok[j, k]),
                    "witness": points[i] + points[j] + points[k]}
    ratio = Scalar.rational(-2, 3) / Scalar.rational(-28, 3)
    return {"triple_coefficient_ok": True, "metric_identity_ok": True,
            "curvature_over_metric_form": ratio}


def metric_gram_is_positive_definite(mats: Sequence[Matrix]) -> bool:
    """The Gram matrix of the metric on mats is positive definite."""
    return is_positive_definite(Matrix([[metric(a, b) for b in mats]
                                        for a in mats]))
