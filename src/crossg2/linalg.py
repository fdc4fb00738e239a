"""Exact dense linear algebra over Scalar for small dimensions (<= 49).

Provides vectors (plain lists of Scalar), a Matrix class, one product of
matrices flattened row by row (for @, the commutator and the triple
operators; each operand's nonzeros are listed once), one reduced row
echelon form (on cleared integers for rational input, else by inserting
rows one at a time), kernels, characteristic polynomials, and a Subspace
type whose canonical RREF makes subspace equality a plain comparison.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, lcm
from typing import Iterable, Sequence

from .scalar import ONE, ZERO, Scalar

__all__ = [
    "Matrix", "Subspace", "dot", "vadd", "vsub", "vscale", "combine",
    "is_zero_vec", "rref", "kernel", "rank", "char_poly",
    "solve", "inverse", "projection_matrix",
    "is_positive_definite", "flat_commutator", "cleared", "zero_of",
]

Vec = list[Scalar]


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def vadd(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vec:
    return [a + b for a, b in zip(u, v)]


def vsub(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vec:
    return [a - b for a, b in zip(u, v)]


def vscale(c: Scalar, u: Sequence[Scalar]) -> Vec:
    return [c * a for a in u]


def combine(coeffs: Sequence[Scalar], vectors: Sequence[Sequence[Scalar]]) -> Vec:
    """The linear combination sum_i coeffs[i] * vectors[i] of equal-length
    vectors (at least one); zero coefficients and entries are skipped."""
    out = [ZERO] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            out = [x + c * y if y else x for x, y in zip(out, v)]
    return out


def is_zero_vec(u: Sequence[Scalar]) -> bool:
    return not any(u)


def cleared(u: Sequence[Scalar]) -> list[int] | None:
    """u times the lcm of its denominators, as ints (a copy if all are Python
    ints; entries coerced as Matrix does); None if u is irrational."""
    if all(type(x) is int for x in u):
        return list(u)
    u = [x if type(x) is Scalar else Scalar.of(x) for x in u]
    if any(x.nb or x.nc or x.nd for x in u):
        return None
    m = lcm(*[x.q for x in u])
    return [x.na * (m // x.q) for x in u]


def zero_of(*vectors: Sequence) -> Scalar | int:
    """The zero of the operands' ring: 0 if each starts with a Python int."""
    return ZERO if [v for v in vectors if not v or type(v[0]) is not int] else 0


class Matrix:
    """Dense matrix of Scalars, column-action convention (M @ column)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        self.rows = [[Scalar.of(x) for x in r] for r in rows]
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def _computed(cls, rows: list[Vec]) -> "Matrix":
        """A matrix on rows of Scalars just computed: no coercion or check."""
        out = cls.__new__(cls)
        out.rows = rows
        return out

    @classmethod
    def _computed_flat(cls, flat: Vec, n: int, m: int) -> "Matrix":
        """The n x m matrix on a just computed flat row-by-row list."""
        return cls._computed([flat[i * m:(i + 1) * m] for i in range(n)])

    @classmethod
    def zeros(cls, n: int, m: int) -> "Matrix":
        return cls._computed([[ZERO] * m for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n: int, m: int, r: int, c: int) -> "Matrix":
        """The n x m matrix unit E_rc (0-based): one 1 at (r, c)."""
        out = cls.zeros(n, m)
        out.rows[r][c] = ONE
        return out

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Scalar]]) -> "Matrix":
        return cls([[col[i] for col in cols] for i in range(len(cols[0]))])

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __add__(self, o: "Matrix") -> "Matrix":
        if self.shape != o.shape:
            raise ValueError(f"shape mismatch {self.shape} + {o.shape}")
        return Matrix._computed([vadd(a, b) for a, b in zip(self.rows, o.rows)])

    def __sub__(self, o: "Matrix") -> "Matrix":
        if self.shape != o.shape:
            raise ValueError(f"shape mismatch {self.shape} - {o.shape}")
        return Matrix._computed([vsub(a, b) for a, b in zip(self.rows, o.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix._computed([[-x for x in r] for r in self.rows])

    def scale(self, c) -> "Matrix":
        c = Scalar.of(c)
        return Matrix._computed([[c * x for x in r] for r in self.rows])

    def __matmul__(self, o: "Matrix") -> "Matrix":
        n, k = self.shape
        k2, m = o.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {o.shape}")
        out = [ZERO] * (n * m)
        flat_product(out, self.flatten(), o.flatten(), k, m)
        return Matrix._computed_flat(out, n, m)

    def apply(self, v: Sequence[Scalar]) -> Vec:
        n, m = self.shape
        if len(v) != m:
            raise ValueError("vector length mismatch")
        return [dot(r, v) for r in self.rows]

    def transpose(self) -> "Matrix":
        return Matrix._computed([list(col) for col in zip(*self.rows)])

    def trace(self) -> Scalar:
        acc = ZERO
        for i, r in enumerate(self.rows):
            acc = acc + r[i]
        return acc

    def flatten(self) -> Vec:
        return [x for r in self.rows for x in r]

    @classmethod
    def from_flat(cls, flat: Sequence[Scalar], n: int, m: int) -> "Matrix":
        if len(flat) != n * m:
            raise ValueError(f"{len(flat)} entries do not fill a {n} x {m} matrix")
        return cls([list(flat[i * m:(i + 1) * m]) for i in range(n)])

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def __eq__(self, o) -> bool:
        return isinstance(o, Matrix) and self.rows == o.rows

    def __repr__(self):
        return "Matrix([" + ",\n        ".join(
            "[" + ", ".join(str(x) for x in r) + "]" for r in self.rows) + "])"


def _nonzeros(a: Sequence[Scalar], m: int) -> tuple:
    """The nonzero (column, value) pairs of each row of a, with m columns,
    as (pairs, int pairs, q): the int pairs are the values times their common
    denominator q if all are rational Scalars, else None (Python ints are
    multiplied as they are, in `_accumulate`'s generic loop)."""
    rows = [[] for _ in range(0, len(a), m or 1)]
    q, rational = 1, not (a and type(a[0]) is int)
    for ij, x in enumerate(a):
        if x:
            rows[ij // m].append((ij % m, x))
            if rational:
                if x.nb or x.nc or x.nd:
                    rational = False
                elif q % x.q:
                    q = lcm(q, x.q)
    ints = [[(c, x.na * (q // x.q)) for c, x in row]
            for row in rows] if rational else None
    return rows, ints, q


def _accumulate(out: Vec, a: tuple, b: tuple, m: int, sub: bool = False) -> None:
    """Add (with sub, subtract) the product of two `_nonzeros` listings to
    out, a flat matrix with m columns: a[i][r] * b[r][j] goes to i * m + j.
    Two rational listings multiply on ints, one Scalar per touched entry."""
    if a[1] is None or b[1] is None:
        bs = b[0]
        for i, row in enumerate(a[0]):
            for r, x in row:
                for j, y in bs[r]:
                    ij = i * m + j
                    out[ij] = out[ij] - x * y if sub else out[ij] + x * y
        return
    acc, bi = {}, b[1]
    for i, row in enumerate(a[1]):
        for r, x in row:
            for j, y in bi[r]:
                ij = i * m + j
                acc[ij] = acc.get(ij, 0) + x * y
    q = a[2] * b[2]
    for ij, t in acc.items():
        if t:
            out[ij] = out[ij] + Scalar(-t if sub else t, 0, 0, 0, q)


def flat_product(out: Vec, a: Sequence[Scalar], b: Sequence[Scalar],
                 k: int, m: int) -> None:
    """Add a @ b to out, all flattened row by row, for a with k columns and b
    with m; each operand's nonzeros are listed once and only they multiply."""
    if m:  # else out is empty
        _accumulate(out, _nonzeros(a, k), _nonzeros(b, m), m)


def flat_commutator(a: Sequence[Scalar], b: Sequence[Scalar], n: int) -> Vec:
    """ab - ba on n x n matrices flattened row by row, in the operands' ring."""
    if len(a) != n * n or len(b) != n * n:
        raise ValueError(f"commutator of {len(a)} and {len(b)} entries in gl({n})")
    out, la, lb = [zero_of(a, b)] * (n * n), _nonzeros(a, n), _nonzeros(b, n)
    _accumulate(out, la, lb, n)
    _accumulate(out, lb, la, n, sub=True)
    return out


def commutator(a: Matrix, b: Matrix) -> Matrix:
    n = a.shape[0]
    if a.shape != b.shape or a.shape != (n, n):
        raise ValueError(f"commutator of shapes {a.shape} and {b.shape}")
    return Matrix._computed_flat(flat_commutator(a.flatten(), b.flatten(), n),
                                 n, n)


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Entries may be Scalar, int or Fraction; they are coerced as Matrix does.
    All-rational input is eliminated on cleared integers, anything else by
    row insertion; the RREF is unique, so both give the same result.
    Ragged rows raise ValueError.
    """
    if len({len(r) for r in rows}) > 1:
        raise ValueError("ragged rows")
    ints = [cleared(r) for r in rows]
    if None in ints:
        return _insertion_rref([[Scalar.of(x) for x in r] for r in rows])
    done, pivots = _int_rref(ints)
    # only now divide by the pivots, for the canonical Scalar rows
    return [[Scalar(x, 0, 0, 0, r[c]) if x else ZERO for x in r]
            for r, c in zip(done, pivots)], pivots


def _int_rref(ints: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan: each row is a canonical row times its pivot."""
    pending = [r for r in ints if any(r)]
    done, pivots = [], []
    for c in range(len(ints[0]) if ints else 0):
        k = next((k for k, r in enumerate(pending) if r[c]), None)
        if k is not None:
            top = pending.pop(k)
            done = [_eliminate(r, top, c) for r in done] + [top]
            pending = [r for r in pending if any(_eliminate(r, top, c))]
            pivots.append(c)
    return done, pivots


def _eliminate(r: list[int], top: list[int], c: int) -> list[int]:
    """r := top[c]*r - r[c]*top over the gcd of its entries, zero at c."""
    f = r[c]
    if f:
        g = gcd(top[c], f)
        p, f = top[c] // g, f // g
        r[:] = [p * x - f * y if y else p * x for x, y in zip(r, top)]
        g = gcd(*r)
        if g > 1:
            r[:] = [x // g for x in r]
    return r


def _insertion_rref(rows: Sequence[Vec]) -> tuple[list[Vec], list[int]]:
    """RREF over the field, adding each row in turn."""
    out = Subspace.zero(len(rows[0]) if rows else 0)
    for r in rows:
        out.add(r)
    return out.rows, out.pivots


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(rref(rows)[0])


def kernel(rows: Sequence[Sequence[Scalar]], ncols: int | None = None) -> "Subspace":
    """Canonical basis of {x : A x = 0} for A given by rows of ncols entries."""
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty system")
        ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"rows must have {ncols} entries")
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return Subspace.span(basis, ncols)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by row reduction of (M | I)."""
    n, n2 = m.shape
    if n != n2:
        raise ValueError("inverse of a non-square matrix")
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)]
           for i, r in enumerate(m.rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix([r[n:] for r in red[:n]])


def solve(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> Vec | None:
    """One solution of A x = rhs, or None if inconsistent."""
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} rows")
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0])
    sol = [ZERO] * ncols
    for r, pc in zip(red, pivots):
        if pc == ncols:
            return None
        sol[pc] = r[ncols]
    return sol


class Subspace:
    """Subspace of Scalar^n held as canonical RREF rows.

    Canonicalisation makes equality of subspaces equality of
    representations.  The constructor stores rows that are already in
    canonical form; `span` and `add` are what reduce.
    """

    __slots__ = ("n", "rows", "pivots", "_basis", "_listed")

    def __init__(self, n: int, rows: list[Vec], pivots: list[int]):
        self.n = n
        self.rows = rows
        self.pivots = pivots
        self._basis = self._listed = None

    @classmethod
    def span(cls, vectors: Sequence[Sequence[Scalar]], n: int) -> "Subspace":
        for v in vectors:
            if len(v) != n:
                raise ValueError("ambient dimension mismatch")
        rows, pivots = rref(vectors)
        return cls(n, rows, pivots)

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, [], [])

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls.span([[ONE if i == j else ZERO for j in range(n)]
                         for i in range(n)], n)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> list:
        """The canonical rows times one common denominator m, as ints (m at
        every pivot, listed once for `contains`), or the rows themselves if an
        entry is irrational; kept until `add` grows the space."""
        if self._basis is None:
            flat, n = cleared([x for r in self.rows for x in r]), self.n
            self._basis = self.rows if flat is None else [
                flat[p * n:(p + 1) * n] for p in range(self.dim)]
            self._listed = None if flat is None else _nonzeros(flat, n)
        return self._basis

    @property
    def denominator(self) -> int | None:
        """The m of `basis`, or None if the basis is irrational."""
        b = self.basis
        return (b[0][self.pivots[0]] if type(b[0][0]) is int else None) if b else 1

    def copy(self) -> "Subspace":
        """The same space on its own row and pivot lists, for `add`."""
        return Subspace(self.n, list(self.rows), list(self.pivots))

    def reduce(self, v: Sequence[Scalar]) -> Vec:
        """Residual of v after clearing each pivot column of the basis."""
        if len(v) != self.n:
            raise ValueError("ambient dimension mismatch")
        out = list(v)
        for r, pc in zip(self.rows, self.pivots):
            f = out[pc]
            if f:
                out = [x - f * y if y else x for x, y in zip(out, r)]
        return out

    def add(self, v: Sequence[Scalar]) -> bool:
        """Grow the space by v in place; whether it grew.  The residual of v
        is normalised at its first nonzero entry, that column is cleared from
        the other rows, and it goes in at its pivot's position.  Only for a
        space the caller built or copied."""
        residual = self.reduce(v)
        pc = next((i for i, x in enumerate(residual) if x), None)
        if pc is None:
            return False
        inv = residual[pc].inverse()
        new = [inv * x for x in residual]
        for idx, r in enumerate(self.rows):
            f = r[pc]
            if f:
                self.rows[idx] = [x - f * y if y else x for x, y in zip(r, new)]
        pos = bisect_left(self.pivots, pc)
        self.rows.insert(pos, new)
        self.pivots.insert(pos, pc)
        self._basis = None
        return True

    def contains(self, v: Sequence[Scalar]) -> bool:
        """Whether v is in the space; if both are rational, v cleared to ints
        u is in it iff m u = sum_p u[pc_p] basis[p], one pass on ints."""
        if len(v) != self.n:
            raise ValueError("ambient dimension mismatch")
        u = (m := self.denominator) and cleared(v)
        if u is None:
            return is_zero_vec(self.reduce(v))
        x, out = [u[pc] for pc in self.pivots], [m * t for t in u]
        _accumulate(out, _nonzeros(x, len(x)), self._listed, self.n, sub=True)
        return not any(out)

    def coords(self, v: Sequence[Scalar]) -> Vec | None:
        """Coefficients of v on the canonical basis, or None if outside.

        No basis row changes another row's pivot entry, so the coefficient
        of row r is v at r's pivot column: Scalars for Scalar input, ints
        for ints.  Every v of the right length is in the full space.
        """
        if (self.dim < self.n or len(v) != self.n) and not self.contains(v):
            return None
        return [v[pc] for pc in self.pivots]

    def _require_same_ambient(self, other: "Subspace"):
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")

    def sum(self, other: "Subspace") -> "Subspace":
        self._require_same_ambient(other)
        return Subspace.span(self.rows + other.rows, self.n)

    def intersect(self, other: "Subspace") -> "Subspace":
        """U cap W via the kernel of the stacked coefficient system."""
        self._require_same_ambient(other)
        if not self.rows or not other.rows:
            return Subspace.zero(self.n)
        # columns: coefficients (a | b) with sum a_i u_i - sum b_j w_j = 0
        sys_rows = [list(u) + [-x for x in w]
                    for u, w in zip(zip(*self.rows), zip(*other.rows))]
        ker = kernel(sys_rows, self.dim + other.dim)
        return Subspace.span([combine(comb, self.rows) for comb in ker.rows],
                             self.n)

    def complement(self) -> "Subspace":
        """Orthogonal complement under the standard dot product."""
        if not self.rows:
            return Subspace.full(self.n)
        return kernel(self.rows, self.n)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._require_same_ambient(other)
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, o) -> bool:
        if not isinstance(o, Subspace):
            return NotImplemented
        return self.n == o.n and self.pivots == o.pivots and self.rows == o.rows

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n})"


def projection_matrix(space: "Subspace") -> Matrix:
    """Orthogonal projection B^t (B B^t)^-1 B onto the row space of B, exact;
    the zero matrix for the zero space.  (B B^t | B) reduces to (I | X), X =
    (B B^t)^-1 B, and P = B^t X.  B is the `basis`, so `rref` runs on ints
    for a rational space (B times one denominator leaves P as it is)."""
    n, b = space.n, space.basis
    red, _ = rref([[sum(x * y for x, y in zip(r, t)) for t in b] + r for r in b])
    out = [ZERO] * (n * n)  # B^t as Scalars: by a rational X, on ints
    flat_product(out, [Scalar.of(x) for column in zip(*b) for x in column],
                 [x for r in red for x in r[len(b):]], len(b), n)
    return Matrix._computed_flat(out, n, n)


def char_poly(m: Matrix) -> list[Scalar]:
    """Monic characteristic polynomial det(lambda*I - M).

    Returned as coefficients in ascending degree, [c0, ..., c_{n-1}, 1],
    computed by the Faddeev-LeVerrier recursion (exact over the field).
    """
    n, n2 = m.shape
    if n != n2:
        raise ValueError("characteristic polynomial of a non-square matrix")
    coeffs = [ONE]  # leading coefficient, degree n
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk
        ck = -(mk.trace() / Scalar.of(k))
        coeffs.append(ck)
        if k < n:
            mk = mk + Matrix.identity(n).scale(ck)
    return list(reversed(coeffs))


def is_positive_definite(m: Matrix) -> bool:
    """Sylvester's criterion for a symmetric m: all leading minors > 0.  The
    k-th minor is the product of the first k pivots of elimination without
    row exchanges, so every pivot must be > 0 (zero means a zero minor).
    Row k reduced against the rows before it has its pivot at column k.
    A matrix that is not square and symmetric raises ValueError."""
    if m != m.transpose():
        raise ValueError("Sylvester's criterion needs a square symmetric matrix")
    done = Subspace.zero(m.shape[1])
    for k, row in enumerate(m.rows):
        residual = done.reduce(row)
        if residual[k].sign() <= 0:
            return False
        done.add(residual)  # already reduced: touches no pivot column
    return True


def poly_from_roots_squared(squares: Sequence[Scalar | int]) -> list[Scalar]:
    """lambda * prod(lambda^2 + s) for s in squares, ascending coefficients."""
    poly = [ZERO, ONE]  # lambda
    for s in squares:
        # multiply by (lambda^2 + s)
        ssc = Scalar.of(s)
        out = [ZERO] * (len(poly) + 2)
        for i, c in enumerate(poly):
            out[i + 2] = out[i + 2] + c
            out[i] = out[i] + ssc * c
        poly = out
    return poly
