"""Lie-triple-system framework: carriers, axioms, closure, envelopes.

A carrier is a subspace of some ambient coordinate space together with a
trilinear product on that space.  A Lie algebra given by its bracket
constants carries [[x,y],z] on its own coordinates (`lie_lts`); g2 itself,
for its axiom check, and the g2 families live in g2's 14 basis coordinates
this way.  gl(n) flattened row by row (`matrix_lts`, on `linalg`'s listed
flat product) realizes g2 as matrices, for the lift of the matrix model.
Closure under the product is certified by expressing every basis triple
product back in the carrier basis; those coordinates are the structure
constants used by the axiom checks (`LtsCarrier.constants`).

The four defining axioms:

    (i)   trilinearity            (by construction of the products here)
    (ii)  [X,Y,Z] = -[Y,X,Z]
    (iii) [X,Y,Z] + [Y,Z,X] + [Z,X,Y] = 0
    (iv)  [X,Y,.] acts as a derivation of the triple product

(ii) and (iii) are verified on all basis tuples.  (iv) is linear in
D = [X,Y,.], so it is verified for a basis of the span of the D(b_i, b_j)
(the inner derivations; i < j covers i >= j when (ii) holds) and all
basis tuples.  (iii) and (iv) run on the integer-cleared numpy kernel.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd
from typing import Callable, NamedTuple, Sequence

from . import scalar
from .linalg import (Matrix, Subspace, Vec, _accumulate, _nonzeros, combine,
                     commutator, flat_commutator, rref, zero_of)
from .scalar import ZERO, Scalar

__all__ = [
    "TripleSystem", "LtsCarrier", "NotClosedError", "AxiomReport", "GL7",
    "matrix_lts", "lie_lts", "abstract_lts", "triple_in_lie", "check_axioms",
    "generated_subtriple", "quotient_module_test", "envelope_dim", "is_ideal",
]

FlatOperator = Callable[[Vec, Vec], Callable[[Vec], Vec]]
FlatBracket = Callable[[Vec, Vec], Vec]


class TripleSystem(NamedTuple):
    """R^dim with the trilinear product operator(x, y)(z) = [x, y, z]; with
    on_ints, the operator on int rows returns their exact product as ints."""

    name: str
    dim: int
    operator: FlatOperator
    bracket: FlatBracket | None = None  # set when the ambient is a Lie algebra
    on_ints: bool = False

    def triple(self, x: Vec, y: Vec, z: Vec) -> Vec:
        return self.operator(x, y)(z)


def operator_products(operator: FlatOperator, rows: Sequence[Vec]) -> list:
    """[r_i, r_j, r_k], flat in (i, j, k) order, one operator per (i, j)."""
    ops = [operator(a, b) for a, b in itertools.product(rows, repeat=2)]
    return [x for op in ops for c in rows for x in op(c)]


def triple_in_lie(x: Matrix, y: Matrix, z: Matrix) -> Matrix:
    """The double commutator [[x, y], z]; `commutator` checks the shapes."""
    return commutator(commutator(x, y), z)


def matrix_lts(n: int) -> TripleSystem:
    """gl(n) flattened row by row to R^(n*n): bracket ab - ba, triple [[x,y],z]."""

    def bracket(a: Vec, b: Vec) -> Vec:
        return flat_commutator(a, b, n)

    def operator(a: Vec, b: Vec) -> Callable[[Vec], Vec]:
        # listed once per pair; the output's ring is also c's
        ab, zero = _nonzeros(flat_commutator(a, b, n), n), zero_of(a, b)

        def apply(c: Vec) -> Vec:
            if len(c) != n * n:
                raise ValueError(f"{len(c)} entries in gl({n})")
            out, lc = [zero if type(c[0]) is int else ZERO] * (n * n), _nonzeros(c, n)
            _accumulate(out, ab, lc, n)
            _accumulate(out, lc, ab, n, sub=True)
            return out
        return apply

    return TripleSystem(f"gl{n}", n * n, operator, bracket, on_ints=True)


GL7 = matrix_lts(7)  # g2's ambient as 7x7 matrices, one product for every caller


def lie_lts(brackets: Sequence[Sequence[Vec]], name: str = "lie") -> TripleSystem:
    """[[x,y],z] on R^dim for the Lie algebra with bracket constants
    brackets[i][j] = coordinates of [b_i, b_j]; only nonzero terms are kept.
    Int operands run on the constants as ints if they are integers (q = 1),
    anything else on the Scalar constants."""
    dim = len(brackets)
    # the nonzero constants of [b_i, b_j] at i * dim + j, also on ints over q
    terms, int_terms, q = _nonzeros(
        [c for row in brackets for sc in row for c in sc], dim)
    on_ints = int_terms is not None and q == 1

    def bracket(x: Vec, y: Vec) -> Vec:
        if len(x) != dim or len(y) != dim:
            raise ValueError(f"bracket of {len(x)} and {len(y)} coordinates "
                             f"in a {dim}-dim algebra")
        zero = zero_of(x, y) if on_ints else ZERO
        table = terms if zero is ZERO else int_terms
        out = [zero] * dim
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                row = i * dim
                for j, b in ys:
                    ab = a * b
                    for k, c in table[row + j]:
                        out[k] = out[k] + ab * c
        return out

    def operator(a: Vec, b: Vec) -> Callable[[Vec], Vec]:
        ab = bracket(a, b)
        return lambda c: bracket(ab, c)

    return TripleSystem(name, dim, operator, bracket, on_ints)


def abstract_lts(struct: Sequence[Sequence[Sequence[Sequence[Scalar]]]],
                 name: str = "abstract") -> TripleSystem:
    """Triple system on R^dim given by structure constants c[i][j][k][l]."""
    dim = len(struct)
    planes = [[c for vec in plane for c in vec] for row in struct for plane in row]

    def operator(x: Vec, y: Vec) -> Callable[[Vec], Vec]:
        if len(x) != dim or len(y) != dim:
            raise ValueError(f"arguments must have {dim} coordinates")
        # [x, y, b_k] = sum_ij x_i y_j c[i][j][k], at k * dim in the sum
        flat = combine([a * b for a in x for b in y], planes) if dim else []
        images = [flat[k * dim:(k + 1) * dim] for k in range(dim)]

        def apply(z: Vec) -> Vec:
            if len(z) != dim:
                raise ValueError(f"arguments must have {dim} coordinates")
            return combine(z, images) if dim else []
        return apply

    return TripleSystem(name, dim, operator)


class NotClosedError(ValueError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"basis triple ({i}, {j}, {k}) leaves the carrier")
        self.witness = (i, j, k)


class LtsCarrier:
    """A subspace closed under its ambient triple product."""

    def __init__(self, system: TripleSystem, space: Subspace, name: str = ""):
        if space.n != system.dim:
            raise ValueError("carrier subspace has wrong ambient dimension")
        self.system = system
        self.space = space
        self.name = name or f"{system.name}[{space.dim}]"
        self._struct: list[list[list[Vec]]] | None = None

    @property
    def dim(self) -> int:
        return self.space.dim

    def element(self, coords: Sequence[Scalar]) -> Vec:
        """Ambient vector of a coordinate combination of the basis."""
        if len(coords) != self.dim:
            raise ValueError(f"{len(coords)} coordinates on a {self.dim}-dim carrier")
        return combine(coords, self.space.rows) if coords else [ZERO] * self.space.n

    @cached_property
    def constants(self) -> tuple[list, int | None]:
        """(flat, den): coordinate l of [b_i, b_j, b_k] at ((i n + j) n + k) n
        + l, over den: for a rational `Subspace.basis` and a product `on_ints`,
        ints as `_intops.clear_struct` clears them, else Scalars over None.
        Certifies closure: NotClosedError names the first basis triple whose
        product leaves the carrier."""
        n, size = self.dim, self.space.n
        m = self.space.denominator if self.system.on_ints else None
        # the products of the rows cleared by m are m^3 times more
        flat = operator_products(self.system.operator,
                                 self.space.basis if m else self.space.rows)
        den = m and m ** 3
        if n < size:  # else the products are their own coordinates
            out, flat = flat, []
            for t in range(n ** 3):
                x = self.space.coords(out[t * size:(t + 1) * size])
                if x is None:
                    raise NotClosedError(t // (n * n), t // n % n, t % n)
                flat += x
        if den and (g := gcd(den, *flat)) > 1:
            flat, den = [t // g for t in flat], den // g
        return flat, den

    def struct(self) -> list[list[list[Vec]]]:
        """Structure constants as Scalars, from `constants` when asked for."""
        if self._struct is None:
            flat, den = self.constants
            if den is not None:
                flat = [Scalar(t, 0, 0, 0, den) if t else ZERO for t in flat]
            n, m = self.dim, self.dim ** 2
            self._struct = [[[flat[k:k + n] for k in range(ij * m, ij * m + m, n)]
                             for ij in range(i * n, i * n + n)] for i in range(n)]
        return self._struct

    def is_closed(self) -> bool:
        try:
            self.constants
            return True
        except NotClosedError:
            return False

    @cached_property
    def struct_mod_p(self) -> list[tuple[int, int, list[tuple[int, int]]]] | None:
        """The nonzero tables [b_i, b_j, b_k] mod scalar.PRIME for i < j, as
        (i, j, the nonzero (k * dim + m, [b_i, b_j, b_k]'s coordinate m)
        pairs), or None when the prime divides a denominator.  The pairs
        i > j follow only for an antisymmetric product
        (`antisymmetry_witness`)."""
        (flat, den), n, p = self.constants, self.dim, scalar.PRIME
        if den is not None and den % p == 0:
            return None
        inv = den and pow(den, -1, p)  # ints: times the inverse of den
        out = []
        for i, j in itertools.combinations(range(n), 2):
            chunk = flat[(i * n + j) * n * n:(i * n + j + 1) * n * n]
            table = ([x.mod_p() for x in chunk] if den is None
                     else [t * inv % p for t in chunk])
            if None in table:
                return None
            if any(table):
                out.append((i, j, [(km, y) for km, y in enumerate(table) if y]))
        return out

    @cached_property
    def antisymmetry_witness(self) -> str | None:
        """The first basis triple with [x, y, z] != -[y, x, z], or None;
        read off the certified structure constants, diagonal included."""
        flat, n = self.constants[0], self.dim
        for i in range(n):
            for j in range(i, n):
                a, b = (i * n + j) * n * n, (j * n + i) * n * n
                sums = [x + y for x, y in zip(flat[a:a + n * n], flat[b:b + n * n])]
                if any(sums):
                    k = next(t for t, x in enumerate(sums) if x) // n
                    if i == j:
                        return f"[b{i}, b{i}, b{k}] != 0"
                    return f"[b{i}, b{j}, b{k}] != -[b{j}, b{i}, b{k}]"
        return None


class AxiomReport(NamedTuple):
    antisymmetry: bool
    cyclic: bool
    derivation: bool
    witness: str | None = None

    def all_pass(self) -> bool:
        return self.antisymmetry and self.cyclic and self.derivation


def check_axioms(carrier: LtsCarrier) -> AxiomReport:
    """Verify axioms (ii)-(iv) exactly (see the module docstring)."""
    # Imported here, not at the top: runs that never check axioms (closure
    # probes, for one) never pay for importing numpy.
    from ._intops import clear_struct, cyclic_sum_witness, derivation_axiom_holds
    c = clear_struct(carrier.constants[0])  # shared by (iii) and (iv)
    antisym = carrier.antisymmetry_witness  # (ii), [x, x, z] = 0 included
    bad = cyclic_sum_witness(c)  # (iii)
    derivation = derivation_axiom_holds(carrier.constants[0], c)  # (iv)
    witness = antisym or (bad and f"cyclic sum at {bad} != 0") or (
        None if derivation else "derivation identity fails on some basis tuple")
    return AxiomReport(antisym is None, bad is None, derivation, witness)


def generated_subtriple(seed: Subspace, ambient: LtsCarrier) -> Subspace:
    """Least triple-closed subspace of the ambient carrier containing seed.

    Iterates S <- S + span [S, S, S] to a fixpoint (`_close`), exactly, in
    the ambient's coordinate space.  Once S fills the ambient carrier the
    fixpoint is the carrier itself (closed by certification).  Only pairs
    a before b are formed, so the product must be antisymmetric in its
    first two slots; the ambient carrier is checked.
    `catalog.maximality_probe` skips most closures by `quotient_module_test`.
    """
    if not ambient.space.contains_subspace(seed):
        raise ValueError("seed is not contained in the ambient carrier")
    witness = ambient.antisymmetry_witness  # also certifies ambient closure
    if witness is not None:
        raise ValueError(f"closure needs an antisymmetric product: {witness}")
    closed = _close(seed.copy(), ambient.system.operator, ambient.dim)
    return ambient.space if closed.dim == ambient.dim else closed


def _close(closed: Subspace, operator: FlatOperator, dim: int) -> Subspace:
    """Grow closed in place to its closure under operator, stopping once it
    has dimension dim: a pass runs over the pairs a before b of the basis it
    starts from, forms [a, b, .] once per pair and applies it to every
    basis row."""
    while closed.dim < dim:
        grown = False
        basis_now = list(closed.rows)
        for a, b in itertools.combinations(basis_now, 2):
            op = operator(a, b)
            for c in basis_now:
                if closed.add(op(c)):
                    grown = True
                    if closed.dim == dim:
                        return closed
        if not grown:
            break
    return closed


def _images_mod_p(tables, n: int, a: list[int], b: list[int]) -> list[list[int]]:
    """The images [a, b, b_k] mod p, k < n, of the F_p operator [a, b, .]: from
    tables as in `LtsCarrier.struct_mod_p`, the pairs i > j by antisymmetry."""
    acc = [0] * (n * n)  # [a, b, b_k] at k * n
    for i, j, table in tables:
        w = a[i] * b[j] - a[j] * b[i]
        if w:
            for km, y in table:
                acc[km] += w * y
    return [[x % scalar.PRIME for x in acc[k * n:(k + 1) * n]] for k in range(n)]


def _apply_mod_p(images: list[list[int]], c: list[int]) -> list[int]:
    """sum_k c_k images[k] mod p."""
    out = [0] * len(images[0])
    for x, image in zip(c, images):
        if x:
            out = [y + x * z for y, z in zip(out, image)]
    return [y % scalar.PRIME for y in out]


def quotient_module_test(t: Subspace, ambient: LtsCarrier) -> Callable[[list], bool]:
    """For closed T with canonical rows t in the ambient's n coordinates, a
    test of candidate coordinates x mod p, p = scalar.PRIME (None, p dividing
    a denominator, fails): whether the residual of x mod T-bar = t mod p is
    nonzero and generates F_p^n / T-bar under the m x m maps, on the
    non-pivot columns, induced by D(a, b) = [a, b, .], a < b rows of T-bar.
    It declines every x when p divides a denominator of t or of the
    structure constants, or when the product is not antisymmetric: the maps
    are read off the tables i < j (`_images_mod_p`).

    Passing shows that x is not in T and that the closure S of T + x is the
    ambient.  Let R be the ring of the values of K = Q(r6, r10) whose
    denominators p does not divide; `Scalar.mod_p` is a ring map R -> F_p.
    T's rows, x and the structure constants lie in R, so the R-span V of
    the iterated products of T's rows and x lies in S and in R^n, and its
    image mod p is closed under the reduced product.  That image contains
    T-bar, which each D(a, b), a, b in T-bar, maps into itself, and x
    reduced; so it contains the D-module of x's residual.  If the module
    fills F_p^n / T-bar, the image is F_p^n: some n of the products have a
    nonzero n x n minor mod p.  That minor is the reduction of their minor
    in R, so it is nonzero in K; the n products are independent over K and
    S is the ambient.  If x were in T, x = sum x[pc] t_pc with x[pc] in R,
    and its residual would be zero.
    """
    tables, p, n = ambient.struct_mod_p, scalar.PRIME, ambient.dim
    rows = [[x.mod_p() for x in r] for r in t.rows]
    if tables is None or ambient.antisymmetry_witness or any(None in r for r in rows):
        return lambda x: False
    t_bar = _EchelonModP(p, n)
    for r in rows:  # reduced already: each goes in as it is
        t_bar.add(r)
    m = n - t_bar.dim

    def free(v: list) -> list:  # the entries at the non-pivot columns
        return [x for k, x in enumerate(v) if k not in t_bar.pivots]

    span = _EchelonModP(p, m * m)  # invariant under maps = under a basis of them
    maps = [d for d in ([free(t_bar.reduce(y))
                         for y in free(_images_mod_p(tables, n, a, b))]
                        for a, b in itertools.combinations(rows, 2))
            if span.add([x for r in d for x in r])]

    def test(v: list[int | None]) -> bool:
        module = _EchelonModP(p, m)
        if None in v or not module.add(free(t_bar.reduce([c % p for c in v]))):
            return False
        for row in module.rows:  # the frontier: rows added below are read too
            for d in maps:
                if module.add(_apply_mod_p(d, row)) and module.dim == m:
                    return True
        return module.dim == m
    return test


class _EchelonModP:
    """A subspace of F_p^n on echelon rows: each row's first nonzero entry
    is 1, at its pivot, and every later row is zero there."""

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _check_length(self, v: list[int]):
        if len(v) != self.n:
            raise ValueError(f"{len(v)} entries in F_p^{self.n}")

    def reduce(self, v: list[int]) -> list[int]:
        """v less its components along the rows, 0 at every pivot."""
        self._check_length(v)
        p = self.p
        for r, pc in zip(self.rows, self.pivots):
            f = v[pc]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, r)]
        return v

    def add(self, v: list[int]) -> bool:
        """Append the residual of v if it is nonzero; whether it was."""
        v = self.reduce(v)
        pc = next((i for i, x in enumerate(v) if x), None)
        if pc is None:
            return False
        inv = pow(v[pc], -1, self.p)
        self.rows.append([x * inv % self.p for x in v])
        self.pivots.append(pc)
        return True


def envelope_dim(carrier: LtsCarrier) -> int:
    """dim(T + [T, T]) inside the ambient Lie algebra (embedded envelope)."""
    if carrier.system.bracket is None:
        raise ValueError("embedded envelope needs an ambient Lie bracket")
    rows = carrier.space.rows
    return len(rref(rows + [carrier.system.bracket(a, b)
                            for a, b in itertools.combinations(rows, 2)])[0])


def is_ideal(ideal: Subspace, carrier: LtsCarrier) -> bool:
    """[I,T,T], [T,I,T], [T,T,I] all inside I, checked on bases."""
    if not carrier.space.contains_subspace(ideal):
        raise ValueError("ideal candidate is not contained in the carrier")
    triple = carrier.system.triple
    return all(ideal.contains(triple(*args)) for iv in ideal.rows
               for t1, t2 in itertools.product(carrier.space.rows, repeat=2)
               for args in ((iv, t1, t2), (t1, iv, t2), (t1, t2, iv)))
