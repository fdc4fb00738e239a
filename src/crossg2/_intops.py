"""Integer-cleared numpy kernels for bulk quadruple arithmetic.

A Scalar tensor becomes an integer array over one common denominator with
a trailing axis of its components on the basis {1, r6, r10, r15}: one if
every entry is rational, else four.  Components multiply by the table

    (u, v) -> (w, coeff)

derived from r6*r10 = 2*r15, r6*r15 = 3*r10, r10*r15 = 5*r6.  `qproduct`
lifts a bilinear numpy op through it: one op on two rational operands, else
one per component pair with no all-zero operand.  Its clients are the
derivation-axiom sweep (homogeneous of equal degree on both sides, so the
denominator cancels; one slice of the first index at a time), whose
cleared tensor also carries the cyclic sum, and the sphere-family grid of
`matmodel.curvature_check`, on tensors `clear_integral` checks.

The arithmetic is exact at any size: a contraction runs in int64 when its
worst-case accumulator, and the sweep's running difference of four of
them, provably fit (see `contraction_dtype`) and on Python integers
(dtype object) otherwise, with the same code.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, product
from math import isqrt, lcm

import numpy as np

from .linalg import rref
from .scalar import Scalar

# (u, v) -> (w, coeff): component products on {1, r6, r10, r15}
_PRODUCTS = [
    (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
    (1, 0, 1, 1), (1, 1, 0, 6), (1, 2, 3, 2), (1, 3, 2, 3),
    (2, 0, 2, 1), (2, 1, 3, 2), (2, 2, 0, 10), (2, 3, 1, 5),
    (3, 0, 3, 1), (3, 1, 2, 3), (3, 2, 1, 5), (3, 3, 0, 15),
]

_INT64_LIMIT = 2 ** 62


def _entries(nested) -> tuple[tuple[int, ...], list[Scalar]]:
    """The shape of nested lists of Scalar and their entries in row-major
    order, in one walk; ValueError on a ragged or mixed-depth nesting."""
    shape, level = [], [nested]
    while any(isinstance(x, (list, tuple)) for x in level):
        sizes = {len(x) if isinstance(x, (list, tuple)) else -1 for x in level}
        if len(sizes) > 1:
            raise ValueError("ragged or mixed-depth nesting")
        shape.append(sizes.pop())
        level = [y for x in level for y in x]
    return tuple(shape), level


def clear_tensor(nested) -> np.ndarray:
    """Nested lists of Scalar -> integer array [..., w] (w = 1 if every entry
    is rational, else 4), the common denominator dropped: int64 when every
    component is below _INT64_LIMIT in absolute value, else Python ints."""
    shape, flat = _entries(nested)
    den = lcm(*{s.q for s in flat})
    width = 4 if any(s.nb or s.nc or s.nd for s in flat) else 1
    ints = ([c * (den // s.q) for s in flat for c in (s.na, s.nb, s.nc, s.nd)]
            if width == 4 else [s.na * (den // s.q) for s in flat])
    return _int_array(ints, shape + (width,))


def _int_array(ints: list[int], shape: tuple[int, ...]) -> np.ndarray:
    """ints, int64 if all are below _INT64_LIMIT in absolute value."""
    try:
        out = np.array(ints, dtype=np.int64)
        if -_INT64_LIMIT < out.min(initial=0) and out.max(initial=0) < _INT64_LIMIT:
            return out.reshape(shape)
    except OverflowError:  # past int64
        pass
    return np.array(ints, dtype=object).reshape(shape)


def clear_integral(nested) -> np.ndarray:
    """clear_tensor of Scalars that must all have denominator 1."""
    if any(s.q != 1 for s in _entries(nested)[1]):
        raise ValueError("tensor is not integral on {1, r6, r10, r15}")
    return clear_tensor(nested)


def qproduct(a: np.ndarray, b: np.ndarray, op=np.matmul) -> np.ndarray:
    """The bilinear op (a callable or an einsum spec) on cleared arrays:
    [..., 1] from two one-component operands, else [..., 4], each component
    pair with an all-zero operand skipped."""
    op = partial(np.einsum, op) if isinstance(op, str) else op
    if a.shape[-1] == b.shape[-1] == 1:
        return op(a[..., 0], b[..., 0])[..., None]
    live_a = {u for u in range(a.shape[-1]) if a[..., u].any()}
    live_b = {v for v in range(b.shape[-1]) if b[..., v].any()}
    # with nothing live, the (0, 0) pair still gives the zero result's shape
    pairs = [p for p in _PRODUCTS if p[0] in live_a and p[1] in live_b]
    out = None
    for u, v, w, coeff in pairs or _PRODUCTS[:1]:
        term = op(a[..., u], b[..., v])
        if coeff != 1:
            term *= coeff  # in place: no second product-sized buffer
        if out is None:
            out = np.zeros(term.shape + (4,), dtype=term.dtype)
        out[..., w] += term
        del term  # at most one product buffer is alive at a time
    return out


def _qmul_contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A @ B, cleared: [M, K, w] x [..., K, N, w] -> [..., M, N, w]."""
    return qproduct(a, b)


def contraction_dtype(a: np.ndarray, b: np.ndarray, contract_len: int):
    """int64 when every contraction of a with b, and the running difference
    of four of them in derivation_axiom_holds, provably fit; else object."""
    # One matmul entry is at most ma * mb * K.  An output component sums
    # coeff times such entries over its table rows, and the coefficients per
    # component sum to 32 (w = 0: 1 + 6 + 10 + 15), 12, 8 and 6.  Admitting
    # 64 * ma * mb * K < 2^62 bounds a contraction by 32 * ma * mb * K < 2^61,
    # and each partial result of lhs - t1 - t2 - t3 in derivation_axiom_holds
    # by 4 * 2^61 = 2^63, strictly: no int64 overflow.  Past the bound,
    # Python integers keep every sum exact.
    ma = int(np.abs(a).max(initial=0))
    mb = int(np.abs(b).max(initial=0))
    bound = 64 * ma * mb * max(contract_len, 1)
    return np.int64 if bound < _INT64_LIMIT else object


def clear_struct(struct) -> np.ndarray:
    """struct[i][j][k][l], nested or flat as `LtsCarrier.constants` (whose
    ints are cleared already), as one cleared tensor [n, n, n, n, w], in
    the dtype `contraction_dtype` admits for the derivation sweep."""
    c = (_int_array(struct, (-1, 1)) if struct and type(struct[0]) is int
         else clear_tensor(struct))
    c = c.reshape((isqrt(isqrt(c.size // c.shape[-1])),) * 4 + c.shape[-1:])
    return c.astype(contraction_dtype(c, c, len(c)), copy=False)


def cyclic_sum_witness(c: np.ndarray) -> tuple[int, int, int] | None:
    """The first (i, j, k) in itertools.product order with
    c[i,j,k] + c[j,k,i] + c[k,i,j] != 0, or None; c from clear_struct."""
    total = c + np.transpose(c, (2, 0, 1, 3, 4))
    total += np.transpose(c, (1, 2, 0, 3, 4))
    bad = np.argwhere(total.any(axis=(3, 4)))
    return tuple(map(int, bad[0])) if len(bad) else None


def _antisymmetric(c: np.ndarray) -> bool:
    """c[i, j] = -c[j, i] for all i, j, one row of pairs at a time."""
    return not any((c[i] + c[:, i]).any() for i in range(len(c)))


def inner_derivation_basis(c) -> list[tuple[int, int]]:
    """Pairs (x, y) whose operators c[x, y] span them all (c = clear_struct
    of a struct, which is cleared): x < y when c is antisymmetric in its
    first two indices, else all n^2 pairs.  The pivot columns of the rref
    of the operators as columns keep each one not in the span of those
    before it (over Q on components: never fewer than over the field)."""
    c = c if isinstance(c, np.ndarray) else clear_struct(c)
    n = len(c)
    pairs = np.array(list(combinations(range(n), 2) if _antisymmetric(c)
                          else product(range(n), repeat=2)), int).reshape(-1, 2)
    columns = c[pairs[:, 0], pairs[:, 1]].reshape(  # as lists: no array kept
        len(pairs), n * n * c.shape[-1]).T.tolist()
    return [tuple(map(int, pairs[k]))
            for k in rref([r for r in columns if any(r)])[1]]


def derivation_axiom_holds(struct: list[list[list[list[Scalar]]]],
                           c: np.ndarray | None = None) -> bool:
    """Exact check of the derivation identity of a triple system.

    struct[i][j][k] is the coordinate vector of [b_i, b_j, b_k] (or struct
    is flat, as `LtsCarrier.constants`), and c, when given, is
    clear_struct(struct).  The identity

        D[A,B,E] = [DA,B,E] + [A,DB,E] + [A,B,DE]

    is linear in D, so it holds for every inner derivation D(X, Y) = [X,Y,.]
    once it holds on a basis of their span (the inner derivation algebra):
    the sweep runs over the pairs of `inner_derivation_basis` and all basis
    tuples (A, B, E).  This is exhaustive, not a sample.  When c is
    antisymmetric in its first two indices, so are both sides: only B > A
    runs, and [[X,Y,A],B,E] reads c[B] = -c[:, B].  Each pair runs one
    first index A at a time: the difference of the two sides on the slice
    is the only tensor kept, each term subtracted in place, and the first
    nonzero one ends the sweep.
    """
    c = clear_struct(struct) if c is None else c
    n, w = len(c), c.shape[-1]
    rows = c.reshape(n, n ** 3, w)
    halve = _antisymmetric(c)
    for x, y in inner_derivation_basis(c):
        m = c[x, y]                            # [l, m, w]: operator L_{xy}
        for a in range(n - 1 if halve else n):
            lo = a + 1 if halve else 0         # the B that run
            ca, cb = c[a], c[a, lo:]           # [b, e, l, w]: one slice live
            # D[A,B,E]: sum_p c[a,b,e,p] m[p,:]
            diff = _qmul_contract(cb.reshape(-1, n, w), m).reshape(cb.shape)
            # [[X,Y,A],B,E]: sum_p m[a,p] c[p,b,e,:], halved -sum_p m[a,p] c[b,p,e,:]
            diff += (_qmul_contract(m[a:a + 1], c[lo:].reshape(-1, n, n * n, w))
                     if halve else -_qmul_contract(m[a:a + 1], rows)).reshape(cb.shape)
            # [A,[X,Y,B],E]: sum_p m[b,p] c[a,p,e,:]
            diff -= _qmul_contract(m[lo:], ca.reshape(n, n * n, -1)).reshape(cb.shape)
            # [A,B,[X,Y,E]]: sum_p m[e,p] c[a,b,p,:], one product per b
            diff -= _qmul_contract(m, cb)
            if diff.any():
                return False
    return True
