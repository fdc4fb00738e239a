"""The zero-skipping quadruple kernel, and the int64 bound of the
derivation sweep at and past its edge.

The derivation identity is homogeneous of degree two in the structure
constants, so scaling a valid structure by any integer keeps it valid.
Up to the bound the kernel runs in int64; past it, on Python integers.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossg2 import matmodel
from crossg2._intops import (_INT64_LIMIT, _PRODUCTS, clear_tensor,
                             contraction_dtype, derivation_axiom_holds,
                             qproduct)
from crossg2.linalg import Subspace, combine, vadd
from crossg2.lts import LtsCarrier, abstract_lts, check_axioms
from crossg2.scalar import Scalar


def derivation_axiom_pure(struct, n: int) -> bool:
    """The derivation axiom as a Python loop, the oracle of the kernel."""
    # both sides are antisymmetric in (x, y) and in (a, b)
    for x in range(n):
        for y in range(x + 1, n):
            op = struct[x][y]  # op[l] = coords of [b_x, b_y, b_l]
            for a in range(n):
                for b in range(a + 1, n):
                    for e in range(n):
                        lhs = combine(struct[a][b][e], op)
                        rhs = vadd(vadd(
                            combine(op[a], [struct[p][b][e] for p in range(n)]),
                            combine(op[b], [struct[a][p][e] for p in range(n)])),
                            combine(op[e], struct[a][b]))
                        if lhs != rhs:
                            return False
    return True


N = 8
SL3 = matmodel.sl3_full_carrier().struct()
SL3_MAX = int(np.abs(clear_tensor(SL3)).max())
# int64 is chosen while 60 * max^2 * n < 2^62 (see contraction_dtype)
K_MAX = math.isqrt((_INT64_LIMIT - 1) // (60 * N)) // SL3_MAX


def scaled(k: int):
    ks = Scalar.of(k)
    return [[[[ks * x for x in vec] for vec in line] for line in plane]
            for plane in SL3]


def test_k_max_is_the_guard_edge():
    at = clear_tensor(scaled(K_MAX))
    assert contraction_dtype(at, at, N) is np.int64
    past = clear_tensor(scaled(K_MAX + 1))
    assert contraction_dtype(past, past, N) is object


@settings(max_examples=6, deadline=None)
@example(ab=[0, 1], e=0, l=0, value=-K_MAX * SL3_MAX)
@given(ab=st.lists(st.integers(0, N - 1), min_size=2, max_size=2,
                   unique=True).map(sorted),
       e=st.integers(0, N - 1), l=st.integers(0, N - 1),
       value=st.integers(-K_MAX * SL3_MAX, K_MAX * SL3_MAX))
def test_kernel_agrees_with_pure_path_at_the_guard(ab, e, l, value):
    a, b = ab
    struct = scaled(K_MAX)
    assert derivation_axiom_holds(struct)
    # corrupt one constant, keeping antisymmetry in the first two slots
    struct[a][b][e][l] = Scalar.of(value)
    struct[b][a][e][l] = Scalar.of(-value)
    assert derivation_axiom_holds(struct) == derivation_axiom_pure(struct, N)


def test_corruption_at_the_guard_is_detected():
    struct = scaled(K_MAX)
    a, b, e, l = next((a, b, e, l) for a in range(N) for b in range(a + 1, N)
                      for e in range(N) for l in range(N) if struct[a][b][e][l])
    struct[a][b][e][l] = -struct[a][b][e][l]
    struct[b][a][e][l] = -struct[b][a][e][l]
    assert not derivation_axiom_holds(struct)
    assert not derivation_axiom_pure(struct, N)


@pytest.mark.parametrize("corrupt", [False, True])
def test_past_the_guard_kernel_oracle_and_check_axioms_agree(corrupt):
    struct = scaled(K_MAX + 1)
    if corrupt:
        struct[0][1][2][3] = struct[0][1][2][3] + Scalar.of(K_MAX)
        struct[1][0][2][3] = struct[1][0][2][3] - Scalar.of(K_MAX)
    carrier = LtsCarrier(abstract_lts(struct, "scaled"), Subspace.full(N))
    report = check_axioms(carrier)
    assert derivation_axiom_holds(struct) is not corrupt
    assert derivation_axiom_pure(struct, N) is not corrupt
    assert report.derivation is not corrupt


def dense_qproduct(a, b, op):
    """All 16 component pairs, none skipped: the reference of qproduct."""
    op = partial(np.einsum, op) if isinstance(op, str) else op
    terms = {}
    for u, v, w, coeff in _PRODUCTS:
        terms[w] = terms.get(w, 0) + coeff * op(a[..., u], b[..., v])
    return np.stack([terms[w] for w in range(4)], axis=-1)


@st.composite
def quad_operands(draw, dtype):
    """[M, K, 4] and [K, N, 4] arrays, each with some all-zero components."""
    m, k, n = (draw(st.integers(1, 3)) for _ in range(3))
    bound = 2 ** 70 if dtype is object else 10 ** 6

    def operand(shape):
        live = draw(st.lists(st.booleans(), min_size=4, max_size=4))
        size = math.prod(shape)
        comps = [draw(st.lists(st.integers(-bound, bound), min_size=size,
                               max_size=size)) if on else [0] * size
                 for on in live]
        return np.array(comps, dtype=dtype).reshape((4,) + shape).transpose(
            tuple(range(1, len(shape) + 1)) + (0,))

    return operand((m, k)), operand((k, n))


@pytest.mark.parametrize("op", [np.matmul, "ab,bc->ac", "ab,bc->abc"],
                         ids=["matmul", "einsum", "einsum-outer"])
@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_zero_skip_equals_the_dense_loop(data, dtype, op):
    a, b = data.draw(quad_operands(dtype))
    out = qproduct(a, b, op)
    dense = dense_qproduct(a, b, op)
    assert out.shape == dense.shape
    assert out.dtype == dense.dtype
    assert np.array_equal(out, dense)


def test_all_zero_operand_gives_zeros_of_the_product_shape():
    a = np.zeros((2, 3, 4), dtype=np.int64)
    b = np.ones((3, 5, 4), dtype=np.int64)
    out = qproduct(a, b)
    assert out.shape == (2, 5, 4) and not out.any()


def test_corruption_in_an_otherwise_zero_component_is_detected():
    # SL3 is rational: its r15 component is zero except at the corruption
    struct = scaled(1)
    r15 = Scalar(0, 0, 0, 1)
    struct[0][1][2][3] = struct[0][1][2][3] + r15
    struct[1][0][2][3] = struct[1][0][2][3] - r15
    assert np.count_nonzero(clear_tensor(struct)[..., 3]) == 2
    assert not derivation_axiom_holds(struct)
    assert not derivation_axiom_pure(struct, N)
