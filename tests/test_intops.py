"""The zero-skipping quadruple kernel on one- and four-component operands,
the int64 bound of the derivation sweep at and past its edge, the sweep
over a basis of the inner derivations one slice at a time, the cyclic sum
on the cleared tensor, and the clearing of nested lists (one component
when every entry is rational, four otherwise).

The derivation identity is homogeneous of degree two in the structure
constants, so scaling a valid structure by any scalar keeps it valid.
Up to the bound the kernel runs in int64; past it, on Python integers.
"""

import itertools
import math
import random
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossg2 import _intops, matmodel
from crossg2._intops import (_INT64_LIMIT, _PRODUCTS, clear_integral,
                             clear_struct, clear_tensor, contraction_dtype,
                             cyclic_sum_witness, derivation_axiom_holds,
                             inner_derivation_basis, qproduct)
from crossg2.linalg import Subspace, combine, vadd
from crossg2.lts import GL7, LtsCarrier, abstract_lts, check_axioms, lie_lts
from crossg2.scalar import ONE, SQRT6, ZERO, Scalar


def derivation_axiom_pure(struct, n: int, antisymmetric: bool = True) -> bool:
    """The derivation axiom as a Python loop, the oracle of the kernel."""
    # both sides are antisymmetric in (x, y), and in (a, b), when the struct
    # is; otherwise every (x, y), diagonal included, and every (a, b) runs
    for x in range(n):
        for y in range(x + 1 if antisymmetric else 0, n):
            op = struct[x][y]  # op[l] = coords of [b_x, b_y, b_l]
            for a in range(n):
                for b in range(a + 1 if antisymmetric else 0, n):
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
SL3 = matmodel.sl3_catalog("full").struct()
SL3_MAX = int(np.abs(clear_tensor(SL3)).max())
# int64 is chosen while 64 * max^2 * n < 2^62 (see contraction_dtype)
K_MAX = math.isqrt((_INT64_LIMIT - 1) // (64 * N)) // SL3_MAX


def scaled(k: int):
    ks = Scalar.of(k)
    return [[[[ks * x for x in vec] for vec in line] for line in plane]
            for plane in SL3]


def test_k_max_is_the_guard_edge():
    at = clear_tensor(scaled(K_MAX))
    assert contraction_dtype(at, at, N) is np.int64
    past = clear_tensor(scaled(K_MAX + 1))
    assert contraction_dtype(past, past, N) is object


@pytest.mark.parametrize("nested", [[[ONE, ONE], [ONE]], [ONE, [ONE]],
                                    [[ONE], ONE], [[[ONE]], [ONE]]],
                         ids=["ragged", "list-after-scalar",
                              "scalar-after-list", "deeper-first"])
def test_ragged_or_mixed_depth_nesting_is_rejected(nested):
    with pytest.raises(ValueError, match="ragged or mixed-depth nesting"):
        clear_tensor(nested)
    with pytest.raises(ValueError, match="ragged or mixed-depth nesting"):
        clear_integral(nested)


def clear_by_element(nested) -> np.ndarray:
    """Each Scalar cleared on its own into Python ints (dtype object): the
    oracle of clear_tensor."""
    scalars = np.array(nested, dtype=object)
    flat = scalars.reshape(-1)
    den = math.lcm(*(s.q for s in flat))
    cleared = np.empty((flat.size, 4), dtype=object)
    for idx, s in enumerate(flat):
        f = den // s.q
        cleared[idx] = (s.na * f, s.nb * f, s.nc * f, s.nd * f)
    return cleared.reshape(scalars.shape + (4,))


def assert_clears_like_the_oracle(out, nested):
    """out holds the oracle's first w components value by value, w = 1 when
    the oracle's other components are all zero and 4 otherwise."""
    expected = clear_by_element(nested)
    w = out.shape[-1]
    assert w == (4 if expected[..., 1:].any() else 1)
    assert out.shape == expected.shape[:-1] + (w,)
    assert out.tolist() == expected[..., :w].tolist()
    assert not expected[..., w:].any()


@pytest.mark.parametrize("value", [v * sign for v in (2 ** 62 - 1, 2 ** 62, 2 ** 70)
                                   for sign in (1, -1)])
@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (5, 1), (5, 5)])
def test_clear_tensor_at_the_int64_edge(value, p, q):
    # value / p next to 1 / q: the common denominator scales value by
    # lcm(p, q) / p, which is 2 for (1, 2) and 1 otherwise
    nested = [[Scalar(0, 0, value, 0, p), Scalar.rational(1, q)],
              [ZERO, Scalar(1, -2, 0, 3)]]
    expected = clear_by_element(nested)
    out = clear_tensor(nested)
    assert out.shape == expected.shape == (2, 2, 4)
    assert_clears_like_the_oracle(out, nested)
    fits = abs(value) * (math.lcm(p, q) // p) < _INT64_LIMIT
    assert fits == all(abs(v) < _INT64_LIMIT for v in expected.ravel())
    assert out.dtype == (np.int64 if fits else object)


def test_contraction_dtype_on_int64_tensors():
    for k in (K_MAX, K_MAX + 1):
        c = clear_tensor(scaled(k))
        assert c.dtype == np.int64
        assert_clears_like_the_oracle(c, scaled(k))
        as_object = c.astype(object)
        assert (contraction_dtype(c, c, N)
                is contraction_dtype(as_object, as_object, N))
    # the largest int64 component clear_tensor gives, of either sign
    for value in (2 ** 62 - 1, -(2 ** 62 - 1)):
        edge = clear_tensor([Scalar.of(value), ONE])
        assert edge.dtype == np.int64
        assert contraction_dtype(edge, edge, 1) is object
    assert clear_tensor([]).shape == (0, 1)
    assert clear_tensor([[], []]).shape == (2, 0, 1)


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
def quad_operands(draw, dtype, widths=(4, 4)):
    """[M, K, wa] and [K, N, wb] arrays, each with some all-zero components."""
    m, k, n = (draw(st.integers(1, 3)) for _ in range(3))
    bound = 2 ** 70 if dtype is object else 10 ** 6

    def operand(shape, width):
        live = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        size = math.prod(shape)
        comps = [draw(st.lists(st.integers(-bound, bound), min_size=size,
                               max_size=size)) if on else [0] * size
                 for on in live]
        arr = np.array(comps, dtype=dtype).reshape((width,) + shape)
        return np.moveaxis(arr, 0, -1)

    return operand((m, k), widths[0]), operand((k, n), widths[1])


def padded(x):
    """x with zero components appended up to four."""
    pad = np.zeros(x.shape[:-1] + (4 - x.shape[-1],), dtype=x.dtype)
    return np.concatenate([x, pad], axis=-1)


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


# four components on both sides is test_zero_skip_equals_the_dense_loop
@pytest.mark.parametrize("widths", [(1, 1), (1, 4), (4, 1)],
                         ids=["1x1", "1x4", "4x1"])
@pytest.mark.parametrize("op", [np.matmul, "ab,bc->ac", "ab,bc->abc"],
                         ids=["matmul", "einsum", "einsum-outer"])
@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_each_operand_width_equals_the_zero_padded_product(data, dtype, op,
                                                           widths):
    a, b = data.draw(quad_operands(dtype, widths))
    out = qproduct(a, b, op)
    dense = dense_qproduct(padded(a), padded(b), op)
    w = 1 if widths == (1, 1) else 4
    assert out.shape == dense.shape[:-1] + (w,)
    assert out.dtype == dense.dtype
    assert np.array_equal(out, dense[..., :w])
    assert not dense[..., w:].any()


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


# ---------------------------------------------- basis of the inner derivations

def derivation_all_pairs(struct) -> bool:
    """The kernel's sweep over every pair (x, y) instead of a basis."""
    pairs = list(itertools.product(range(len(struct)), repeat=2))
    with mock.patch.object(_intops, "inner_derivation_basis",
                           lambda _: pairs):
        return derivation_axiom_holds(struct)


def cyclic_witness_pure(struct):
    """The first basis triple with a nonzero cyclic sum, as a Python sweep."""
    n = len(struct)
    return next(((i, j, k) for i, j, k in itertools.product(range(n), repeat=3)
                 if any(a + b + c for a, b, c in zip(
                     struct[i][j][k], struct[j][k][i], struct[k][i][j]))), None)


def copy_struct(struct):
    return [[[list(vec) for vec in line] for line in plane] for plane in struct]


def c1211():
    struct = [[[[ZERO, ZERO] for _ in range(2)] for _ in range(2)]
              for _ in range(2)]
    struct[0][1][0] = [ONE, ZERO]
    struct[1][0][0] = [-ONE, ZERO]
    return struct


INTS = st.integers(-9, 9)
RATIONALS = st.builds(Scalar.rational, INTS, st.integers(1, 6))
IRRATIONALS = st.builds(lambda a, b, c: Scalar(a, b, c, 0), INTS, INTS, INTS)
NONZERO = {"rational": RATIONALS.filter(bool),
           "r6-r10": IRRATIONALS.filter(lambda s: s.nb or s.nc)}
GUARD_VALUES = st.integers(-K_MAX * SL3_MAX, K_MAX * SL3_MAX).map(Scalar.of)


@pytest.mark.parametrize("kind", ["rational", "r6-r10", "guard"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_basis_sweep_agrees_with_the_pure_oracle(kind, data):
    # sl(3) times a scalar (so still valid), with one constant maybe changed
    if kind == "guard":
        struct, values = scaled(K_MAX), GUARD_VALUES
    else:
        s = data.draw(NONZERO[kind])
        struct = [[[[s * x for x in vec] for vec in line] for line in plane]
                  for plane in SL3]
        values = RATIONALS if kind == "rational" else IRRATIONALS
    if data.draw(st.booleans()):
        a, b = sorted(data.draw(st.lists(st.integers(0, N - 1), min_size=2,
                                         max_size=2, unique=True)))
        e, l = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
        value = data.draw(values)
        struct[a][b][e][l] = value
        struct[b][a][e][l] = -value
    assert derivation_axiom_holds(struct) == derivation_axiom_pure(struct, N)


@pytest.mark.parametrize("entry", list(itertools.product(range(2), repeat=4)))
@pytest.mark.parametrize("delta", [ONE, -ONE])
def test_c1211_single_entry_corruptions_agree(entry, delta):
    struct = c1211()
    i, j, k, l = entry
    struct[i][j][k][l] = struct[i][j][k][l] + delta
    expected = derivation_axiom_pure(struct, 2, antisymmetric=False)
    assert derivation_axiom_holds(struct) == expected
    assert derivation_all_pairs(struct) == expected


def test_m34_single_entry_corruptions_fail_like_the_all_pairs_sweep():
    good = LtsCarrier(matmodel.M34, Subspace.full(12)).struct()
    rng = random.Random(12)
    for _ in range(20):
        i, j = sorted(rng.sample(range(12), 2))
        k, l = rng.randrange(12), rng.randrange(12)
        struct = copy_struct(good)
        struct[i][j][k][l] = struct[i][j][k][l] + ONE
        struct[j][i][k][l] = struct[j][i][k][l] - ONE
        assert not derivation_axiom_holds(struct), (i, j, k, l)
        assert not derivation_all_pairs(struct), (i, j, k, l)


def so3_plus_center():
    """[[x, y], z] on so(3) + R^2, so(3) on coordinates 1-3 and the center on
    0 and 4: no operator reads or reaches a central coordinate, so a
    corruption that has one in every contracted slot of three of the four
    terms of the sweep reaches only the fourth."""
    zero = [ZERO] * 5
    brackets = [[list(zero) for _ in range(5)] for _ in range(5)]
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        brackets[i][j] = [ONE if m == k else ZERO for m in range(5)]
        brackets[j][i] = [-x for x in brackets[i][j]]
    return copy_struct(LtsCarrier(lie_lts(brackets), Subspace.full(5)).struct())


# one entry per term, with central coordinates in the slots the other terms
# contract: D[A,B,E] contracts the fourth index, [DA,B,E] the first,
# [A,DB,E] the second and [A,B,DE] the third; all but [DA,B,E]'s entry lie
# in the last slice, A = 4
ONE_TERM_ENTRIES = {"D[A,B,E]": (4, 4, 4, 2), "[DA,B,E]": (1, 0, 0, 0),
                    "[A,DB,E]": (4, 2, 4, 4), "[A,B,DE]": (4, 4, 2, 4)}


@pytest.mark.parametrize("term", list(ONE_TERM_ENTRIES))
def test_a_corruption_reaching_one_term_only_is_detected(term):
    struct = so3_plus_center()
    assert derivation_axiom_holds(struct) and derivation_axiom_pure(struct, 5)
    i, j, k, l = ONE_TERM_ENTRIES[term]
    struct[i][j][k][l] = struct[i][j][k][l] + ONE
    assert not derivation_axiom_holds(struct)
    assert not derivation_axiom_pure(struct, 5, antisymmetric=False)


@pytest.mark.parametrize("entry", list(itertools.product(range(5), repeat=3)))
def test_single_entry_corruptions_of_the_last_slice_agree(entry):
    # not antisymmetric: c[4] changes, c[:, 4] does not
    struct = so3_plus_center()
    j, k, l = entry
    struct[4][j][k][l] = struct[4][j][k][l] + SQRT6
    assert derivation_axiom_holds(struct) == derivation_axiom_pure(
        struct, 5, antisymmetric=False)


def test_a_rational_struct_clears_to_one_component(g2):
    # g2's constants are rational: one int64 each, not four
    c = clear_struct(LtsCarrier(g2.lts, Subspace.full(14)).struct())
    assert c.shape == (14,) * 4 + (1,) and c.nbytes == 14 ** 4 * 8
    # sl(3) times r6 carries r6 only, in the second of four components
    c = clear_struct([[[[SQRT6 * x for x in vec] for vec in line]
                       for line in plane] for plane in SL3])
    assert c.shape == (N,) * 4 + (4,) and c.dtype == np.int64
    assert np.array_equal(c[..., 1], clear_struct(SL3)[..., 0])
    assert not c[..., [0, 2, 3]].any()


def test_the_sweep_holds_one_slice_at_a_time(g2):
    # g2's full [n, n, n, n, 1] tensor is 0.31 MB; one slice, 22 kB
    struct = LtsCarrier(g2.lts, Subspace.full(14)).struct()
    c = clear_struct(struct)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert derivation_axiom_holds(struct, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 500_000


def test_inner_derivation_basis_sizes(g2):
    # ad g2 for g2 on gl(7); so(3) + so(4) for the 3x4 model; so(4) for the
    # 3x3 model of G2/SO(4)
    full_g2 = LtsCarrier(GL7, g2.space).struct()
    pairs = inner_derivation_basis(full_g2)
    assert len(pairs) == 14 and all(x < y for x, y in pairs)
    m34 = LtsCarrier(matmodel.M34, Subspace.full(12)).struct()
    assert len(inner_derivation_basis(m34)) == 9
    assert len(inner_derivation_basis(SL3)) == 6
    assert inner_derivation_basis(c1211()) == [(0, 1)]
    assert inner_derivation_basis([]) == []


@settings(max_examples=25, deadline=None)
@given(entry=st.tuples(*[st.integers(0, N - 1)] * 4),
       value=st.one_of(RATIONALS, IRRATIONALS).filter(bool))
def test_cyclic_witness_is_the_first_triple_of_the_python_sweep(entry, value):
    struct = copy_struct(SL3)
    i, j, k, l = entry
    struct[i][j][k][l] = struct[i][j][k][l] + value
    expected = cyclic_witness_pure(struct)
    assert cyclic_sum_witness(clear_struct(struct)) == expected
    report = check_axioms(LtsCarrier(abstract_lts(struct), Subspace.full(N)))
    assert report.cyclic is (expected is None)
    if expected is not None and report.antisymmetry:
        assert report.witness == f"cyclic sum at {expected} != 0"


def test_cyclic_witness_of_valid_and_empty_systems():
    assert cyclic_sum_witness(clear_struct(SL3)) is None
    assert cyclic_sum_witness(clear_struct(c1211())) is None
    assert cyclic_sum_witness(clear_struct([])) is None
