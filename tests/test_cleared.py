"""Rational triple systems on integers, against the Scalar path.

A system with `TripleSystem.on_ints` (gl(n), `matmodel.M34`,
`matmodel.SL3`, and a Lie algebra with integer bracket constants such as
g2) forms the products of int rows as ints.  A carrier with rational
basis rows under such a product forms its structure constants once,
through `operator_products` on its integer `Subspace.basis`, as Python
ints over m^3, and certifies closure on them; every other carrier runs
the Scalar products.  The Scalar path is the oracle: the same product
with `on_ints` off, or the operator on the same rows as Scalars.  g2
itself is built on integer Leibniz rows and integer commutators of its
integer `Subspace.basis`, against the Scalar-built algebra.
The derivation sweep halves its (A, B) pairs on an antisymmetric tensor,
against the sweep of every pair.
"""

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossg2 import _intops, matmodel
from crossg2._intops import _INT64_LIMIT, clear_struct, derivation_axiom_holds
from crossg2.cross7 import basis_vector
from crossg2.g2alg import G2, leibniz_rows
from crossg2.linalg import Matrix, Subspace, cleared, commutator, dot, kernel
from crossg2.lts import (GL7, LtsCarrier, NotClosedError, TripleSystem,
                         abstract_lts, check_axioms, lie_lts, matrix_lts,
                         operator_products)
from crossg2.scalar import ONE, SQRT6, ZERO, Scalar
from test_intops import SL3, copy_struct, so3_plus_center

RATIONAL_KINDS = ["g2-full", "odd-part", "T2", "T3", "T4", "m34-full",
                  "m34-template", "sl3-full", "sym5", "col4", "refl4", "gotro",
                  "gl7-tangent"]


def carrier_of(ws, kind: str) -> LtsCarrier:
    if kind == "g2-full":
        return LtsCarrier(ws.g2.lts, Subspace.full(14))
    if kind == "odd-part":
        return ws.m4v
    if kind in ("T1", "T2", "T3", "T4"):
        return ws.t_carrier(kind)
    if kind == "m34-full":
        return LtsCarrier(matmodel.M34, Subspace.full(12))
    if kind == "m34-template":
        return LtsCarrier(matmodel.M34, Subspace.span(
            [m.flatten() for m in matmodel.m34_template_basis()], 12))
    if kind == "gl7-tangent":
        return LtsCarrier(GL7, ws.lift.tangent)
    return ws.sl3_carrier(kind.removeprefix("sl3-"))


def scalar_path(carrier: LtsCarrier) -> LtsCarrier:
    """The same carrier under the same product with `on_ints` off."""
    system = carrier.system._replace(on_ints=False)
    return LtsCarrier(system, carrier.space, carrier.name)


@pytest.mark.parametrize("kind", RATIONAL_KINDS)
def test_the_integer_constants_equal_the_cleared_scalar_struct(ws, kind):
    carrier = carrier_of(ws, kind)
    oracle = scalar_path(carrier)
    flat, den = carrier.constants
    assert den is not None and all(type(t) is int for t in flat)
    expected = clear_struct(oracle.struct())
    c = clear_struct(flat)
    assert c.dtype == expected.dtype and np.array_equal(c, expected)
    assert carrier.struct() == oracle.struct()
    assert carrier.struct_mod_p == oracle.struct_mod_p
    assert carrier.antisymmetry_witness == oracle.antisymmetry_witness
    assert check_axioms(carrier) == check_axioms(oracle)


@pytest.mark.parametrize("kind", ["odd-part", "T2", "T4", "m34-template", "sym5",
                                  "gl7-tangent"])
def test_the_scalar_route_certifies_the_same_constants(ws, scalar_route, kind):
    # the switch at linalg's one dispatch: the basis stays Scalar, so the
    # carrier takes the Scalar products and reduces them over the field
    carrier = carrier_of(ws, kind)
    assert carrier.constants[1] is not None
    scalar_route()
    fresh = LtsCarrier(carrier.system, carrier.space, carrier.name)
    flat, den = fresh.constants
    assert den is None and all(isinstance(x, Scalar) for x in flat)
    assert fresh.struct() == carrier.struct()
    assert check_axioms(fresh) == check_axioms(carrier)


@pytest.mark.parametrize("kind", ["T1", "sl3-sphere"])
def test_irrational_carriers_keep_the_scalar_path(ws, kind):
    carrier = carrier_of(ws, kind)
    flat, den = carrier.constants
    assert den is None and all(isinstance(x, Scalar) for x in flat)
    assert carrier.struct() == scalar_path(carrier).struct()


def test_check_axioms_builds_no_scalar_struct_of_a_rational_carrier(ws):
    carrier = LtsCarrier(matmodel.M34, Subspace.full(12))
    with mock.patch.object(LtsCarrier, "struct", side_effect=AssertionError):
        assert check_axioms(carrier).all_pass()
    assert carrier._struct is None


def random_spans(system: TripleSystem, count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 3)
        rows = [[Scalar.rational(rng.randint(-2, 2), rng.randint(1, 3))
                 if rng.random() < 0.3 else ZERO for _ in range(system.dim)]
                for _ in range(dim)]
        yield Subspace.span(rows, system.dim)


def closure_witness(carrier: LtsCarrier):
    try:
        carrier.constants
    except NotClosedError as exc:
        return exc.witness
    return None


@pytest.mark.parametrize("system", [matmodel.M34, matmodel.SL3,
                                    matrix_lts(3), "g2"], ids=lambda s: str(
                                        getattr(s, "name", s)))
def test_a_carrier_that_is_not_closed_names_the_same_triple(g2, scalar_route, system):
    system = g2.lts if system == "g2" else system
    witnesses, spaces = [], list(random_spans(system, 25, 3))
    for space in spaces:
        carrier = LtsCarrier(system, space)
        witness = closure_witness(carrier)
        assert witness == closure_witness(scalar_path(carrier))
        assert carrier.is_closed() is (witness is None)
        if witness is not None:
            with pytest.raises(NotClosedError):
                carrier.struct()
        witnesses.append(witness)
    assert any(witnesses) and None in witnesses
    scalar_route()  # and with membership decided over the field
    assert [closure_witness(LtsCarrier(system, s)) for s in spaces] == witnesses


def test_gl3_open_carrier_witness_on_both_paths():
    gl3 = matrix_lts(3)
    x = Matrix.unit(3, 3, 0, 1).flatten()
    y = (Matrix.unit(3, 3, 1, 2) + Matrix.unit(3, 3, 2, 0)).flatten()
    carrier = LtsCarrier(gl3, Subspace.span([x, y], 9))
    assert closure_witness(carrier) == closure_witness(scalar_path(carrier))
    assert closure_witness(carrier) is not None


@pytest.mark.parametrize("seed", range(4))
def test_every_non_pivot_residual_is_checked(seed):
    # a unit vector at a non-pivot column has zero coordinates, so only that
    # column's residual shows it is outside the span
    rng = random.Random(seed)
    n = 7
    rows = [[Scalar.rational(rng.randint(-3, 3), rng.randint(1, 4))
             if k or seed % 2 else ZERO for k in range(n)] for _ in range(3)]
    space = Subspace.span(rows, n)  # even seeds: no pivot at column 0
    ints, m = space.basis, space.denominator
    assert [r[pc] for r, pc in zip(ints, space.pivots)] == [m] * space.dim
    assert len(space.pivots) < n and (0 in space.pivots) is bool(seed % 2)
    for c in set(range(n)) - set(space.pivots):
        assert space.coords([int(k == c) for k in range(n)]) is None
    for r in ints:
        assert space.coords(r) == [r[pc] for pc in space.pivots]
    assert Subspace.span([[SQRT6, ONE]], 2).denominator is None


# ------------------------------------------------------------- g2 on ints

def test_g2_on_integer_rows_equals_the_scalar_built_algebra(g2):
    e = [basis_vector(i) for i in range(7)]
    pairs = [(e[i], e[j]) for i, j in itertools.combinations(range(7), 2)]
    space = kernel(leibniz_rows(pairs), 49)
    assert g2.space == space
    int_rows = [[int(i == j) for j in range(7)] for i in range(7)]
    int_pairs = [(int_rows[i], int_rows[j])
                 for i, j in itertools.combinations(range(7), 2)]
    int_rows = leibniz_rows(int_pairs)
    assert all(type(x) is int for r in int_rows for x in r)
    assert [[Scalar.of(t) for t in r] for r in int_rows] == leibniz_rows(pairs)
    flat, m = cleared([x for row in space.rows for x in row]), space.denominator
    assert g2.space.basis == [flat[49 * b:49 * b + 49] for b in range(14)]
    # the pairing rows <b s, t>, on ints, are m times those of the Scalar basis
    rng = random.Random(3)
    for _ in range(5):
        s, t = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(2)]
        row = g2.pairing_row(s, t)
        assert all(type(x) is int for x in row)
        assert row == [m * dot(b.apply([Scalar.of(x) for x in s]), t) for b in g2.basis]
    basis = [Matrix.from_flat(r, 7, 7) for r in space.rows]
    n = len(basis)
    expected = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        expected[i][j] = space.coords(commutator(basis[i], basis[j]).flatten())
        expected[j][i] = [-x for x in expected[i][j]]
    assert g2.bracket_coords == expected


def test_bracket_constants_outside_the_algebra_are_refused():
    # E12 and E21 span no Lie algebra: [E12, E21] = E11 - E22
    fake = G2.__new__(G2)
    fake.dim = 2
    fake.space = Subspace.span(
        [Matrix.unit(7, 7, 0, 1).flatten(), Matrix.unit(7, 7, 1, 0).flatten()], 49)
    with pytest.raises(ValueError, match="leaves the algebra"):
        fake.bracket_coords


def halved_so3():
    """so(3) on the basis b_i / 2: [b_i, b_j] = b_k / 2, cyclically."""
    half = Scalar.rational(1, 2)
    brackets = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        brackets[i][j][k], brackets[j][i][k] = half, -half
    return lie_lts(brackets, "so3/2")


@pytest.mark.parametrize("name", ["g2", "so3/2"])
def test_lie_products_equal_the_bracket_operator(g2, name):
    # products of int rows: g2's integer constants keep them ints, so(3)
    # halved (q = 2) has the flag off and forms them on its Scalar constants
    system = g2.lts if name == "g2" else halved_so3()
    assert system.on_ints is (name == "g2")
    rng = random.Random(7)
    rows = [[rng.randint(-2, 2) for _ in range(system.dim)] for _ in range(3)]
    products = operator_products(system.operator, rows)
    expected = [x for a, b, c in itertools.product(rows, repeat=3)
                for x in system.triple(*[[Scalar.of(t) for t in r]
                                         for r in (a, b, c)])]
    assert {type(t) for t in products} == {int if name == "g2" else Scalar}
    assert [Scalar.of(t) for t in products] == expected


INT_SYSTEMS = {"gl7": lambda g2: GL7, "gl3": lambda g2: matrix_lts(3),
               "m34": lambda g2: matmodel.M34, "sl3": lambda g2: matmodel.SL3,
               "g2": lambda g2: g2.lts}


@pytest.mark.parametrize("name", list(INT_SYSTEMS))
def test_the_operator_on_int_rows_equals_the_scalar_operator(g2, name):
    system = INT_SYSTEMS[name](g2)
    assert system.on_ints
    rng = random.Random(11)
    for _ in range(4):
        a, b, c = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0
                    for _ in range(system.dim)] for _ in range(3)]
        out = system.operator(a, b)(c)
        assert all(type(t) is int for t in out)
        assert out == system.triple(*[[Scalar.of(t) for t in r] for r in (a, b, c)])


def test_halved_so3_certifies_the_same_constants_on_scalars():
    # [[b_i, b_j], b_k] = sum_p c_ij^p [b_p, b_k], from the constants
    system = halved_so3()
    carrier = LtsCarrier(system, Subspace.full(3))
    flat, den = carrier.constants
    assert not system.on_ints and den is None
    assert all(isinstance(x, Scalar) for x in flat)
    half = Scalar.rational(1, 2)
    c = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i][j][k], c[j][i][k] = half, -half
    expected = [sum((c[i][j][p] * c[p][k][l] for p in range(3)), ZERO)
                for i, j, k, l in itertools.product(range(3), repeat=4)]
    assert flat == expected
    assert check_axioms(carrier).all_pass()


# ------------------------------------------------------- the halved sweep

def full_sweep(c: np.ndarray) -> bool:
    """The sweep of every (A, B) pair and every pair of operators."""
    with mock.patch.object(_intops, "_antisymmetric", lambda _: False):
        return derivation_axiom_holds(None, c)


def antisymmetric(c: np.ndarray) -> bool:
    return np.array_equal(c, -c.swapaxes(0, 1))


def test_a_system_that_is_not_antisymmetric_runs_the_diagonal_operators():
    # [b0, b0, b0] = b0: D(b0, b0) maps [b0, b0, b0] = b0 to b0, not 3 b0
    carrier = LtsCarrier(abstract_lts([[[[ONE]]]]), Subspace.full(1))
    report = check_axioms(carrier)
    assert not report.antisymmetry and not report.cyclic
    assert not report.derivation
    assert report.witness == "[b0, b0, b0] != 0"
    assert _intops.inner_derivation_basis([[[[ONE]]]]) == [(0, 0)]


VALID = {"sl3": lambda: SL3, "so3+center": so3_plus_center,
         "m34": lambda: LtsCarrier(matmodel.M34, Subspace.full(12)).struct()}


@pytest.mark.parametrize("name", list(VALID))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_the_halved_sweep_agrees_with_the_full_sweep(name, data):
    struct = copy_struct(VALID[name]())
    n = len(struct)
    for _ in range(data.draw(st.integers(0, 2))):
        i, j, k, l = data.draw(st.tuples(*[st.integers(0, n - 1)] * 4))
        value = data.draw(st.sampled_from([ONE, -ONE, SQRT6]))
        struct[i][j][k][l] = struct[i][j][k][l] + value
        if data.draw(st.booleans()):  # keep the tensor antisymmetric
            struct[j][i][k][l] = struct[j][i][k][l] - value
    c = clear_struct(struct)
    assert derivation_axiom_holds(None, c) == full_sweep(c)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), width=st.sampled_from([1, 4]), data=st.data())
def test_the_halved_sweep_agrees_on_random_antisymmetric_tensors(n, width, data):
    values = data.draw(st.lists(st.integers(-2, 2), min_size=n ** 4 * width,
                                max_size=n ** 4 * width))
    c = np.array(values, dtype=np.int64).reshape((n,) * 4 + (width,))
    c = c - c.swapaxes(0, 1)  # antisymmetric in the first two indices
    assert antisymmetric(c)
    assert derivation_axiom_holds(None, c) == full_sweep(c)


@pytest.mark.parametrize("corrupt", [False, True])
def test_the_halved_sweep_agrees_near_two_to_the_62(corrupt):
    # so(3) + a center scaled past the int64 guard: dtype object
    struct = so3_plus_center()
    scale = Scalar.of(2 ** 61 + 1)
    struct = [[[[x * scale for x in vec] for vec in line] for line in plane]
              for plane in struct]
    if corrupt:
        struct[1][2][3][3] = struct[1][2][3][3] + ONE
        struct[2][1][3][3] = struct[2][1][3][3] - ONE
    c = clear_struct(struct)
    assert c.dtype == object and np.abs(c).max() >= _INT64_LIMIT // 4
    assert antisymmetric(c)
    assert derivation_axiom_holds(None, c) is full_sweep(c) is (not corrupt)


def test_one_entry_corruptions_of_g2_fail_on_both_sweeps(g2):
    good = clear_struct(LtsCarrier(g2.lts, Subspace.full(14)).struct())
    assert derivation_axiom_holds(None, good) and full_sweep(good)
    rng = random.Random(5)
    for _ in range(6):
        i, j = sorted(rng.sample(range(14), 2))
        k, l = rng.randrange(14), rng.randrange(14)
        c = good.copy()
        c[i, j, k, l] += 1
        c[j, i, k, l] -= 1
        assert derivation_axiom_holds(None, c) == full_sweep(c)
