from __future__ import annotations

import copy
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qhopper import (
    CycInt,
    EmbeddingError,
    InvalidOrderError,
    OrderMismatchError,
    cyclotomic_polynomial,
    root,
)

@st.composite
def cycints(draw, max_order=16):
    m = draw(st.integers(min_value=1, max_value=max_order))
    coeffs = draw(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=m, max_size=m)
    )
    return CycInt(m, coeffs)


# -- construction and basic values -------------------------------------------


def test_root_identity():
    assert root(3, 0) == 1


def test_root_wraps_modulo_order():
    assert root(3, 4) == root(3, 1)
    assert root(12, -3) == root(12, 9)


def test_twelfth_root_ninth_power_is_minus_i():
    assert root(12, 9) == -root(12, 3)


def test_zero_order_rejected():
    with pytest.raises(InvalidOrderError):
        root(0, 1)
    with pytest.raises(InvalidOrderError):
        CycInt(0, ())


def test_a_value_refuses_assignment_and_copies_as_itself():
    w = root(6, 1)
    for name in ("order", "coeffs", "other"):
        with pytest.raises(AttributeError, match="CycInt is immutable"):
            setattr(w, name, 1)
    assert copy.copy(w) is w and copy.deepcopy(w) is w
    assert w.order == 6 and w.coeffs == (0, 1, 0, 0, 0, 0)


def test_values_refuse_deletion():
    w = root(3, 1)
    for name in ("order", "coeffs"):
        with pytest.raises(AttributeError, match="CycInt is immutable"):
            delattr(w, name)
    assert w == root(3, 1)


def test_an_integer_minus_a_value():
    w = root(3, 1)
    assert 2 - w == CycInt(3, (2, -1, 0))
    assert 1 - (1 - w) == w
    assert (0 - w).coeffs == (-w).coeffs


def test_coeff_length_must_match_order():
    with pytest.raises(ValueError):
        CycInt(3, (1, 2))


def test_coefficients_must_be_integers():
    # int() would truncate the float and parse the string
    for build in (
        lambda: CycInt(3, (0.5, 0, 0)),
        lambda: CycInt(3, ("7", 0, 0)),
        lambda: CycInt.from_int(2.9, 3),
    ):
        with pytest.raises(TypeError):
            build()


def test_bools_and_numpy_integers_are_integer_coefficients():
    import numpy as np

    x = CycInt(3, (True, np.int64(-2), np.uint8(5)))
    assert x.coeffs == (1, -2, 5)
    assert all(type(c) is int for c in x.coeffs)
    assert x == CycInt(3, (1, -2, 5))


# -- ring operations -----------------------------------------------------------


def test_one_plus_omega_plus_omega_bar_is_zero():
    s = root(3, 0) + root(3, 1) + root(3, 2)
    assert s.is_zero()


def test_i_squared_is_minus_one():
    assert root(12, 3) * root(12, 3) == root(12, 6)
    assert root(12, 6) == -CycInt.one(12)


def test_conj_of_omega():
    assert root(3, 1).conj() == root(3, 2)


def test_conj_involution_and_product():
    a = root(12, 5)
    assert a.conj().conj() == a
    assert not (a * a.conj()).is_zero()


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatchError):
        root(3, 1) + root(4, 1)
    with pytest.raises(OrderMismatchError):
        root(3, 1) * root(6, 1)


def test_integer_operands_lift():
    assert root(3, 1) * 2 == root(3, 1) + root(3, 1)
    assert (root(3, 1) + 1 + root(3, 2)).is_zero()


# -- embedding -------------------------------------------------------------------


def test_embed_cube_root_into_sixth_roots():
    assert root(3, 1).embed(6) == root(6, 2)


def test_embed_zero():
    assert CycInt.zero(3).embed(12).is_zero()


def test_embed_minus_one_into_twelfth_roots():
    assert root(2, 1).embed(12) == root(12, 6)


def test_embed_requires_divisible_order():
    with pytest.raises(EmbeddingError):
        root(3, 1).embed(8)


# -- cyclotomic polynomials --------------------------------------------------------


def test_first_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("m", range(1, 25))
def test_cyclotomic_polynomial_against_sympy(m):
    x = sympy.symbols("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_polynomial(m)) == [int(c) for c in expected]


# -- zero test ----------------------------------------------------------------------


def test_all_sixth_roots_sum_to_zero():
    s = CycInt.zero(6)
    for k in range(6):
        s = s + root(6, k)
    assert s.is_zero()


def test_single_root_is_not_zero():
    assert not root(3, 1).is_zero()


def test_zero_test_agrees_with_floats():
    rng = random.Random(7)
    for _ in range(500):
        m = rng.randint(1, 24)
        coeffs = [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(m)]
        value = CycInt(m, coeffs)
        assert value.is_zero() == (abs(value.complex_value()) < 1e-9)


# -- algebraic properties (randomized) ------------------------------------------------


@settings(max_examples=60, derandomize=True)
@given(cycints())
def test_additive_inverse(a):
    assert (a + (-a)).is_zero()


@settings(max_examples=60, derandomize=True)
@given(cycints(max_order=10), cycints(max_order=10))
def test_multiplication_commutes(a, b):
    b = CycInt(a.order, list(b.coeffs[: a.order]) + [0] * max(0, a.order - b.order))
    assert a * b == b * a


@settings(max_examples=40, derandomize=True)
@given(cycints(max_order=8), cycints(max_order=8), cycints(max_order=8))
def test_multiplication_associates(a, b, c):
    m = a.order
    b = CycInt(m, list(b.coeffs[:m]) + [0] * max(0, m - b.order))
    c = CycInt(m, list(c.coeffs[:m]) + [0] * max(0, m - c.order))
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, derandomize=True)
@given(cycints(max_order=8), st.integers(min_value=1, max_value=4))
def test_embed_preserves_value(a, factor):
    m2 = a.order * factor
    assert a.embed(m2) == a
    assert abs(a.embed(m2).complex_value() - a.complex_value()) < 1e-9


@settings(max_examples=60, derandomize=True)
@given(cycints(max_order=12), cycints(max_order=12))
def test_eq_embeds_across_orders(a, b):
    m = math.lcm(a.order, b.order)
    assert (a == b) == ((a.embed(m) - b.embed(m)).is_zero())


def test_canonical_key_groups_equal_values():
    # z6^2 and the value 1 + z3 - 1... different raw vectors, same value
    a = root(6, 2)
    b = root(3, 1).embed(6)
    assert a == b
    assert a.canonical_key() == b.canonical_key()


def test_str_and_repr_are_stable():
    # render.value_label is the one text form of a value; str() is the repr
    for v in (CycInt.zero(3), root(3, 2)):
        assert str(v) == repr(v)
    assert repr(root(2, 1)) == "CycInt(2, (0, 1))"
