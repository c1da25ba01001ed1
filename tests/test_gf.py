"""Field table construction and arithmetic laws."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nbqc.gf import DEFAULT_PRIMITIVE_POLY, GF2m
from oracles import gf_mul_carryless


@pytest.mark.parametrize("m", range(2, 9))
def test_tables_are_mutually_inverse(m):
    fld = GF2m(m)
    assert len(fld.antilog_table) == fld.q - 1
    assert fld.antilog_table[0] == 1
    for k, v in enumerate(fld.antilog_table):
        assert 1 <= v < fld.q
        assert fld.log_table[v] == k
    assert fld.log_table[0] == -1
    # every nonzero element appears exactly once
    assert sorted(fld.antilog_table.tolist()) == list(range(1, fld.q))


@pytest.mark.parametrize("m", range(2, 9))
def test_default_polynomials_are_primitive(m):
    fld = GF2m(m, DEFAULT_PRIMITIVE_POLY[m])
    assert fld.pow_alpha(fld.q - 1) == 1


def test_non_primitive_polynomial_rejected():
    # x^4 + x^3 + x^2 + x + 1 divides x^5 + 1, so alpha has order 5 != 15
    with pytest.raises(ValueError, match="not primitive"):
        GF2m(4, 0b11111)
    # x^2 = x*x: the walk 1, 2, 0 visits no element twice but ends at 0, not 1
    with pytest.raises(ValueError, match="polynomial 0x4 is not primitive"):
        GF2m(2, 0b100)


def test_wrong_degree_polynomial_rejected():
    with pytest.raises(ValueError, match="degree"):
        GF2m(4, 0b111)
    for poly in (-0b1011, -1, 0):  # -0b1011 passed the bit-length check
        with pytest.raises(ValueError, match="degree"):
            GF2m(3, poly)


def test_degree_out_of_range_rejected():
    with pytest.raises(ValueError):
        GF2m(1)
    with pytest.raises(ValueError):
        GF2m(9)


def test_gf4_multiplication_table():
    fld = GF2m(2)
    # alpha = 2, alpha^2 = alpha + 1 = 3
    assert fld.mul_table.tolist() == [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def assert_ring_laws(mul, a, b, c):
    assert (mul[a, b] == mul[b, a]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, b ^ c] == mul[a, b] ^ mul[a, c]).all()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_ring_laws_exhaustive(m):
    fld = GF2m(m)
    assert_ring_laws(fld.mul_table, *np.ix_(*[np.arange(fld.q)] * 3))


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_ring_laws_random(m):
    fld = GF2m(m)
    assert_ring_laws(fld.mul_table, *np.random.default_rng(m).integers(fld.q, size=(3, 10_000)))


@pytest.mark.parametrize("m", range(2, 9))
def test_inverses(m):
    fld = GF2m(m)
    nonzero = np.arange(1, fld.q)
    assert (fld.mul_table[nonzero, fld.inv_table[nonzero]] == 1).all()
    assert fld.inv_table[0] == 0


@pytest.mark.parametrize("m", range(2, 9))
def test_numpy_tables_match_scalar_ops(m):
    fld = GF2m(m)
    poly = DEFAULT_PRIMITIVE_POLY[m]
    want = [[gf_mul_carryless(a, b, m, poly) for b in range(fld.q)] for a in range(fld.q)]
    assert fld.mul_table.tolist() == want
    for table in (fld.antilog_table, fld.log_table, fld.mul_table, fld.inv_table):
        with pytest.raises(ValueError):
            table[1] = 0  # read-only, like the rest of the field


def test_mul_table_non_default_polynomial():
    # x^4 + x^3 + 1 is primitive too; it gives a different product table
    fld = GF2m(4, 0b11001)
    want = [[gf_mul_carryless(a, b, 4, 0b11001) for b in range(16)] for a in range(16)]
    assert fld.mul_table.tolist() == want
    assert want != GF2m(4).mul_table.tolist()


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=-300, max_value=300))
def test_pow_alpha_exponent_reduction(m, k):
    fld = GF2m(m)
    assert fld.pow_alpha(k) == fld.pow_alpha(k % (fld.q - 1))
    assert type(fld.pow_alpha(k)) is int
    assert fld.log_table[fld.pow_alpha(k)] == k % (fld.q - 1)
