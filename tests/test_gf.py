"""Field table construction and arithmetic laws."""

import random

import pytest
from hypothesis import given, strategies as st

from nbqc.gf import DEFAULT_PRIMITIVE_POLY, GF2m


@pytest.mark.parametrize("m", range(2, 9))
def test_tables_are_mutually_inverse(m):
    fld = GF2m(m)
    assert len(fld.antilog_table) == fld.q - 1
    assert fld.antilog_table[0] == 1
    for k, v in enumerate(fld.antilog_table):
        assert 1 <= v < fld.q
        assert fld.log_table[v] == k
    # every nonzero element appears exactly once
    assert sorted(fld.antilog_table) == list(range(1, fld.q))


@pytest.mark.parametrize("m", range(2, 9))
def test_default_polynomials_are_primitive(m):
    fld = GF2m(m, DEFAULT_PRIMITIVE_POLY[m])
    assert fld.pow_alpha(fld.q - 1) == 1


def test_non_primitive_polynomial_rejected():
    # x^4 + x^3 + x^2 + x + 1 divides x^5 + 1, so alpha has order 5 != 15
    with pytest.raises(ValueError, match="not primitive"):
        GF2m(4, 0b11111)


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
    assert fld.mul(2, 2) == 3
    assert fld.mul(2, 3) == 1
    assert fld.mul(3, 3) == 2
    assert fld.add(2, 3) == 1


@pytest.mark.parametrize("m", [2, 3, 4])
def test_ring_laws_exhaustive(m):
    fld = GF2m(m)
    elems = list(fld.elements())
    for a in elems:
        for b in elems:
            assert fld.mul(a, b) == fld.mul(b, a)
            for c in elems:
                assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
                assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_ring_laws_random(m):
    fld = GF2m(m)
    rng = random.Random(m)
    for _ in range(10_000):
        a, b, c = (rng.randrange(fld.q) for _ in range(3))
        assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
        assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)
        assert fld.mul(a, b) == fld.mul(b, a)


@pytest.mark.parametrize("m", range(2, 9))
def test_inverses(m):
    fld = GF2m(m)
    for a in range(1, fld.q):
        assert fld.mul(a, fld.inv(a)) == 1
    with pytest.raises(ValueError):
        fld.inv(0)
    with pytest.raises(ValueError):
        fld.log(0)


@pytest.mark.parametrize("m", range(2, 9))
def test_numpy_tables_match_scalar_ops(m):
    fld = GF2m(m)
    for a in range(fld.q):
        assert fld.mul_table[a].tolist() == [fld.mul(a, b) for b in range(fld.q)]
    assert fld.inv_table.tolist() == [0] + [fld.inv(a) for a in range(1, fld.q)]
    with pytest.raises(ValueError):
        fld.mul_table[1, 1] = 0  # read-only, like the rest of the field


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=-300, max_value=300))
def test_pow_alpha_exponent_reduction(m, k):
    fld = GF2m(m)
    assert fld.pow_alpha(k) == fld.pow_alpha(k % (fld.q - 1))
    assert fld.log(fld.pow_alpha(k)) == k % (fld.q - 1)


def test_element_range_check():
    fld = GF2m(3)
    with pytest.raises(ValueError):
        fld.check_element(8)
    with pytest.raises(ValueError):
        fld.check_element(-1)
    fld.check_element(0)
    fld.check_element(7)
