"""GF(2^m), 2 <= m <= 8, held as read-only numpy tables.

Field elements are ints in [0, q) whose binary digits are the coefficients
of the polynomial representation; addition is XOR.  The zero element is 0
and is distinct from alpha^0 = 1; only nonzero elements have a
power-of-alpha form.  The field is its tables: antilog_table[k] = alpha^k,
log_table[a] = log_alpha(a) (-1 for zero), mul_table[a, b] = a*b and
inv_table[a] = a^-1 (0 for zero), indexed directly by element arrays.

Default primitive polynomials (one per extension degree):
    m=2 : x^2 + x + 1             -> 0b111
    m=3 : x^3 + x + 1             -> 0b1011
    m=4 : x^4 + x + 1             -> 0b10011
    m=5 : x^5 + x^2 + 1           -> 0b100101
    m=6 : x^6 + x + 1             -> 0b1000011
    m=7 : x^7 + x^3 + 1           -> 0b10001001
    m=8 : x^8 + x^4 + x^3 + x^2 + 1 -> 0b100011101

Any other degree-m polynomial may be supplied; it is rejected at table
build time unless x generates the full multiplicative group.
"""

from __future__ import annotations

import functools

import numpy as np

DEFAULT_PRIMITIVE_POLY: dict[int, int] = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
}


def check_degree(m: int) -> None:
    """Raise ValueError unless GF2m builds GF(2^m): 2 <= m <= 8."""
    if not 2 <= m <= 8:
        raise ValueError(f"extension degree m={m} out of range [2, 8]")


class GF2m:
    """Galois field GF(2^m) as its log/antilog, product and inverse tables.

    Immutable; the tables are read-only, the product table built on first
    read.  A copy, by pickle too, is rebuilt from m and the polynomial.
    """

    def __init__(self, m: int, primitive_poly: int | None = None) -> None:
        check_degree(m)
        poly = DEFAULT_PRIMITIVE_POLY[m] if primitive_poly is None else primitive_poly
        if poly < 0 or poly.bit_length() != m + 1:
            raise ValueError(f"polynomial {poly:#x} does not have degree {m}")
        self.m = m
        self.q = 1 << m
        self.primitive_poly = poly

        # Walk the powers of alpha (= x): x is primitive when its first q-1
        # powers are distinct and the next one is 1 again.
        powers = [1]
        for _ in range(self.q - 1):
            val = powers[-1] << 1
            powers.append(val ^ poly if val & self.q else val)
        if powers.pop() != 1 or len(set(powers)) != self.q - 1:
            raise ValueError(f"polynomial {poly:#x} is not primitive over GF(2^{m})")
        alog = np.array(powers, dtype=np.intp)
        log = np.full(self.q, -1, dtype=np.intp)
        log[alog] = np.arange(self.q - 1)
        inv = np.zeros(self.q, dtype=np.intp)
        inv[1:] = alog[-log[1:] % (self.q - 1)]
        for table in (alog, log, inv):
            table.flags.writeable = False
        self.antilog_table, self.log_table, self.inv_table = alog, log, inv

    @functools.cached_property
    def mul_table(self) -> np.ndarray:
        """mul_table[a, b] = a*b, built on first read (0.7 ms at q = 256);
        only decoding reads it (cpm, update_layer, syndrome_zero)."""
        lg, mul = self.log_table[1:], np.zeros((self.q, self.q), dtype=np.intp)
        mul[1:, 1:] = self.antilog_table[(lg[:, None] + lg[None, :]) % (self.q - 1)]
        mul.flags.writeable = False
        return mul

    def __reduce__(self):
        return GF2m, (self.m, self.primitive_poly)

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, poly={self.primitive_poly:#x})"

    def pow_alpha(self, k: int) -> int:
        """alpha^k, exponent reduced mod q-1."""
        return int(self.antilog_table[k % (self.q - 1)])
