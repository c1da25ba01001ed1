"""GF(2^m) arithmetic backed by log/antilog tables, 2 <= m <= 8.

Field elements are plain ints whose binary digits are the coefficients of
the polynomial representation.  The zero element is 0 and is distinct from
alpha^0 = 1; only nonzero elements have a power-of-alpha form.

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


class GF2m:
    """Galois field GF(2^m) with precomputed log/antilog tables.

    Immutable after construction; all operations are pure and safe for
    concurrent use.
    """

    def __init__(self, m: int, primitive_poly: int | None = None) -> None:
        if not 2 <= m <= 8:
            raise ValueError(f"extension degree m={m} out of range [2, 8]")
        poly = DEFAULT_PRIMITIVE_POLY[m] if primitive_poly is None else primitive_poly
        if poly < 0 or poly.bit_length() != m + 1:
            raise ValueError(f"polynomial {poly:#x} does not have degree {m}")
        self.m = m
        self.q = 1 << m
        self.primitive_poly = poly

        # Walk powers of alpha (= x); the walk must visit every nonzero
        # element exactly once, otherwise the polynomial is not primitive.
        antilog = [0] * (self.q - 1)
        log = [-1] * self.q
        val = 1
        for k in range(self.q - 1):
            if log[val] != -1:
                raise ValueError(f"polynomial {poly:#x} is not primitive over GF(2^{m})")
            antilog[k] = val
            log[val] = k
            val <<= 1
            if val & self.q:
                val ^= poly
        if val != 1:
            raise ValueError(f"polynomial {poly:#x} is not primitive over GF(2^{m})")
        self.antilog_table = tuple(antilog)
        self.log_table = tuple(log)

        # numpy q x q product table and inverse table (inv_table[0] = 0)
        alog, lg = np.array(antilog), np.array(log[1:])
        self.mul_table = np.zeros((self.q, self.q), dtype=np.intp)
        self.mul_table[1:, 1:] = alog[(lg[:, None] + lg[None, :]) % (self.q - 1)]
        self.inv_table = np.zeros(self.q, dtype=np.intp)
        self.inv_table[1:] = alog[-lg % (self.q - 1)]
        self.mul_table.flags.writeable = self.inv_table.flags.writeable = False

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, poly={self.primitive_poly:#x})"

    def check_element(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of GF({self.q})")

    @staticmethod
    def add(a: int, b: int) -> int:
        """Characteristic-2 addition (== subtraction): bitwise XOR."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.antilog_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)]

    def pow_alpha(self, k: int) -> int:
        """alpha^k, exponent reduced mod q-1."""
        return self.antilog_table[k % (self.q - 1)]

    def log(self, a: int) -> int:
        if a == 0:
            raise ValueError("log of the zero element is undefined")
        self.check_element(a)
        return self.log_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("inverse of the zero element is undefined")
        self.check_element(a)
        return self.antilog_table[(self.q - 1 - self.log_table[a]) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)
