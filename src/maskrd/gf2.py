"""Primitive polynomials over GF(2) and the trace seeds of their m-sequences.

A polynomial is an int bit mask that includes the leading x^m term
(0b1011 is x^3 + x + 1). Singer masks (masks.singer_mask) need only m trace
values s_i = Tr(alpha^i) per degree, with alpha a root of the table entry, to
seed the polynomial's linear recurrence. Since the conjugates of alpha are
exactly the roots of its polynomial, Tr(alpha^i) is the i-th power sum of
those roots, which Newton's identities give from the coefficients alone; no
field arithmetic is needed.
"""

from __future__ import annotations

__all__ = ["PRIMITIVE_POLYS", "trace_seeds"]

# One canonical primitive polynomial per degree, minimal-weight entries from
# the classic LFSR tables. The test suite re-verifies primitivity.
PRIMITIVE_POLYS = {
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10001001,           # x^7 + x^3 + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011,
    17: 0b100000000000001001,
    18: 0b1000000000010000001,
    19: 0b10000000000000100111,
    20: 0b100000000000000001001,
}


def trace_seeds(m: int) -> list[int]:
    """Tr(alpha^i) for i = 0..m-1, alpha a root of PRIMITIVE_POLYS[m].

    With the polynomial written x^m + sum_j c_j x^j, the elementary symmetric
    functions of its roots are e_j = c_(m-j) over GF(2), and Newton's
    identities reduce mod 2 to p_0 = m and
    p_i = i e_i + sum_(j=1)^(i-1) e_j p_(i-j).
    """
    poly = PRIMITIVE_POLYS[m]
    e = [poly >> (m - j) & 1 for j in range(m)]
    p = [m & 1]
    for i in range(1, m):
        p.append((i * e[i] + sum(e[j] * p[i - j] for j in range(1, i))) & 1)
    return p
