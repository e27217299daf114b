"""Arithmetic in binary extension fields GF(2^m), the oracle for Singer masks.

Field elements are plain ints: bit i is the coefficient of x^i in the
polynomial residue, so a valid element e satisfies 0 <= e < 2^m. A field is
described by its extension degree m and a primitive polynomial, given as an
int bit mask that includes the leading x^m term (0b1011 is x^3 + x + 1).

The residue class of x (the int 2) generates the full multiplicative group;
this is checked at construction, so building the field of every entry of
maskrd.gf2.PRIMITIVE_POLYS verifies the table. The trace map of every field
element is the independent route to the bits that masks.singer_mask gets from
the polynomial's recurrence and maskrd.gf2.trace_seeds.
"""

from dataclasses import dataclass

from maskrd.gf2 import PRIMITIVE_POLYS


def _raw_mul(a: int, b: int, m: int, poly: int) -> int:
    """Shift-and-add product of two residues, reduced by poly on overflow."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return acc


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class BinaryField:
    """GF(2^m) described by a primitive polynomial bit mask."""

    m: int
    primitive_poly: int

    def __post_init__(self):
        m, poly = self.m, self.primitive_poly
        if not 2 <= m <= 20:
            raise ValueError(f"extension degree must be in 2..20, got {m}")
        if poly.bit_length() != m + 1:
            raise ValueError(
                f"polynomial 0x{poly:x} does not have degree {m}")
        if not poly & 1:
            raise ValueError("polynomial must have constant term 1")
        # x must have multiplicative order exactly 2^m - 1. This single check
        # also rules out reducible polynomials, whose unit group is smaller.
        order = (1 << m) - 1
        if self._pow_raw(2, order) != 1:
            raise ValueError(f"0x{poly:x} is not primitive (x^{order} != 1)")
        for p in _prime_factors(order):
            if self._pow_raw(2, order // p) == 1:
                raise ValueError(
                    f"0x{poly:x} is not primitive (x has order dividing {order // p})")

    def _pow_raw(self, a: int, e: int) -> int:
        acc = 1
        while e:
            if e & 1:
                acc = _raw_mul(acc, a, self.m, self.primitive_poly)
            a = _raw_mul(a, a, self.m, self.primitive_poly)
            e >>= 1
        return acc

    @property
    def order(self) -> int:
        """Number of field elements, 2^m."""
        return 1 << self.m

    def elements(self):
        """Iterate over all 2^m residues."""
        return range(self.order)


def default_field(m: int) -> BinaryField:
    """GF(2^m) with the canonical primitive polynomial for degree m."""
    if m not in PRIMITIVE_POLYS:
        raise ValueError(f"no built-in primitive polynomial for degree {m}")
    return BinaryField(m, PRIMITIVE_POLYS[m])


def _check_element(a: int, f: BinaryField) -> None:
    if not 0 <= a < f.order:
        raise ValueError(
            f"element 0x{a:x} does not fit in GF(2^{f.m})")


def field_mul(a: int, b: int, f: BinaryField) -> int:
    """Product of two residues modulo the field polynomial."""
    _check_element(a, f)
    _check_element(b, f)
    return _raw_mul(a, b, f.m, f.primitive_poly)


def field_pow(a: int, e: int, f: BinaryField) -> int:
    """Square-and-multiply power a^e, with a^0 = 1."""
    _check_element(a, f)
    if e < 0:
        raise ValueError("exponent must be non-negative")
    return f._pow_raw(a, e)


def trace(a: int, f: BinaryField) -> int:
    """Absolute trace of a, the GF(2)-valued sum of its Frobenius orbit.

    Computed as a + a^2 + a^4 + ... + a^(2^(m-1)); additive in a.
    """
    _check_element(a, f)
    acc = 0
    t = a
    for _ in range(f.m):
        acc ^= t
        t = _raw_mul(t, t, f.m, f.primitive_poly)
    if acc not in (0, 1):
        raise AssertionError("trace landed outside the prime subfield")
    return acc
