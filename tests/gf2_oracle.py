"""GF(2^m) arithmetic by its definitions, the oracle for Singer masks.

A field element is an int whose bit i is the coefficient of x^i of a residue
modulo poly, an int bit mask of degree m that includes the leading x^m term
(0b1011 is x^3 + x + 1). singer_bits marks the trace-zero powers of x: the
independent route to the bits that masks.singer_mask gets from the
polynomial's recurrence and maskrd.gf2.trace_seeds.
"""


def mul(a: int, b: int, m: int, poly: int) -> int:
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


def power(a: int, e: int, m: int, poly: int) -> int:
    """Square-and-multiply power a^e, with a^0 = 1."""
    acc = 1
    while e:
        if e & 1:
            acc = mul(acc, a, m, poly)
        a = mul(a, a, m, poly)
        e >>= 1
    return acc


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def is_primitive(m: int, poly: int) -> bool:
    """Whether poly has degree m and x has multiplicative order 2^m - 1 modulo it.

    The order test alone also rules out reducible polynomials, whose unit
    group is smaller.
    """
    if poly.bit_length() != m + 1 or not poly & 1:
        return False
    order = (1 << m) - 1
    return power(2, order, m, poly) == 1 and all(
        power(2, order // p, m, poly) != 1 for p in _prime_factors(order))


def trace(a: int, m: int, poly: int) -> int:
    """Absolute trace a + a^2 + a^4 + ... + a^(2^(m-1)), additive in a."""
    acc = 0
    for _ in range(m):
        acc ^= a
        a = mul(a, a, m, poly)
    return acc


def singer_bits(m: int, poly: int) -> tuple[int, ...]:
    """Slot i transmits iff Tr(x^i) = 0, for i = 0..2^m - 2."""
    bits, x = [], 1
    for _ in range((1 << m) - 1):
        bits.append(1 - trace(x, m, poly))
        x = mul(x, 0b10, m, poly)
    return tuple(bits)
