"""The table and trace seeds of maskrd.gf2 against the GF(2^m) oracle
(gf2_oracle.py), and the oracle itself against schoolbook arithmetic and the
textbook properties of the trace."""

import pytest

import gf2_oracle as oracle
from maskrd import gf2

POLYS = gf2.PRIMITIVE_POLYS


def naive_mul(a, b, m, poly):
    # schoolbook polynomial product, then long division by poly
    prod = 0
    for i in range(m):
        if (a >> i) & 1:
            prod ^= b << i
    for shift in range(m - 1, -1, -1):
        if (prod >> (shift + m)) & 1:
            prod ^= poly << shift
    return prod


def test_gf8_table_examples():
    alpha, poly = 0b010, POLYS[3]
    assert oracle.power(alpha, 4, 3, poly) == 0b110
    assert oracle.mul(alpha, oracle.power(alpha, 3, 3, poly), 3, poly) == 0b110
    assert oracle.power(alpha, 7, 3, poly) == 1
    assert oracle.power(alpha, 0, 3, poly) == 1


def test_identity_and_zero():
    for beta in (1, 7, 19, 30):
        assert oracle.mul(1, beta, 5, POLYS[5]) == beta
        assert oracle.mul(0, beta, 5, POLYS[5]) == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_mul_matches_naive_oracle_all_pairs(m):
    poly = POLYS[m]
    for a in range(1 << m):
        for b in range(1 << m):
            assert oracle.mul(a, b, m, poly) == naive_mul(a, b, m, poly)


def test_trace_examples_gf8():
    poly = POLYS[3]
    assert oracle.trace(0, 3, poly) == 0
    assert oracle.trace(0b010, 3, poly) == 0
    assert oracle.trace(1, 3, poly) == 1  # Tr(1) = m mod 2


@pytest.mark.parametrize("m", range(2, 13))
def test_trace_balance(m):
    values = [oracle.trace(e, m, POLYS[m]) for e in range(1 << m)]
    assert values.count(0) == values.count(1) == 2 ** (m - 1)


@pytest.mark.parametrize("m", range(2, 13))
def test_exponent_map_is_bijection(m):
    # the definition behind is_primitive's prime-factor shortcut
    seen, x = set(), 1
    for _ in range((1 << m) - 1):
        seen.add(x)
        x = oracle.mul(x, 0b10, m, POLYS[m])
    assert len(seen) == (1 << m) - 1
    assert 0 not in seen


def test_trace_additivity():
    poly = POLYS[8]
    for a, b in [(3, 200), (17, 17), (0, 255), (91, 164)]:
        assert oracle.trace(a ^ b, 8, poly) == oracle.trace(a, 8, poly) ^ oracle.trace(b, 8, poly)


def test_bad_polynomials_rejected():
    assert not oracle.is_primitive(4, 0b10101)  # x^4+x^2+1 reducible
    assert not oracle.is_primitive(4, 0b11111)  # irreducible but not primitive
    assert not oracle.is_primitive(4, 0b1011)   # degree mismatch
    assert not oracle.is_primitive(3, 0b1010)   # constant term 0


def test_all_table_entries_are_primitive():
    assert sorted(POLYS) == list(range(2, 21))
    for m, poly in POLYS.items():
        assert oracle.is_primitive(m, poly), m


@pytest.mark.parametrize("m", sorted(POLYS))
def test_trace_seeds_match_oracle(m):
    assert gf2.trace_seeds(m) == [oracle.trace(1 << i, m, POLYS[m]) for i in range(m)]
