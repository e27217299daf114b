"""The GF(2^m) oracle against schoolbook arithmetic, and the table and trace
seeds of maskrd.gf2 against the oracle."""

import pytest

import gf2_oracle as oracle
from maskrd import gf2


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
    f = oracle.default_field(3)
    alpha = 0b010
    assert oracle.field_pow(alpha, 4, f) == 0b110
    assert oracle.field_mul(alpha, oracle.field_pow(alpha, 3, f), f) == 0b110
    assert oracle.field_pow(alpha, 7, f) == 1
    assert oracle.field_pow(alpha, 0, f) == 1


def test_identity_and_zero():
    f = oracle.default_field(5)
    for beta in (1, 7, 19, 30):
        assert oracle.field_mul(1, beta, f) == beta
        assert oracle.field_mul(0, beta, f) == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_mul_matches_naive_oracle_all_pairs(m):
    f = oracle.default_field(m)
    poly = f.primitive_poly
    for a in f.elements():
        for b in f.elements():
            assert oracle.field_mul(a, b, f) == naive_mul(a, b, m, poly)


def test_mul_commutes_and_distributes():
    f = oracle.default_field(6)
    triples = [(3, 41, 17), (60, 5, 29), (1, 63, 2), (44, 44, 44)]
    for a, b, c in triples:
        assert oracle.field_mul(a, b, f) == oracle.field_mul(b, a, f)
        left = oracle.field_mul(a, b ^ c, f)
        right = oracle.field_mul(a, b, f) ^ oracle.field_mul(a, c, f)
        assert left == right


def test_pow_matches_repeated_mul():
    f = oracle.default_field(4)
    for a in (2, 7, 11):
        acc = 1
        for e in range(20):
            assert oracle.field_pow(a, e, f) == acc
            acc = oracle.field_mul(acc, a, f)


def test_trace_examples_gf8():
    f = oracle.default_field(3)
    assert oracle.trace(0, f) == 0
    assert oracle.trace(0b010, f) == 0
    assert oracle.trace(1, f) == 1  # Tr(1) = m mod 2


@pytest.mark.parametrize("m", range(2, 13))
def test_trace_balance(m):
    f = oracle.default_field(m)
    zeros = sum(1 for e in f.elements() if oracle.trace(e, f) == 0)
    assert zeros == 2 ** (m - 1)


@pytest.mark.parametrize("m", range(2, 13))
def test_exponent_map_is_bijection(m):
    f = oracle.default_field(m)
    seen = set()
    x = 1
    for _ in range(f.order - 1):
        seen.add(x)
        x = oracle.field_mul(x, 0b10, f)
    assert len(seen) == f.order - 1
    assert 0 not in seen


def test_trace_additivity():
    f = oracle.default_field(8)
    pairs = [(3, 200), (17, 17), (0, 255), (91, 164)]
    for a, b in pairs:
        assert oracle.trace(a ^ b, f) == oracle.trace(a, f) ^ oracle.trace(b, f)


def test_element_out_of_range_rejected():
    f = oracle.default_field(3)
    with pytest.raises(ValueError):
        oracle.field_mul(8, 1, f)
    with pytest.raises(ValueError):
        oracle.field_pow(-1, 2, f)
    with pytest.raises(ValueError):
        oracle.trace(100, f)


def test_bad_polynomials_rejected():
    with pytest.raises(ValueError):
        oracle.BinaryField(4, 0b10101)       # x^4+x^2+1 reducible
    with pytest.raises(ValueError):
        oracle.BinaryField(4, 0b11111)       # irreducible but not primitive
    with pytest.raises(ValueError):
        oracle.BinaryField(4, 0b1011)        # degree mismatch
    with pytest.raises(ValueError):
        oracle.BinaryField(3, 0b1010)        # constant term 0
    with pytest.raises(ValueError):
        oracle.BinaryField(1, 0b11)          # degree out of range


def test_all_table_entries_are_primitive():
    assert sorted(gf2.PRIMITIVE_POLYS) == list(range(2, 21))
    for m in gf2.PRIMITIVE_POLYS:
        oracle.default_field(m)  # construction verifies primitivity


@pytest.mark.parametrize("m", sorted(gf2.PRIMITIVE_POLYS))
def test_trace_seeds_match_oracle(m):
    f = oracle.default_field(m)
    assert gf2.trace_seeds(m) == [oracle.trace(1 << i, f) for i in range(m)]
