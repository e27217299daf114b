import re

import pytest

from maskrd import masks
from conftest import brute_autocorr, random_mask_suite


def test_singer3_support_and_parameters():
    m = masks.singer_mask(3)
    assert m.n == 7
    assert m.support == (1, 2, 4)
    assert m.weight == 3
    check = masks.verify_cds(m)
    assert check.is_cds and check.lam == 1


def test_singer6_matches_design_parameters():
    m = masks.singer_mask(6)
    assert m.n == 63
    assert m.weight == 31
    assert m.rho.numerator == 31 and m.rho.denominator == 63


@pytest.mark.parametrize("deg", [3, 4, 5, 6])
def test_singer_difference_counts(deg):
    m = masks.singer_mask(deg)
    n = m.n
    lam = 2 ** (deg - 2) - 1
    counts = {k: 0 for k in range(1, n)}
    for i in m.support:
        for j in m.support:
            if i != j:
                counts[(i - j) % n] += 1
    assert all(v == lam for v in counts.values())
    assert m.weight == 2 ** (deg - 1) - 1


def test_singer_degree_range():
    with pytest.raises(ValueError):
        masks.singer_mask(2)
    with pytest.raises(ValueError):
        masks.singer_mask(21)


def test_comb_basic():
    m = masks.comb_mask(6, 3)
    assert masks.serialize_mask(m) == "100100"
    assert m.weight == 2
    a = brute_autocorr(m.bits)
    assert a == [2, 0, 0, 2, 0, 0]


def test_comb63_duty_cycle():
    m = masks.comb_mask(63, 3)
    assert m.weight == 21
    assert float(m.rho) == pytest.approx(1 / 3)
    a = brute_autocorr(m.bits)
    assert all(a[k] == (21 if k % 3 == 0 else 0) for k in range(1, 63))


def test_comb_errors():
    with pytest.raises(ValueError):
        masks.comb_mask(63, 4)
    with pytest.raises(ValueError):
        masks.comb_mask(6, 1)


def test_random_mask_weight_and_determinism():
    a = masks.random_mask(63, 31, seed=7)
    b = masks.random_mask(63, 31, seed=7)
    c = masks.random_mask(63, 31, seed=8)
    assert a.weight == 31
    assert a.bits == b.bits
    assert a.bits != c.bits
    assert a.rho == masks.singer_mask(6).rho


def test_random_mask_errors():
    with pytest.raises(ValueError):
        masks.random_mask(7, 0, seed=1)
    with pytest.raises(ValueError):
        masks.random_mask(7, 7, seed=1)


def test_cyclic_shift():
    m = masks.comb_mask(6, 3)
    assert masks.cyclic_shift(m, 0).bits == m.bits
    assert masks.cyclic_shift(m, 6).bits == m.bits
    assert masks.serialize_mask(masks.cyclic_shift(m, 1)) == "010010"
    s = masks.singer_mask(4)
    assert masks.cyclic_shift(s, 5).weight == s.weight


def test_comb_spacing_detection():
    assert masks.comb_spacing(masks.comb_mask(63, 3)) == 3
    assert masks.comb_spacing(masks.cyclic_shift(masks.comb_mask(63, 3), 17)) == 3
    assert masks.comb_spacing(masks.singer_mask(3)) is None
    assert masks.comb_spacing(masks.custom_mask([1, 1, 0, 0, 0, 0])) is None
    assert masks.comb_spacing(masks.custom_mask([0, 1, 0, 0])) == 4  # lone pulse
    for m in random_mask_suite(20, seed=77):
        d = masks.comb_spacing(m)
        if d is not None:
            assert m.bits == masks.cyclic_shift(
                masks.comb_mask(m.n, d), m.support[0]).bits


def test_verify_cds_cases():
    ok = masks.verify_cds(masks.singer_mask(6))
    assert ok.is_cds and ok.lam == 15
    no = masks.verify_cds(masks.comb_mask(6, 3))
    assert not no.is_cds and no.lam is None


def test_parse_serialize_round_trip():
    text = "100100"
    m = masks.parse_mask(text)
    assert m.n == 6 and m.weight == 2
    assert masks.serialize_mask(m) == text
    again = masks.parse_mask(masks.serialize_mask(m))
    assert again == m


def test_parse_accepts_comments():
    m = masks.parse_mask("# a comment\n0110100\n")
    assert m.bits == masks.singer_mask(3).bits


def test_parse_errors():
    with pytest.raises(ValueError):
        masks.parse_mask("10a100")
    with pytest.raises(ValueError):
        masks.parse_mask("10\n\n01")
    with pytest.raises(ValueError):
        masks.parse_mask("# only a comment")
    with pytest.raises(ValueError):
        masks.parse_mask("0000")
    with pytest.raises(ValueError):
        masks.parse_mask("1111")


def test_mask_file_round_trip(tmp_path):
    m = masks.singer_mask(4)
    path = tmp_path / "m.mask"
    masks.save_mask(m, path, header_lines=("written by test",))
    loaded = masks.load_mask(path)
    assert loaded == m


def test_from_spec():
    assert masks.from_spec("singer:m=6") == masks.singer_mask(6)
    assert masks.from_spec("comb:N=63,d=3") == masks.comb_mask(63, 3)
    assert masks.from_spec("random:N=63,w=31,seed=7") == masks.random_mask(63, 31, 7)
    with pytest.raises(ValueError):
        masks.from_spec("golay:N=10")
    with pytest.raises(ValueError):
        masks.from_spec("singer:m=6,d=3")
    with pytest.raises(ValueError):
        masks.from_spec("comb:N=63")


# A spec missing a key and one with an extra key, for every family in masks.SPECS.
BAD_KEYS = [
    ("singer:", "malformed mask spec 'singer:'"),
    ("singer:m=3,x=1", "mask spec 'singer:m=3,x=1' needs keys ('m',), got ('m', 'x')"),
    ("comb:N=6", "mask spec 'comb:N=6' needs keys ('n', 'd'), got ('n',)"),
    ("comb:N=6,d=3,x=1",
     "mask spec 'comb:N=6,d=3,x=1' needs keys ('n', 'd'), got ('n', 'd', 'x')"),
    ("random:N=9,seed=2",
     "mask spec 'random:N=9,seed=2' needs keys ('n', 'w', 'seed'), got ('n', 'seed')"),
    ("random:N=9,w=4,seed=2,x=1", "mask spec 'random:N=9,w=4,seed=2,x=1' needs keys "
     "('n', 'w', 'seed'), got ('n', 'w', 'seed', 'x')"),
]


def test_bad_key_cases_cover_every_family():
    assert sorted({spec.partition(":")[0] for spec, _ in BAD_KEYS}) == sorted(masks.SPECS)


@pytest.mark.parametrize("spec, error", BAD_KEYS, ids=[spec for spec, _ in BAD_KEYS])
def test_from_spec_refuses_a_missing_or_extra_key(spec, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        masks.from_spec(spec)


def test_weight_bounds_enforced_everywhere():
    with pytest.raises(ValueError):
        masks.custom_mask([0, 0, 0])
    with pytest.raises(ValueError):
        masks.custom_mask([1, 1, 1])
    with pytest.raises(ValueError):
        masks.custom_mask([1, 2, 0])
