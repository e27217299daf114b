import numpy as np
import pytest
from hypothesis import given, strategies as st

from maskrd import masks, spectra
from conftest import any_mask, brute_autocorr, brute_cross_terms, random_mask_suite


def test_autocorr_singer6():
    a = spectra.autocorr(masks.singer_mask(6))
    assert a[0] == 31
    assert all(int(v) == 15 for v in a[1:])


def test_autocorr_comb63():
    a = spectra.autocorr(masks.comb_mask(63, 3))
    for k in range(63):
        assert int(a[k]) == (21 if k % 3 == 0 else 0)


def test_autocorr_matches_brute_force_and_symmetry():
    for m in random_mask_suite(30, seed=5):
        a = spectra.autocorr(m)
        assert list(a) == brute_autocorr(m.bits)
        assert all(int(a[k]) == int(a[m.n - k]) for k in range(1, m.n))


def test_autocorr_sum_identities_exact():
    for m in random_mask_suite(200, seed=17):
        a = spectra.autocorr(m)
        w = m.weight
        assert int(a[0]) == w
        assert int(a.sum()) == w * w
        assert int(a[1:].sum()) == w * (w - 1)


def test_cross_term_examples():
    s3 = masks.singer_mask(3)
    assert spectra.cross_term_row(s3, 1)[2] == 1
    a = spectra.autocorr(s3)
    for k in range(1, 7):
        row = spectra.cross_term_row(s3, k)
        assert row[k] == s3.weight - int(a[k])
        assert row[0] == 0  # the blind-range column
        # k is reduced mod N
        assert np.array_equal(spectra.cross_term_row(s3, k + 7), row)
    with pytest.raises(ValueError):
        spectra.cross_term_row(s3, 0)
    with pytest.raises(ValueError):
        spectra.cross_term_row(s3, 7)


def test_cross_term_matrix_matches_brute_force():
    for m in random_mask_suite(8, seed=23, lo=5, hi=24):
        r = spectra.cross_term_matrix(m)
        assert r.shape == (m.n, m.n)
        assert np.array_equal(r, r.T)
        assert np.array_equal(r, brute_cross_terms(m.bits))
        assert np.all(r[0] == 0) and np.all(r[:, 0] == 0)
        assert r.min() >= 0 and r.max() <= m.n


def test_range_sidelobe_sum_identity():
    suite = [masks.singer_mask(3), masks.comb_mask(63, 3)]
    suite += random_mask_suite(40, seed=29)
    for m in suite:
        r = spectra.cross_term_matrix(m)[1:, 1:]
        off = int(r.sum() - np.trace(r))
        assert off == m.weight * (m.n - m.weight) * (m.weight - 1)


def test_gamma_properties():
    comb = masks.comb_mask(6, 3)
    assert spectra.gamma(comb, 3).sum() == 0
    s3 = masks.singer_mask(3)
    g1 = spectra.gamma(s3, 1)
    assert g1.sum() == 2  # w - a[1] = 3 - 1
    assert g1.dtype == np.int64 and not g1.flags.writeable
    assert spectra.gamma(s3, 0).sum() == 0  # blind-range gate is empty
    for m in random_mask_suite(10, seed=31):
        a = spectra.autocorr(m)
        for k in range(1, m.n):
            assert spectra.gamma(m, k).sum() == m.weight - int(a[k])


def test_s_kn_zero_bin_is_real_count():
    for m in random_mask_suite(10, seed=37):
        a = spectra.autocorr(m)
        for k in (1, m.n - 1):
            v = spectra.s_kmn(m, k, 1, 0)
            assert v.imag == 0
            assert v.real == m.weight - int(a[k])


def test_s_kn_matches_fft_oracle():
    for m in random_mask_suite(6, seed=41, lo=5, hi=32):
        for k in (1, 2):
            g = spectra.gamma(m, k)
            oracle = np.fft.fft(g.astype(float))
            mine = np.array([spectra.s_kmn(m, k, 1, nu) for nu in range(m.n)])
            assert np.allclose(mine, oracle, atol=1e-9 * m.n)
            # nu is reduced mod N
            for nu in range(m.n):
                assert spectra.s_kmn(m, k, 1, nu + m.n) == mine[nu]


def scalar_s_kn(mask, k, nu):
    """S_kN as the scalar kernel computed it before s_kn_table: the byte oracle."""
    n, bits = mask.n, mask.as_array()
    phase = np.exp(-2j * np.pi * (nu % n) * np.arange(n) / n)
    return complex(np.dot((1 - bits) * np.roll(bits, k % n), phase))


@st.composite
def table_case(draw):
    """A mask with N in 2..200, some k, and bins that are unsorted and hold 0,
    a bin at or beyond N, and a repeat."""
    mask = draw(any_mask(2, 200))
    n = mask.n
    ks = draw(st.lists(st.integers(1, 2 * n), min_size=1, max_size=4))
    bins = draw(st.lists(st.integers(0, 3 * n), min_size=1, max_size=10))
    bins += [0, draw(st.integers(n, 3 * n)), bins[0]]
    return mask, ks, draw(st.permutations(bins))


@given(table_case())
def test_s_kn_table_is_the_scalar_kernel_bitwise(case):
    mask, ks, bins = case
    table = spectra.s_kn_table(mask, ks, bins)
    want = np.array([[scalar_s_kn(mask, k, nu) for nu in bins] for k in ks])
    assert table.shape == want.shape and table.dtype == want.dtype
    assert table.tobytes() == want.tobytes()
    assert np.array([[spectra.s_kmn(mask, k, 1, nu) for nu in bins]
                     for k in ks]).tobytes() == want.tobytes()
    # a bin given again, as itself and plus N: each column has its first's bits
    again = spectra.s_kn_table(mask, ks, [bins[0], bins[0] + mask.n])
    assert again.tobytes() == table[:, [0, 0]].tobytes()


def test_parseval_closed_form():
    suite = [masks.singer_mask(3), masks.singer_mask(4), masks.comb_mask(6, 3)]
    suite += random_mask_suite(10, seed=43, lo=5, hi=40)
    for m in suite:
        for k in range(1, m.n):
            direct = sum(abs(spectra.s_kmn(m, k, 1, nu)) ** 2
                         for nu in range(1, m.n))
            assert abs(direct - spectra.doppler_energy_f(m, k)) <= 1e-6 * m.n ** 2


@given(st.lists(st.integers(0, 1), min_size=2, max_size=40).filter(
    lambda bits: 0 < sum(bits) < len(bits)))
def test_parseval_holds_for_any_mask(bits):
    # sum over nu = 1..N-1 of |S_kN(nu)|^2 is f(a[k]) at every delay k
    mask = masks.custom_mask(bits)
    lags = range(1, mask.n)
    direct = (np.abs(spectra.s_kn_table(mask, lags, lags)) ** 2).sum(axis=1)
    closed = spectra.doppler_energy(spectra.autocorr(mask)[1:], mask.n, mask.weight)
    assert np.all(np.abs(direct - closed) <= 1e-9 * mask.n ** 2)


def test_parseval_singer3_value():
    s3 = masks.singer_mask(3)
    for k in range(1, 7):
        direct = sum(abs(spectra.s_kmn(s3, k, 1, nu)) ** 2 for nu in range(1, 7))
        assert direct == pytest.approx(10, abs=1e-9)
        assert spectra.doppler_energy_f(s3, k) == 10


def test_doppler_energy_values():
    s6 = masks.singer_mask(6)
    for k in (1, 31, 62):
        assert spectra.doppler_energy_f(s6, k) == 16 * 47  # 752 at every delay
    energies = spectra.doppler_energy(spectra.autocorr(s6), s6.n, s6.weight)
    assert int(energies[0]) == 0
    assert all(int(v) == 752 for v in energies[1:])


def test_comb_blanked_delay_has_zero_spectrum():
    comb = masks.comb_mask(6, 3)
    assert all(spectra.s_kmn(comb, 3, 1, nu) == 0 for nu in range(6))
    assert spectra.doppler_energy_f(comb, 3) == 0
    assert spectra.doppler_energy_f(comb, 1) == 8  # f(0) = 2*4


def test_s_kmn_periodicity_reduction():
    s6 = masks.singer_mask(6)
    assert spectra.s_kmn(s6, 5, 50, 0) == 50 * (31 - 15)
    assert spectra.s_kmn(s6, 5, 50, 7) == 0
    assert spectra.s_kmn(s6, 5, 50, 73) == 0
    v = spectra.s_kmn(s6, 5, 50, 100)
    assert v == 50 * spectra.s_kmn(s6, 5, 1, 2)


def test_s_kmn_takes_m_and_nu_as_python_ints():
    # a numpy M would wrap M N in int64: at M = nu = 2**62 it gave the nu = 0 value
    s3 = masks.singer_mask(3)
    big = 2 ** 62
    want = big * spectra.s_kmn(s3, 1, 1, 1)
    assert spectra.s_kmn(s3, 1, np.int64(big), np.int64(big)) == want
    assert spectra.s_kmn(s3, 1, big, big) == want
    assert spectra.s_kmn(s3, 1, big, 3 * big) == big * spectra.s_kmn(s3, 1, 1, 3)
    # a float is refused on a grating lobe and off one alike
    for m_pri, nu in ((2, 3.0), (1, 2.0), (2.0, 4)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            spectra.s_kmn(s3, 1, m_pri, nu)
    with pytest.raises(ValueError, match="must be positive"):
        spectra.s_kmn(s3, 1, 0, 0)


def test_s_kmn_matches_tiled_fft_oracle():
    cases = [(masks.singer_mask(3), 4), (masks.comb_mask(6, 3), 5),
             (masks.random_mask(16, 5, 7), 8), (masks.singer_mask(5), 8)]
    for m, m_pri in cases:
        total = m_pri * m.n
        assert total <= 2048
        for k in (1, m.n - 1):
            tiled = np.tile(spectra.gamma(m, k).astype(float), m_pri)
            big = np.fft.fft(tiled)
            for nu in range(total):
                want = spectra.s_kmn(m, k, m_pri, nu)
                if nu % m_pri:
                    assert want == 0
                    assert abs(big[nu]) <= 1e-9 * total
                else:
                    assert abs(big[nu] - want) <= 1e-9 * max(1.0, abs(want))
