import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maskrd import masks, montecarlo, response, spectra
from conftest import brute_cross_terms, random_mask_suite, scenario


def test_params_validation():
    s3 = masks.singer_mask(3)
    with pytest.raises(ValueError):
        scenario(s3, 0, 1.0)
    for mu4 in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            scenario(s3, 4, mu4)
    assert scenario(s3, 4, 1.0).total_bins == 28


def test_integer_inputs_are_taken_as_python_ints_not_truncated():
    # M, k, l and nu go through operator.index: a numpy integer becomes a
    # Python int, and a float, even a whole one, is refused
    s3 = masks.singer_mask(3)
    p = scenario(s3, np.int64(2), 1.32)
    assert type(p.M) is int and p.total_bins == 14
    grid = response.build_grid(p, np.arange(1, 3), [np.int64(1)], np.arange(2))
    assert all(type(v) is int for v in grid.k_set + grid.l_set + grid.nu_set)
    for call in (lambda: scenario(s3, 2.5, 1.32), lambda: scenario(s3, 2.0, 1.32),
                 lambda: response.expected_response(p, 1, 1, 2.5),
                 lambda: response.build_grid(p, [1.7], [1], [0]),
                 lambda: spectra.s_kn_table(s3, [1], [1.5])):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()


def test_blind_range_rejected():
    p = scenario(masks.singer_mask(3), 4, 1.32)
    with pytest.raises(ValueError):
        response.expected_response(p, 0, 2, 1)
    with pytest.raises(ValueError):
        response.expected_response(p, 2, 0, 1)
    with pytest.raises(ValueError):
        response.expected_response(p, 7, 2, 1)
    with pytest.raises(ValueError):
        response.expected_response(p, 2, 2, 28)


def test_offdiagonal_is_scaled_cross_term_and_doppler_invariant():
    for m in random_mask_suite(6, seed=3, lo=6, hi=20):
        p, r = scenario(m, 3, 1.32), brute_cross_terms(m.bits)
        for k, l in ((1, 2), (2, 1), (1, m.n - 1)):
            want = 3 * r[k, l]
            vals = {response.expected_response(p, k, l, nu)
                    for nu in (0, 1, 5, p.total_bins - 1)}
            assert vals == {float(want)}


def test_singer6_design_point():
    p = scenario(masks.singer_mask(6), 50, 1.32)
    for k in (1, 20, 62):
        assert response.expected_response(p, k, k, 0) == pytest.approx(640256, rel=1e-12)
        for nu in (1, 7, 49):
            assert response.expected_response(p, k, k, nu) == pytest.approx(256, rel=1e-12)


def test_moderate_slice_structure():
    p = scenario(masks.singer_mask(6), 50, 1.32)
    sl = response.moderate_slice(p, 20)
    assert len(sl) == 50
    assert sl[0] == pytest.approx(640256, rel=1e-12)
    assert np.ptp(sl[1:]) == 0
    assert sl[1] == pytest.approx(256, rel=1e-12)
    # slice agrees with pointwise evaluation
    for nu in (0, 1, 49):
        assert sl[nu] == response.expected_response(p, 20, 20, nu)


def test_constant_modulus_kills_local_sidelobes():
    p = scenario(masks.singer_mask(4), 6, 1.0)
    for k in (1, 7, 14):
        sl = response.moderate_slice(p, k)
        assert np.all(sl[1:] == 0)


def test_blanked_comb_delay_is_identically_zero():
    p = scenario(masks.comb_mask(63, 3), 5, 1.32)
    assert np.all(response.moderate_slice(p, 3) == 0)
    assert np.all(response.grating_lobes(p, 3) == 0)


def test_grating_lobes_consistency_and_sum():
    p = scenario(masks.singer_mask(3), 4, 1.0)
    g = response.grating_lobes(p, 1)
    assert g[0] == response.expected_response(p, 1, 1, 0)
    for n in range(7):
        want = response.expected_response(p, 1, 1, 4 * n)
        assert g[n] == pytest.approx(want, rel=1e-12)
    assert g[1:].sum() == pytest.approx(16 * 10, rel=1e-9)  # M^2 f(a[1])


def test_grating_lobes_with_mu4_floor():
    p = scenario(masks.singer_mask(3), 4, 1.32)
    g = response.grating_lobes(p, 2)
    floor = (1.32 - 1) * 4 * 2
    off = response.expected_response(p, 2, 2, 1)
    assert off == pytest.approx(floor, rel=1e-12)
    assert np.all(g >= floor - 1e-12)


def test_build_grid_values_and_broadcast():
    m = masks.singer_mask(3)
    p = scenario(m, 4, 1.32)
    grid = response.build_grid(p, (1, 2), (1, 2, 3), (0, 1, 5, 8))
    assert grid.values.shape == (2, 3, 4)
    assert np.all(grid.values >= 0)
    r = spectra.cross_term_matrix(m)
    for i, k in enumerate(grid.k_set):
        for j, l in enumerate(grid.l_set):
            if k == l:
                continue
            row = grid.values[i, j, :]
            assert np.ptp(row) == 0
            assert row[0] == 4 * r[k, l]
    # diagonal matches pointwise evaluation
    for t, nu in enumerate(grid.nu_set):
        assert grid.values[0, 0, t] == response.expected_response(p, 1, 1, nu)


def test_build_grid_errors():
    p = scenario(masks.singer_mask(3), 4, 1.0)
    with pytest.raises(ValueError):
        response.build_grid(p, (), (1,), (0,))
    with pytest.raises(ValueError):
        response.build_grid(p, (1,), (0,), (0,))
    with pytest.raises(ValueError):
        response.build_grid(p, (1,), (1,), (28,))
    with pytest.raises(ValueError, match=r"^grid shape \(1, 1, 1\) does not match "
                                         r"index sets \(1, 2, 1\)$"):
        response.ResponseGrid((1,), (1, 2), (0,), np.zeros((1, 1, 1)))


def test_peak_sidelobe_collapse_to_zero_doppler():
    m = masks.random_mask(12, 5, seed=2)
    p = scenario(m, 3, 1.32)
    ks = range(1, 12)
    all_nu = max(response.expected_response(p, k, l, nu)
                 for k in ks for l in ks if k != l for nu in range(0, 36, 7))
    zero_nu = max(response.expected_response(p, k, l, 0)
                  for k in ks for l in ks if k != l)
    assert all_nu == zero_nu


def test_mainlobe_branch_uses_tiled_peak():
    # nu = 0 mainlobe carries M^2 (w - a[k])^2, not a[k]^2
    m = masks.singer_mask(3)
    p = scenario(m, 4, 1.0)
    a = spectra.autocorr(m)
    for k in (1, 3, 6):
        want = (4 * (m.weight - int(a[k]))) ** 2
        assert response.expected_response(p, k, k, 0) == want


def test_lobe_bins_read_s_kn_only_where_hit(monkeypatch):
    m = masks.random_mask(40, 13, 9)
    p = scenario(m, 3, 1.32)
    floor = (1.32 - 1) * 3 * int(spectra.cross_term_row(m, 5)[5])
    lobes = response.grating_lobes(p, 5)
    assert len(lobes) == m.n
    for n in range(m.n):
        want = 9 * abs(spectra.s_kmn(m, 5, 1, n)) ** 2 + floor
        assert lobes[n] == pytest.approx(want, rel=1e-12)
    calls = []
    original = spectra.s_kn_table

    def recording(mask, ks, bins):
        calls.append((list(ks), [int(b) for b in bins]))
        return original(mask, ks, bins)

    monkeypatch.setattr(spectra, "s_kn_table", recording)
    grid = response.build_grid(p, (5, 6), (5, 7), (0, 1, 2, 3, 6, 7, 119))
    assert calls == [([5], [0, 1, 2])]  # one table; k = 6 has no diagonal point
    assert np.all(grid.values[0, 0, [1, 2, 5, 6]] == floor)
    assert np.all(grid.values[0, 0, [0, 3, 4]] == lobes[[0, 1, 2]])


def test_lobe_bins_are_exact_integers_past_int64():
    # one nu on each side of 2**63: 2**63 + 1 leaves 2**62 - 2 mod M, so it
    # is no grating lobe and reads the floor, as it does in a set of its own
    mask = masks.singer_mask(3)
    p = scenario(mask, 2 ** 62 + 3, 1.32)
    grid = response.build_grid(p, (1,), (1,), (1, 2 ** 63 + 1))
    alone = response.build_grid(p, (1,), (1,), (2 ** 63 + 1,))
    floor = response.mainlobe(p, mask.weight - int(spectra.autocorr(mask)[1]), 0)
    assert grid.values[0, 0].tolist() == [floor, alone.values[0, 0, 0]] == [floor, floor]
    assert grid.nu_set == (1, 2 ** 63 + 1)


def test_grating_lobes_hold_one_phase_row_at_a_time():
    mask = masks.singer_mask(11)  # N = 2047
    p = scenario(mask, 4, 1.32)
    tracemalloc.start()
    try:
        lobes = response.grating_lobes(p, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20  # all N phase rows at once would take N^2 16 B = 64 MB
    deficit = mask.weight - int(spectra.autocorr(mask)[3])
    for n in (0, 1, 1000, mask.n - 1):
        assert lobes[n] == response.mainlobe(p, deficit, spectra.s_kmn(mask, 3, 1, n))


@st.composite
def double_sum_cases(draw):
    """A mask of N <= 8, M <= 3, an in-range (k, l, nu) and a constellation."""
    n = draw(st.integers(2, 8))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                .filter(lambda b: 0 < sum(b) < n))
    m_pri = draw(st.integers(1, 3))
    k = draw(st.integers(1, n - 1))
    l = draw(st.one_of(st.just(k), st.integers(1, n - 1)))  # the mainlobe often
    nu = draw(st.integers(0, m_pri * n - 1))
    name = draw(st.sampled_from(montecarlo.CONSTELLATION_NAMES))
    return masks.Mask(tuple(bits)), m_pri, k, l, nu, montecarlo.make_constellation(name)


@given(double_sum_cases())
def test_closed_form_matches_the_double_sum_oracle(case):
    mask, m_pri, k, l, nu, constellation = case
    p = scenario(mask, m_pri, constellation.mu4)
    got = response.build_grid(p, (k,), (l,), (nu,)).values[0, 0, 0]
    want = montecarlo.expectation_by_double_sum(mask, m_pri, constellation, k, l, nu)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
