"""Acceptance gate: one test per criterion, each printing a pass line.

Tolerances and time budgets are pinned here; run with `pytest -v` to see
one line per criterion.
"""

import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from maskrd import cli, masks, metrics, montecarlo as mc, response, spectra
from conftest import random_mask_suite

QAM16 = mc.make_constellation("qam16")


def _passed(num, msg):
    print(f"ACCEPTANCE PASS criterion {num}: {msg}")


def test_c01_singer_construction():
    t0 = time.perf_counter()
    s6 = masks.singer_mask(6)
    assert s6.n == 63 and s6.weight == 31
    a = spectra.autocorr(s6)
    assert all(int(a[k]) == 15 for k in range(1, 63))
    for deg in (3, 4, 5, 6):
        m = masks.singer_mask(deg)
        n, lam = 2 ** deg - 1, 2 ** (deg - 2) - 1
        assert m.n == n and m.weight == 2 ** (deg - 1) - 1
        counts = {k: 0 for k in range(1, n)}
        for i in m.support:
            for j in m.support:
                if i != j:
                    counts[(i - j) % n] += 1
        assert all(v == lam for v in counts.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(1, f"singer construction and difference counts ({elapsed:.2f}s)")


def test_c02_range_sidelobe_sum_identity():
    t0 = time.perf_counter()
    suite = [masks.singer_mask(m) for m in (3, 4, 5, 6)]
    suite.append(masks.comb_mask(63, 3))
    suite += random_mask_suite(200, seed=202)
    for m in suite:
        r = spectra.cross_term_matrix(m)[1:, 1:]
        off_sum = int(r.sum() - np.trace(r))
        n, w = m.n, m.weight
        # rho(1-rho)(rho N - 1) N^2 reduces to the integer w (N - w)(w - 1)
        assert off_sum == w * (n - w) * (w - 1), m.label
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(2, f"sum of R over k != l mask-independent, 205 masks ({elapsed:.2f}s)")


def test_c03_doppler_invariance():
    t0 = time.perf_counter()
    # closed form: exactly zero spread along nu off the diagonal
    s5 = masks.singer_mask(5)
    p = response.ScenarioParams(mask=s5, M=8, mu4=QAM16.mu4)
    grid = response.build_grid(p, (2, 9), (1, 9, 17, 30), tuple(range(0, 248, 31)))
    for i, k in enumerate(grid.k_set):
        for j, l in enumerate(grid.l_set):
            if k != l:
                assert np.ptp(grid.values[i, j, :]) == 0.0
    # Monte Carlo at N=31, M=8, qam16, 1e4 trials, 50 sampled points
    rng = np.random.Generator(np.random.Philox(key=303))
    triples = []
    while len(triples) < 50:
        k = int(rng.integers(1, 31))
        l = int(rng.integers(1, 31))
        if k != l:
            triples.append((k, l, int(rng.integers(0, 248))))
    pts = mc.mc_points(s5, 8, QAM16, triples, trials=10 ** 4, seed=303)
    r_mat = spectra.cross_term_matrix(s5)
    for pt in pts:
        assert pt.closed_form == 8 * r_mat[pt.k, pt.l]
    n_ok = sum(1 for pt in pts if abs(pt.z) <= 3.0)
    assert n_ok >= 49  # >= 98% of 50
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passed(3, f"off-diagonal Doppler invariance, {n_ok}/50 within 3 se ({elapsed:.1f}s)")


def test_c04_tiled_spectrum_sparsity():
    cases = [(masks.singer_mask(3), 4), (masks.singer_mask(4), 8),
             (masks.singer_mask(5), 8), (masks.comb_mask(6, 3), 5),
             (masks.random_mask(16, 5, 7), 16), (masks.random_mask(24, 9, 1), 8)]
    for m, m_pri in cases:
        total = m_pri * m.n
        assert total <= 2048
        for k in range(1, m.n):
            tiled = np.tile(spectra.gamma(m, k).astype(float), m_pri)
            big = np.fft.fft(tiled)
            for nu in range(total):
                if nu % m_pri:
                    assert abs(big[nu]) <= 1e-9 * total
                else:
                    want = spectra.s_kmn(m, k, m_pri, nu)
                    assert abs(big[nu] - want) <= 1e-9 * max(1.0, abs(want))
    _passed(4, "tiled receive-gate spectrum vanishes off multiples of M")


def test_c05_offzero_spectral_energy():
    suite = [masks.singer_mask(m) for m in (3, 4, 5, 6)]
    suite += [masks.comb_mask(6, 3), masks.comb_mask(63, 3)]
    suite += random_mask_suite(20, seed=505)
    for m in suite:
        lags = range(1, m.n)
        table = spectra.s_kn_table(m, lags, lags)  # row k - 1 holds S_kN(1..N-1)
        for k, row in zip(lags, table):
            direct = sum(abs(row) ** 2)
            assert abs(direct - spectra.doppler_energy_f(m, k)) <= 1e-6
    s3 = masks.singer_mask(3)
    for k in range(1, 7):
        assert spectra.doppler_energy_f(s3, k) == 10
    _passed(5, "off-zero spectral energy equals (w-a)(N-w+a) within 1e-6")


def test_c06_upper_bound_equality_for_cds():
    cds_suite = [masks.singer_mask(m) for m in (3, 4, 5, 6)]
    cds_suite.append(masks.cyclic_shift(masks.singer_mask(4), 6))
    for m in cds_suite:
        for mu4 in (1.0, 1.32):
            b = metrics.doppler_sidelobe_sum(m, mu4)
            assert math.isclose(b.value, b.upper, rel_tol=1e-9), m.label
    b3 = metrics.doppler_sidelobe_sum(masks.singer_mask(3), 1.32)
    assert b3.value == pytest.approx(83.04, rel=1e-12)
    assert b3.upper == pytest.approx(83.04, rel=1e-12)

    rng = np.random.Generator(np.random.Philox(key=606))
    checked = 0
    while checked < 500:
        n = int(rng.integers(10, 65))
        w = int(rng.integers(2, n - 1))
        m = masks.random_mask(n, w, int(rng.integers(0, 2 ** 31)))
        if masks.verify_cds(m).is_cds:
            continue
        b = metrics.doppler_sidelobe_sum(m, 1.32)
        assert b.value < b.upper, m.label
        checked += 1
    _passed(6, "upper bound met exactly by difference sets, strictly above 500 others")


def test_c07_lower_bound_equality_for_combs():
    b = metrics.doppler_sidelobe_sum(masks.comb_mask(6, 3), 1.0)
    assert b.value == 32.0 and b.lower == 32.0 and b.value == b.lower
    for d, mu4 in ((3, 1.0), (3, 1.32)):
        bc = metrics.doppler_sidelobe_sum(masks.comb_mask(63, d), mu4)
        assert bc.value == bc.lower
    suite = [masks.singer_mask(m) for m in (3, 4, 5, 6)]
    suite += random_mask_suite(100, seed=707)
    for m in suite:
        bb = metrics.doppler_sidelobe_sum(m, 1.32)
        assert bb.lower <= bb.value + 1e-9 * max(1.0, bb.value)
    _passed(7, "lower bound met exactly by comb masks, respected by all")


def test_c08_exhaustive_worst_case_minimality():
    t0 = time.perf_counter()
    for mu4 in (1.0, 1.32):
        j_by_mask = {}
        cds_masks = set()
        for supp in itertools.combinations(range(7), 3):
            m = masks.custom_mask([1 if i in supp else 0 for i in range(7)])
            j_by_mask[supp] = metrics.worst_case_doppler_sum(m, mu4)
            if masks.verify_cds(m).is_cds:
                cds_masks.add(supp)
        min_j = min(j_by_mask.values())
        argmin = {s for s, v in j_by_mask.items()
                  if math.isclose(v, min_j, rel_tol=1e-12)}
        assert argmin == cds_masks
        assert len(argmin) == 14  # 7 shifts x 2 reflections of {1,2,4}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(8, f"worst-case sum minimized exactly on the 35-mask space ({elapsed:.2f}s)")


def test_c09_moment_table():
    qpsk = mc.make_constellation("qpsk")
    assert qpsk.mu4 == 1.0 and qpsk.mu4_exact == Fraction(1)
    assert QAM16.mu4 == 1.32 and QAM16.mu4_exact == Fraction(33, 25)
    qam64 = mc.make_constellation("qam64")
    assert qam64.mu4_exact == Fraction(29, 21)
    for c in (qpsk, QAM16, qam64):
        pts = c.points
        assert abs(np.mean(pts)) <= 1e-12
        assert abs(np.mean(pts ** 2)) <= 1e-12
        assert abs(np.mean(np.abs(pts) ** 2) - 1.0) <= 1e-12
    _passed(9, "constellation moments exact (qpsk 1, qam16 33/25, qam64 29/21)")


def test_c10_design_point_closed_forms_vs_oracle():
    t0 = time.perf_counter()
    s6 = masks.singer_mask(6)
    p = response.ScenarioParams(mask=s6, M=50, mu4=QAM16.mu4)

    # closed forms at the design point
    for k in (1, 20, 62):
        assert response.expected_response(p, k, k, 0) == pytest.approx(640256, rel=1e-12)
        assert response.expected_response(p, k, k, 7) == pytest.approx(256, rel=1e-12)

    # qualitative structure: grating lobes only at nu = 0 mod 50
    for k in (5, 20):
        local = response.moderate_slice(p, k)
        assert np.ptp(local[1:]) == 0.0
        floor = local[1]
        for nu in (1, 49, 51, 99, 3149):
            if nu % 50:
                assert response.expected_response(p, k, k, nu) == floor
        lobes = response.grating_lobes(p, k)
        assert lobes.max() > 100 * floor

    # fixed k = 20 surface is flat along nu off the diagonal
    grid = response.build_grid(p, (20,), tuple(range(1, 63)),
                               (0, 17, 500, 3000))
    for j, l in enumerate(grid.l_set):
        if l != 20:
            assert np.ptp(grid.values[0, j, :]) == 0.0

    # Monte Carlo agreement at 5 sampled delays, 2e4 trials each
    rng = np.random.Generator(np.random.Philox(key=1010))
    ks = sorted(rng.choice(np.arange(1, 63), size=5, replace=False).tolist())
    triples = []
    for k in ks:
        triples.append((k, k, 0))
        triples.append((k, k, int(rng.integers(1, 50))))
    pts = mc.mc_points(s6, 50, QAM16, triples, trials=2 * 10 ** 4, seed=1010)
    for pt in pts:
        assert abs(pt.z) <= 3.0, (pt.k, pt.nu, pt.z)
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _passed(10, f"mainlobe 640256 / floor 256 confirmed by 2e4-trial oracle ({elapsed:.1f}s)")


def test_c11_double_sum_oracle_every_index():
    t0 = time.perf_counter()
    m = masks.singer_mask(3)
    p = response.ScenarioParams(mask=m, M=4, mu4=QAM16.mu4)
    for k in range(1, 7):
        for l in range(1, 7):
            for nu in range(28):
                want = response.expected_response(p, k, l, nu)
                got = mc.expectation_by_double_sum(m, 4, QAM16, k, l, nu)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    elapsed = time.perf_counter() - t0
    _passed(11, f"double-sum oracle matches branch formulas at all 1008 points ({elapsed:.1f}s)")


def test_c12_determinism(tmp_path):
    # CLI: identical config and seed give byte-identical files
    out = str(tmp_path / "d")
    argv = ["response", "both", "--mask", "singer:m=4", "--M", "4",
            "--constellation", "qam16", "--k", "1,3", "--l", "2,3",
            "--nu", "0,5", "--trials", "400", "--seed", "77", "--out", out]
    assert cli.main(argv) == 0
    path = os.path.join(out, "response_both.csv")
    with open(path, "rb") as fh:
        first = fh.read()
    assert cli.main(argv) == 0
    with open(path, "rb") as fh:
        assert fh.read() == first

    # evaluation-order independence: each grid point reproduces standalone
    s4 = masks.singer_mask(4)
    k_set, l_set, nu_set = (1, 3), (2, 3), (0, 5)
    rep = mc.validate_grid(s4, 4, QAM16, k_set, l_set, nu_set,
                           trials=400, seed=77)
    triples = [(k, l, nu) for k in k_set for l in l_set for nu in nu_set]
    order = np.random.Generator(np.random.Philox(key=3)).permutation(len(triples))
    for i in order:
        k, l, nu = triples[i]
        scen = mc.EchoScenario(mask=s4, M=4, constellation=QAM16,
                               true_delay=k, nu=nu)
        est = mc.estimate(scen, l, 400, seed=77, stream=int(i))
        assert est.mean_sq == rep[i].mc_mean
        assert est.se == rep[i].mc_se
    _passed(12, "byte-identical reruns; per-point streams independent of order")
