import dataclasses
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given

from maskrd import cli, masks, metrics, response, spectra
from conftest import any_mask, brute_autocorr, qr_mask, random_mask_suite, scenario


def brute_doppler_sum(mask, mu4):
    n, w = mask.n, mask.weight
    a = spectra.autocorr(mask)
    total = 0.0
    for k in range(1, n):
        f = (w - int(a[k])) * (n - w + int(a[k]))
        total += f + (n - 1) * (mu4 - 1) * (w - int(a[k]))
    return total


def test_fluctuation_cds_is_flat():
    report = metrics.metrics_report(masks.singer_mask(6), 50, 1.32)
    assert metrics.doppler_sidelobe_sum(masks.singer_mask(6), 1.32).upper_gap == 0
    assert report.mainlobe_min == report.mainlobe_max == pytest.approx(640256, rel=1e-12)
    assert report.ptp_ratio == 1


def test_fluctuation_comb_is_extreme():
    report = metrics.metrics_report(masks.comb_mask(63, 3), 1, 1.0)
    assert report.mainlobe_min == 0
    assert report.mainlobe_max == 441  # (rho N)^2
    assert math.isinf(report.ptp_ratio)


def test_fluctuation_random_mask_positive_unless_cds():
    for m in random_mask_suite(20, seed=51, lo=8, hi=40):
        levels = metrics.mainlobe_levels(scenario(m, 2, 1.0))
        gap = metrics.doppler_sidelobe_sum(m, 1.0).upper_gap
        if masks.verify_cds(m).is_cds:
            assert levels.min() == levels.max() and gap == 0
        else:
            assert levels.min() < levels.max() and gap > 0


def test_peak_range_sidelobe():
    p = scenario(masks.singer_mask(3), 1, 1.0)
    assert metrics.peak_range_sidelobe(p) == 1
    p2 = scenario(masks.singer_mask(3), 2, 1.0)
    assert metrics.peak_range_sidelobe(p2) == 2
    # comb: pairs with exactly one blanked delay reach the brute-force peak
    comb = masks.comb_mask(63, 3)
    r = spectra.cross_term_matrix(comb)[1:, 1:].copy()
    np.fill_diagonal(r, 0)
    assert metrics.peak_range_sidelobe(scenario(comb, 1, 1.0)) == r.max()
    assert r.max() == 21  # blanked row against an open column collects rho N
    # the max over k != l in 1..N-1, on masks with and without zero sidelobes
    for m in random_mask_suite(20, seed=83):
        r = spectra.cross_term_matrix(m)[1:, 1:].copy()
        np.fill_diagonal(r, 0)
        assert metrics.peak_range_sidelobe(scenario(m, 3, 1.0)) == 3 * r.max(), m.label


@pytest.mark.parametrize("m", range(3, 11))
def test_singer_peak_range_sidelobe_certificate(m):
    # R[k,l] = a[l-k] - T(k,l) = lambda - T(k,l) off the diagonal, and the
    # translates of a Singer set are hyperplanes of PG(m-1, 2): three
    # independent ones share 2^(m-3) - 1 points, so max R = 2^(m-3)
    p = scenario(masks.singer_mask(m), 5, 1.0)
    assert metrics.peak_range_sidelobe(p) == 5 * 2 ** (m - 3)


@pytest.mark.parametrize("m_pri", [2 ** 62, 2 ** 63 - 1])
def test_peak_range_sidelobe_past_int64_is_exact(m_pri):
    # max R = 2 at singer:m=4, so M R is 2**63 or more, where int64 wraps
    p = scenario(masks.singer_mask(4), m_pri, 1.32)
    assert metrics.peak_range_sidelobe(p) == float(2 * m_pri)


@pytest.mark.parametrize("spec", ["singer:m=3", "singer:m=4"])
def test_a_numpy_integer_M_reports_as_the_python_int(spec):
    # as an int64, M N and M R wrap past 2**63
    mask = masks.from_spec(spec)
    want = metrics.metrics_report(mask, 2 ** 62, 1.32)
    assert metrics.metrics_report(mask, np.int64(2 ** 62), 1.32) == want


def test_avg_range_sidelobe():
    s3 = masks.singer_mask(3)
    r = spectra.cross_term_matrix(s3)[1:, 1:]
    brute_mean = (r.sum() - np.trace(r)) / (30)
    assert metrics.avg_range_sidelobe(7, s3.rho) == pytest.approx(brute_mean, rel=1e-12)
    assert metrics.avg_range_sidelobe(7, s3.rho) == pytest.approx(0.8, rel=1e-12)
    # single pulse: w = 1 makes every off-diagonal level vanish
    assert metrics.avg_range_sidelobe(9, masks.random_mask(9, 1, 3).rho) == 0
    # mask independence at equal N, rho
    assert metrics.avg_range_sidelobe(63, masks.singer_mask(6).rho) == \
        metrics.avg_range_sidelobe(63, masks.random_mask(63, 31, 5).rho)
    with pytest.raises(ValueError):
        metrics.avg_range_sidelobe(2, 0.5)
    with pytest.raises(TypeError):
        metrics.avg_range_sidelobe(3.5, Fraction(1, 2))


def test_doppler_sum_singer3_equals_upper():
    b = metrics.doppler_sidelobe_sum(masks.singer_mask(3), 1.32)
    assert b.value == pytest.approx(83.04, rel=1e-12)
    assert b.upper == pytest.approx(83.04, rel=1e-12)
    assert b.attains_upper()
    assert not b.attains_lower()


def test_doppler_sum_comb_equals_lower_exactly():
    b = metrics.doppler_sidelobe_sum(masks.comb_mask(6, 3), 1.0)
    assert b.value == 32.0
    assert b.lower == 32.0
    assert b.value == b.lower
    b2 = metrics.doppler_sidelobe_sum(masks.comb_mask(63, 3), 1.32)
    assert b2.value == b2.lower


def test_doppler_sum_matches_per_k_brute_force():
    for m in random_mask_suite(25, seed=53):
        for mu4 in (1.0, 1.32):
            b = metrics.doppler_sidelobe_sum(m, mu4)
            assert b.value == pytest.approx(brute_doppler_sum(m, mu4), rel=1e-12)
            scale = max(1.0, abs(b.value))
            assert b.lower <= b.value + 1e-9 * scale
            assert b.value <= b.upper + 1e-9 * scale


@given(any_mask(3, 120))
def test_doppler_sum_tradeoff_identities(mask):
    # at mu4 = 1 the bounds' gaps are their f-parts; a from the definition
    n, w = mask.n, mask.weight
    a = brute_autocorr(mask.bits)[1:]
    b = metrics.doppler_sidelobe_sum(mask, 1.0)
    assert b.value - b.lower == sum(x * (w - x) for x in a)
    assert (n - 1) * (b.upper - b.value) == pytest.approx(
        (n - 1) * sum(x * x for x in a) - sum(a) ** 2, rel=1e-12, abs=1e-6)
    assert b.lower_gap == sum(x * (w - x) for x in a)
    assert b.upper_gap == (n - 1) * sum(x * x for x in a) - sum(a) ** 2


def test_broken_doppler_energy_exits_numeric(monkeypatch, tmp_path, capsys):
    real = spectra.doppler_energy
    monkeypatch.setattr(spectra, "doppler_energy", lambda a, n, w: real(a, n, w) + 1)
    argv = ["metrics", "--mask", "singer:m=4", "--M", "3", "--mu4", "1.0",
            "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: Doppler sidelobe sum of singer:m=4 breaks its tradeoff identities"]
    assert not (tmp_path / "metrics.csv").exists()


def test_doppler_sum_refuses_int64_overflow_before_any_autocorr(monkeypatch, capsys):
    # a[k] <= w bounds the int64 sums by w N^2; stand-ins, so no 2^21-bit mask
    def reached(mask):
        raise LookupError(f"{mask.label} passed the guard")

    monkeypatch.setattr(spectra, "autocorr", reached)
    big = SimpleNamespace(n=2 ** 21, weight=2 ** 21, label="big")  # w N^2 = 2^63
    with pytest.raises(ValueError, match="big is too large for exact Doppler sums"):
        metrics.doppler_sidelobe_sum(big, 1.0)
    largest = SimpleNamespace(n=2 ** 21, weight=2 ** 21 - 1, label="largest")
    with pytest.raises(LookupError, match="largest passed the guard"):
        metrics.doppler_sidelobe_sum(largest, 1.0)
    monkeypatch.setattr(cli, "mask_from_arg", lambda text: big)
    assert cli.main(["bounds", "--mask", "big", "--mu4", "1.0"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: big is too large")


def polarized(mask):
    # autocorrelation takes only the values {w, 0} off zero, w-1 times w
    a = sorted(int(v) for v in spectra.autocorr(mask)[1:])
    n, w = mask.n, mask.weight
    return a == [0] * (n - w) + [w] * (w - 1)


def test_bound_equality_iff_structure():
    # equality with the upper bound happens exactly for constant a[k],
    # with the lower bound exactly for polarized a[k]; the QR mask at
    # p = 40009 misses the upper bound by a relative 8.3e-10 only
    rng = np.random.Generator(np.random.Philox(key=71))
    suite = [masks.singer_mask(3), masks.singer_mask(5),
             masks.comb_mask(6, 3), masks.comb_mask(63, 3),
             masks.cyclic_shift(masks.comb_mask(20, 5), 3),
             masks.custom_mask([1, 0, 0, 0, 0, 1, 0, 0, 0, 0]),
             qr_mask(43), qr_mask(40009)]
    for _ in range(200):
        n = int(rng.integers(7, 65))
        w = int(rng.integers(2, n))
        suite.append(masks.random_mask(n, w, int(rng.integers(2 ** 31))))
    for m in suite:
        for mu4 in (1.0, 1.32):
            b = metrics.doppler_sidelobe_sum(m, mu4)
            assert b.attains_upper() == masks.verify_cds(m).is_cds, m.label
            assert b.attains_lower() == polarized(m), m.label


def _every_small_mask():
    """Every mask with slot 0 set and 3 <= N <= 12: 4082 masks, and a shift keeps a[k]."""
    for n in range(3, 13):
        for tail in itertools.product((0, 1), repeat=n - 1):
            if not all(tail):
                yield masks.custom_mask((1, *tail))


def test_bound_equality_iff_structure_for_every_small_mask():
    # the lower bound holds with equality for the combs alone, the upper one
    # for the difference sets alone
    for m in _every_small_mask():
        n = m.n
        comb = n % m.weight == 0 and m == masks.cyclic_shift(
            masks.comb_mask(n, n // m.weight), m.support[0])
        b = metrics.doppler_sidelobe_sum(m, 1.0)
        assert b.attains_lower() == comb, m.bits
        assert b.attains_upper() == masks.verify_cds(m).is_cds, m.bits


def test_worst_case_doppler_facts_for_every_small_mask():
    # With q, r = divmod(w (w - 1), N - 1) and g(x) = f(x) + (N-1)(mu4-1)(w - x),
    # concave and decreasing over the feasible a[k]: J = g(min a) >= g(q), with
    # equality iff every a[k] >= q, and sum a^2 >= (N-1-r) q^2 + r (q+1)^2, with
    # equality iff every a[k] is q or q + 1.
    def g(x, n, w, mu4):  # in worst_case_doppler_sum's order of operations
        return (w - x) * (n - w + x) + (n - 1) * (mu4 - 1) * (w - x)

    for m in _every_small_mask():
        n, w = m.n, m.weight
        a = spectra.autocorr(m)[1:].tolist()
        q, r = divmod(w * (w - 1), n - 1)
        squares, least = sum(v * v for v in a), (n - 1 - r) * q * q + r * (q + 1) ** 2
        assert squares >= least, m.bits
        assert (squares == least) == all(v in (q, q + 1) for v in a), m.bits
        for mu4 in (1.0, 1.32, 2.0):
            j = metrics.worst_case_doppler_sum(m, mu4)
            assert j == g(min(a), n, w, mu4), (m.bits, mu4)
            assert j >= g(q, n, w, mu4), (m.bits, mu4)
            assert (j == g(q, n, w, mu4)) == (min(a) >= q), (m.bits, mu4)


def test_jensen_step_constant_profile_never_decreases_sum():
    # replacing a[k] by its mean never decreases the f-sum (concavity)
    for m in random_mask_suite(15, seed=59):
        n, w = m.n, m.weight
        a = spectra.autocorr(m)[1:]
        sum_f = float(((w - a) * (n - w + a)).sum())
        mean_a = float(a.sum()) / (n - 1)
        flat = (n - 1) * (w - mean_a) * (n - w + mean_a)
        assert sum_f <= flat + 1e-9


def test_worst_case_doppler_sum():
    assert metrics.worst_case_doppler_sum(masks.singer_mask(3), 1.0) == 10
    assert metrics.worst_case_doppler_sum(masks.comb_mask(6, 3), 1.0) == 8
    # singer:m=3 has a[k] = 1 and f(a[k]) = 10 at every k, and w - a[k] = 2
    assert metrics.worst_case_doppler_sum(masks.singer_mask(3), 1.32) == \
        pytest.approx(10 + 6 * 0.32 * 2, rel=1e-12)


@pytest.mark.parametrize("mu4", [0.5, math.nan, math.inf, -math.inf])
def test_mu4_must_be_finite_and_at_least_one(mu4):
    m = masks.singer_mask(3)
    with pytest.raises(ValueError):
        metrics.doppler_sidelobe_sum(m, mu4)
    with pytest.raises(ValueError):
        metrics.worst_case_doppler_sum(m, mu4)
    with pytest.raises(ValueError):
        metrics.metrics_report(m, 2, mu4)


def test_no_equal_duty_mask_beats_cds_worst_case():
    # 1000 random masks at N=31, w=15: none undercuts the difference set
    s5 = masks.singer_mask(5)
    j5 = metrics.worst_case_doppler_sum(s5, 1.0)
    for seed in range(1000):
        m = masks.random_mask(31, 15, seed)
        assert metrics.worst_case_doppler_sum(m, 1.0) >= j5


def test_minimum_worst_case_over_all_weight3_period7_masks():
    best = {}
    for supp in itertools.combinations(range(7), 3):
        bits = [1 if i in supp else 0 for i in range(7)]
        m = masks.custom_mask(bits)
        best[supp] = (metrics.worst_case_doppler_sum(m, 1.0),
                      masks.verify_cds(m).is_cds,
                      int(spectra.autocorr(m)[1:].min()))
    min_j = min(v[0] for v in best.values())
    argmin = {s for s, v in best.items() if v[0] == min_j}
    cds_set = {s for s, v in best.items() if v[1]}
    assert argmin == cds_set
    assert len(argmin) == 14
    # never attained by a mask with smaller autocorrelation floor
    floor_at_min = {best[s][2] for s in argmin}
    assert floor_at_min == {max(v[2] for v in best.values())}


def test_minimum_worst_case_period11_weight5():
    vals = []
    for supp in itertools.combinations(range(11), 5):
        bits = [1 if i in supp else 0 for i in range(11)]
        m = masks.custom_mask(bits)
        vals.append((metrics.worst_case_doppler_sum(m, 1.32),
                     masks.verify_cds(m).is_cds))
    min_j = min(v[0] for v in vals)
    winners = [v for v in vals if v[0] == min_j]
    assert all(v[1] for v in winners)
    assert any(v[1] for v in vals)


def test_mean_doppler_sidelobe_closed_form():
    m = masks.singer_mask(3)
    p = scenario(m, 4, 1.0)
    per_k = metrics.mean_doppler_sidelobe(p)
    # mu4 = 1 and a CDS: only grating bins contribute, M^2 f / (MN - 1)
    want = 16 * 10 / 27
    assert per_k.shape == (6,)
    assert np.allclose(per_k, want, rtol=1e-12)
    # brute check against pointwise closed form at one k
    vals = [response.expected_response(p, 2, 2, nu) for nu in range(1, 28)]
    assert per_k[1] == pytest.approx(np.mean(vals), rel=1e-12)


def test_mean_doppler_sidelobe_huge_m_is_exact():
    # M^2 f(a) ~ 7.5e20 overflows int64; compare with an exact rational value
    m_pri, mu4 = 10 ** 9, 1.32
    for mask in (masks.singer_mask(6), masks.random_mask(40, 13, seed=9)):
        n, w = mask.n, mask.weight
        total = m_pri * n
        a = spectra.autocorr(mask)
        want = [(m_pri ** 2 * (w - int(a[k])) * (n - w + int(a[k]))
                 + (total - 1) * (Fraction(mu4) - 1) * m_pri * (w - int(a[k])))
                / (total - 1) for k in range(1, n)]
        got = metrics.mean_doppler_sidelobe(scenario(mask, m_pri, mu4))
        assert got == pytest.approx([float(v) for v in want], rel=1e-12)
    worst = metrics.metrics_report(masks.singer_mask(6), m_pri, mu4).worst_mean_doppler_sl
    assert f"{worst:.11e}" == "1.70565079367e+10"


def test_mean_doppler_sidelobe_normalizations():
    m = masks.comb_mask(63, 3)
    p = scenario(m, 5, 1.32)
    plain = metrics.mean_doppler_sidelobe(p, "none")
    byrho = metrics.mean_doppler_sidelobe(p, "by_rho")
    assert np.allclose(byrho, plain * 3.0, rtol=1e-12)
    assert plain[2] == 0  # blanked delay k = 3
    bymain = metrics.mean_doppler_sidelobe(p, "by_mainlobe")
    assert bymain[2] == 0  # 0/0 convention
    with pytest.raises(ValueError):
        metrics.mean_doppler_sidelobe(p, "by_magic")


def test_mean_doppler_by_mainlobe_zero_handling():
    # a blanked delay zeroes mainlobe and mean together: 0/0 reports as 0,
    # open delays divide through normally
    m = masks.comb_mask(6, 3)
    p = scenario(m, 2, 1.0)
    plain = metrics.mean_doppler_sidelobe(p, "none")
    bymain = metrics.mean_doppler_sidelobe(p, "by_mainlobe")
    main = metrics.mainlobe_levels(p)
    assert main[2] == 0 and bymain[2] == 0
    for i in (0, 1, 3, 4):
        assert bymain[i] == plain[i] / main[i]
        assert np.isfinite(bymain[i])
    # the elementwise reference rule, over masks with and without blanked delays
    for m in [masks.comb_mask(63, 3), masks.comb_mask(20, 4)] + random_mask_suite(8, seed=53):
        for m_pri, mu4 in ((1, 1.0), (7, 1.32)):
            p = scenario(m, m_pri, mu4)
            plain = metrics.mean_doppler_sidelobe(p, "none")
            main = metrics.mainlobe_levels(p)
            want = [x / y if y > 0 else (0.0 if x == 0 else math.inf)
                    for x, y in zip(plain, main)]
            got = metrics.mean_doppler_sidelobe(p, "by_mainlobe")
            assert got.tolist() == want
            assert np.isfinite(got).all()  # a zero mainlobe has a zero mean


@pytest.mark.parametrize("normalization", metrics.NORMALIZATIONS)
def test_report_autocorr_calls_do_not_depend_on_normalization(monkeypatch, normalization):
    calls, ffts = [], []
    original, original_rfft = spectra.autocorr, np.fft.rfft

    def counted(mask):
        calls.append(mask)
        return original(mask)

    def counted_rfft(*args, **kwargs):
        ffts.append(args[0])
        return original_rfft(*args, **kwargs)

    monkeypatch.setattr(spectra, "autocorr", counted)
    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    metrics.metrics_report(masks.singer_mask(5), 4, 1.32, normalization)
    # every autocorrelation a report computes is a counted autocorr call
    assert len(calls) == 6
    assert len(ffts) == 6


def test_flatness_vs_doppler_sum_tradeoff():
    # constant-autocorrelation masks: flat mainlobe but maximal Doppler sum;
    # combs: minimal Doppler sum but unbounded fluctuation ratio
    for deg in (3, 4, 5):
        m = masks.singer_mask(deg)
        levels = metrics.mainlobe_levels(scenario(m, 4, 1.32))
        assert levels.min() == levels.max()
        assert metrics.doppler_sidelobe_sum(m, 1.32).upper_gap == 0
    for n, d in ((6, 3), (63, 3), (20, 4)):
        m = masks.comb_mask(n, d)
        b = metrics.doppler_sidelobe_sum(m, 1.32)
        assert b.value == b.lower
        assert math.isinf(metrics.metrics_report(m, 4, 1.0).ptp_ratio)


def test_report_rows_and_format():
    # the record is the CSV row: its fields are the REPORT_HEADER columns, in order
    assert len(dataclasses.fields(metrics.MaskMetrics)) == len(metrics.REPORT_HEADER)
    row = dataclasses.astuple(metrics.metrics_report(masks.singer_mask(3), 2, 1.0))
    assert row[:-1] == ("singer:m=3", 7, 3, Fraction(3, 7), True, 1, 16.0, 16.0, 1.0,
                        2.0, 0.8, 60.0, 48.0, 60.0, 10.0)
    assert row[-1] == pytest.approx(40 / 13, rel=1e-12)
    singer, rand, comb = (
        metrics.metrics_report(m, 50, 1.32)
        for m in (masks.singer_mask(6), masks.random_mask(63, 31, 7),
                  masks.comb_mask(63, 3)))
    assert singer.is_cds and singer.lam == 15
    assert not rand.is_cds and rand.lam is None
    assert singer.doppler_sum == pytest.approx(singer.doppler_sum_upper, rel=1e-12)
    assert comb.doppler_sum == comb.doppler_sum_lower
    assert rand.doppler_sum_lower < rand.doppler_sum < rand.doppler_sum_upper
