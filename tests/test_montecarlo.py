import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maskrd import masks, montecarlo as mc, response


QPSK = mc.make_constellation("qpsk")
QAM16 = mc.make_constellation("qam16")
QAM64 = mc.make_constellation("qam64")
PSK3 = mc.custom_constellation(np.exp(2j * np.pi * np.arange(3) / 3), name="psk3")


def test_builtin_moment_table():
    assert QPSK.mu4 == 1.0
    assert QAM16.mu4 == 1.32
    assert QAM16.mu4_exact == Fraction(33, 25)
    assert QAM64.mu4_exact == Fraction(29, 21)
    assert QAM64.mu4 == pytest.approx(29 / 21, rel=1e-15)
    for c in (QPSK, QAM16, QAM64):
        pts = c.points
        assert abs(np.mean(pts)) <= 1e-12
        assert abs(np.mean(pts ** 2)) <= 1e-12
        assert abs(np.mean(np.abs(pts) ** 2) - 1) <= 1e-12
        assert np.mean(np.abs(pts) ** 4) == pytest.approx(c.mu4, rel=1e-12)


def test_custom_constellation_validation():
    pts = mc.custom_constellation([2, 2j, -2, -2j])
    assert pts.mu4 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mc.custom_constellation([1, 1j, -1, 1j])   # nonzero mean
    with pytest.raises(ValueError):
        mc.custom_constellation([1, -1])           # nonzero pseudo-variance
    with pytest.raises(ValueError):
        mc.custom_constellation([1])
    # NaN moments fail the checks instead of passing every comparison
    for bad in ([1, 1j, -1, complex("nan")], [1, 1j, -1, -1j, math.inf]):
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            mc.custom_constellation(bad)
    with pytest.raises(ValueError):
        mc.make_constellation("psk1024")


def test_draw_stream_layout_and_determinism():
    m = masks.singer_mask(3)
    st = mc.draw_stream(m, 4, QAM16, seed=5)
    assert len(st) == 4 * 7 + 6
    gate = m.as_array()
    for j, v in enumerate(st):
        i = j - 6
        if gate[i % 7] == 0:
            assert v == 0
        else:
            assert v != 0
    assert np.array_equal(st, mc.draw_stream(m, 4, QAM16, seed=5))
    assert not np.array_equal(st, mc.draw_stream(m, 4, QAM16, seed=6))
    assert not np.array_equal(st, mc.draw_stream(m, 4, QAM16, seed=5, trial=1))


@pytest.mark.parametrize("trial, stream", [(0, 0), (1, 0), (7, 3), (0, 5), (2 ** 40, 2 ** 33)])
def test_draw_stream_counter_layout(trial, stream):
    # trial t of stream s starts Philox at the counter (s << 192) | (t << 128),
    # and symbols are the indices Generator.integers draws from that state
    m, seed = masks.random_mask(11, 4, seed=2), 1234
    n = m.n
    gate = m.as_array()[(np.arange(3 * n + n - 1) - (n - 1)) % n]
    for const in (QPSK, QAM16, QAM64, PSK3):
        rng = np.random.Generator(np.random.Philox(
            key=seed, counter=(stream << 192) | (trial << 128)))
        picks = rng.integers(0, len(const.points), size=len(gate))
        got = mc.draw_stream(m, 3, const, seed=seed, trial=trial, stream=stream)
        assert np.array_equal(got, const.points[picks] * gate)


def _lemire_reference(words, k):
    # numpy's bounded draw: scale by k, redraw while the low half is below
    # the threshold, keep the high half
    threshold = (2 ** 32 - k) % k
    out, it = [], iter(words)
    for x in it:
        m = x * k
        while m % 2 ** 32 < threshold:
            x = next(it, None)
            if x is None:
                return out
            m = x * k
        out.append(m >> 32)
    return out


@st.composite
def _words_with_rejections(draw):
    k = draw(st.integers(2, 200))
    # ceil(j 2**32 / k) leaves j 2**32 + (x k mod 2**32) with a low half
    # below k, which is rejected whenever it is below the threshold
    near = st.integers(0, k - 1).map(lambda j: -(-(j << 32) // k))
    word = st.one_of(st.integers(0, 2 ** 32 - 1), near, st.just(0))
    return k, draw(st.lists(word, max_size=40))


@given(_words_with_rejections())
def test_lemire_map_matches_reference(case):
    k, words = case
    arr = np.array(words, dtype=np.uint32)
    got = mc._symbol_index(mc._accepted(arr, k), k)
    assert got.tolist() == _lemire_reference(words, k)


def test_lemire_rejection_examples():
    # k = 3 rejects only x = 0; k = 6 also rejects ceil(2**32 / 6)
    words = [0, 5, 0, 2 ** 32 - 1, 0]
    assert mc._symbol_index(mc._accepted(np.array(words, dtype=np.uint32), 3),
                            3).tolist() == [0, 2] == _lemire_reference(words, 3)
    x = -(-(1 << 32) // 6)
    assert (x * 6) % 2 ** 32 < (2 ** 32 - 6) % 6
    assert mc._accepted(np.array([x, 7], dtype=np.uint32), 6).tolist() == [7]
    assert mc._accepted(np.array([0, x], dtype=np.uint32), 16).tolist() == [0, x]


class _ScriptedPool:
    """Stands in for _TrialRngPool: hands out fixed chunks of words."""

    def __init__(self, *chunks):
        self.chunks = [np.array(c, dtype=np.uint32) for c in chunks]

    def words(self, trial, stream, count):
        return self.more(count)

    def more(self, count):
        return self.chunks.pop(0)


def test_symbol_words_draws_past_rejections():
    # rejected words (x = 0 for k = 3) are replaced by further draws
    pool = _ScriptedPool([0, 11, 0, 12], [0, 0], [13, 14])
    got = mc._symbol_words(pool, 0, 0, 3, 3)
    assert got.tolist() == [11, 12, 13, 14]
    assert pool.chunks == []


def _definition_estimate(scen, l, trials, seed, stream):
    vals = np.array([abs(mc.correlate(scen, mc.draw_stream(
        scen.mask, scen.M, scen.constellation, seed, trial=t, stream=stream), l)) ** 2
        for t in range(trials)])
    return float(np.mean(vals)), float(math.sqrt(np.var(vals, ddof=1) / trials))


@pytest.mark.parametrize("const", [QPSK, QAM16, QAM64, PSK3], ids=lambda c: c.name)
@pytest.mark.parametrize("block_bytes", [
    mc._BLOCK_BYTES,   # as shipped
    1,                 # one trial per block
    16 * 7 * 8,        # uneven blocks
])
def test_estimate_equals_definition_bitwise(const, block_bytes, monkeypatch):
    monkeypatch.setattr(mc, "_BLOCK_BYTES", block_bytes)
    cases = [
        (masks.singer_mask(3), 4, 2, 2, 1, 0, 23),
        (masks.singer_mask(4), 2, 3, 7, 5, 1, 31),
        (masks.comb_mask(12, 4), 3, 1, 5, 0, 2, 19),
        (masks.comb_mask(6, 3), 4, 3, 3, 2, 0, 9),           # empty kernel
        (masks.random_mask(20, 8, seed=3), 5, 5, 5, 7, 3, 41),
        (masks.random_mask(20, 8, seed=3), 1, 6, 11, 13, 4, 17),
    ]
    for mask, m_pri, k, l, nu, stream, trials in cases:
        scen = mc.EchoScenario(mask=mask, M=m_pri, constellation=const,
                               true_delay=k, true_doppler=0, trial_doppler=nu)
        est = mc.estimate(scen, l, trials, seed=29, stream=stream)
        assert (est.mean_sq, est.se) == _definition_estimate(scen, l, trials, 29, stream)
    assert est.se > 0
    assert mc.estimate(mc.EchoScenario(mask=masks.comb_mask(6, 3), M=4,
                                       constellation=const, true_delay=3,
                                       true_doppler=0, trial_doppler=2),
                       3, 9, seed=29) == mc.McEstimate(0.0, 0.0, 9, 29)


def test_draw_stream_energy_law_of_large_numbers():
    m = masks.singer_mask(5)
    vals = []
    for t in range(40):
        st = mc.draw_stream(m, 8, QAM16, seed=11, trial=t)
        nz = st[st != 0]
        vals.append(np.mean(np.abs(nz) ** 2))
    n_sym = 40 * len(nz)
    assert abs(np.mean(vals) - 1) <= 3 / math.sqrt(n_sym)


def test_qpsk_mainlobe_correlation_is_deterministic_count():
    m = masks.singer_mask(3)
    scen = mc.EchoScenario(mask=m, M=4, constellation=QPSK,
                           true_delay=1, true_doppler=0, trial_doppler=0)
    for t in range(5):
        st = mc.draw_stream(m, 4, QPSK, seed=3, trial=t)
        r = mc.correlate(scen, st, 1)
        assert r == 4 * (3 - 1)  # M (w - a[k]), exactly


def test_comb_blanked_echo_correlates_to_zero():
    comb = masks.comb_mask(6, 3)
    scen = mc.EchoScenario(mask=comb, M=4, constellation=QAM16,
                           true_delay=3, true_doppler=2, trial_doppler=2)
    st = mc.draw_stream(comb, 4, QAM16, seed=8)
    assert mc.correlate(scen, st, 3) == 0


def test_doppler_difference_only_dependence_bitwise():
    m = masks.singer_mask(4)
    st = mc.draw_stream(m, 3, QAM16, seed=21)
    outs = []
    for shift in (0, 5, 11):
        scen = mc.EchoScenario(mask=m, M=3, constellation=QAM16,
                               true_delay=2, true_doppler=3 + shift,
                               trial_doppler=9 + shift)
        outs.append(mc.correlate(scen, st, 5))
    assert outs[0] == outs[1] == outs[2]


def test_scenario_validation():
    # the range checks, and their wording, are those of response.build_grid
    m = masks.singer_mask(3)
    with pytest.raises(ValueError, match="^M must be positive, got 0$"):
        mc.EchoScenario(mask=m, M=0, constellation=QPSK,
                        true_delay=1, true_doppler=0, trial_doppler=0)
    with pytest.raises(ValueError, match="^true_delay=0 is the blind range$"):
        mc.EchoScenario(mask=m, M=4, constellation=QPSK,
                        true_delay=0, true_doppler=0, trial_doppler=0)
    with pytest.raises(ValueError, match=r"^true_doppler must be in 0\.\.27, got 28$"):
        mc.EchoScenario(mask=m, M=4, constellation=QPSK,
                        true_delay=1, true_doppler=28, trial_doppler=0)
    with pytest.raises(ValueError, match=r"^trial_doppler must be in 0\.\.27, got -1$"):
        mc.EchoScenario(mask=m, M=4, constellation=QPSK,
                        true_delay=1, true_doppler=0, trial_doppler=-1)
    scen = mc.EchoScenario(mask=m, M=4, constellation=QPSK,
                           true_delay=1, true_doppler=0, trial_doppler=1)
    st = mc.draw_stream(m, 4, QPSK, seed=1)
    with pytest.raises(ValueError, match="^l=0 is the blind range$"):
        mc.correlate(scen, st, 0)
    with pytest.raises(ValueError, match=r"^l must be in 1\.\.6, got 7$"):
        mc.estimate(scen, 7, 10, seed=1)
    with pytest.raises(ValueError):
        mc.estimate(scen, 1, 1, seed=1)
    with pytest.raises(ValueError, match=r"^k must be in 1\.\.6, got 7$"):
        mc.expectation_by_double_sum(m, 4, QPSK, 7, 1, 0)
    with pytest.raises(ValueError, match="^index sets must be non-empty$"):
        mc.validate_grid(m, 4, QPSK, (), (1,), (0,), trials=10, seed=1)


def test_qpsk_local_sidelobe_estimate_is_zero_with_zero_se():
    m = masks.singer_mask(3)
    scen = mc.EchoScenario(mask=m, M=4, constellation=QPSK,
                           true_delay=2, true_doppler=0, trial_doppler=3)
    est = mc.estimate(scen, 2, 50, seed=13)
    assert est.mean_sq <= 1e-18
    assert est.se == 0.0


def test_estimate_matches_closed_form_qam16():
    m = masks.singer_mask(3)
    p = response.ScenarioParams(mask=m, M=4, mu4=QAM16.mu4)
    scen = mc.EchoScenario(mask=m, M=4, constellation=QAM16,
                           true_delay=2, true_doppler=0, trial_doppler=1)
    est = mc.estimate(scen, 2, 8000, seed=2)
    closed = response.expected_response(p, 2, 2, 1)
    assert abs(est.mean_sq - closed) <= 3 * est.se
    assert est.se > 0


def test_offdiagonal_estimates_agree_across_doppler():
    m = masks.singer_mask(3)
    scen_a = mc.EchoScenario(mask=m, M=4, constellation=QAM16,
                             true_delay=1, true_doppler=0, trial_doppler=3)
    scen_b = mc.EchoScenario(mask=m, M=4, constellation=QAM16,
                             true_delay=1, true_doppler=0, trial_doppler=17)
    ea = mc.estimate(scen_a, 4, 6000, seed=5)
    eb = mc.estimate(scen_b, 4, 6000, seed=6)
    combined = math.hypot(ea.se, eb.se)
    assert abs(ea.mean_sq - eb.mean_sq) <= 3 * combined


def test_estimate_reproducibility_and_stream_separation():
    m = masks.singer_mask(3)
    scen = mc.EchoScenario(mask=m, M=4, constellation=QAM16,
                           true_delay=1, true_doppler=0, trial_doppler=2)
    a = mc.estimate(scen, 1, 300, seed=4)
    b = mc.estimate(scen, 1, 300, seed=4)
    c = mc.estimate(scen, 1, 300, seed=4, stream=1)
    assert a == b
    assert a.mean_sq != c.mean_sq


def test_validate_grid_points_and_determinism():
    m = masks.singer_mask(3)
    rep = mc.validate_grid(m, 4, QAM16, (1, 2), (1, 3), (0, 2),
                           trials=1500, seed=10)
    assert len(rep.points) == 8
    assert all(abs(p.z) <= 3.0 for p in rep.points)
    again = mc.validate_grid(m, 4, QAM16, (1, 2), (1, 3), (0, 2),
                             trials=1500, seed=10)
    assert rep.points == again.points
    # each point reproducible standalone with its stream id (order irrelevance)
    triples = [(k, l, nu) for k in (1, 2) for l in (1, 3) for nu in (0, 2)]
    for i in np.random.Generator(np.random.Philox(key=1)).permutation(8):
        k, l, nu = triples[i]
        scen = mc.EchoScenario(mask=m, M=4, constellation=QAM16,
                               true_delay=k, true_doppler=0, trial_doppler=nu)
        est = mc.estimate(scen, l, 1500, seed=10, stream=int(i))
        assert est.mean_sq == rep.points[i].mc_mean
        assert est.se == rep.points[i].mc_se


def test_validate_grid_budget():
    m = masks.singer_mask(3)
    with pytest.raises(mc.McBudgetError):
        mc.validate_grid(m, 4, QAM16, (1,), (1,), (0,),
                         trials=100, seed=0, budget=100)


def test_deterministic_points_require_exact_match():
    assert mc._z_score(5.0, 0.0, 5.0) == 0.0
    assert mc._z_score(5.0, 0.0, 5.0 + 1e-12) == 0.0
    assert math.isinf(mc._z_score(5.0, 0.0, 6.0))


def test_roundoff_se_counts_as_deterministic():
    # qpsk on a grating lobe of a non-CDS mask: |r|^2 is the same every
    # trial, so se is float roundoff and the point must score z = 0
    mask = masks.random_mask(20, 8, seed=3)
    point, = mc.mc_points(mask, 4, QPSK, [(5, 5, 8)], trials=40, seed=0)
    assert 0.0 < point.mc_se <= 1e-14
    assert abs(point.mc_mean - point.closed_form) <= 1e-12 * point.closed_form
    assert point.z == 0.0
    # a genuinely random point keeps its ordinary z-score
    point, = mc.mc_points(mask, 4, QPSK, [(5, 4, 8)], trials=40, seed=0)
    assert point.mc_se > 0.1
    assert point.z == (point.mc_mean - point.closed_form) / point.mc_se


def test_double_sum_oracle_matches_closed_forms():
    m = masks.singer_mask(3)
    p = response.ScenarioParams(mask=m, M=4, mu4=QAM16.mu4)
    for k, l in ((1, 1), (2, 2), (1, 2), (3, 5)):
        for nu in (0, 1, 4, 9, 27):
            want = response.expected_response(p, k, l, nu)
            got = mc.expectation_by_double_sum(m, 4, QAM16, k, l, nu)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_double_sum_oracle_qpsk_sidelobes_vanish():
    m = masks.singer_mask(3)
    for nu in (1, 2, 3):
        got = mc.expectation_by_double_sum(m, 4, QPSK, 1, 1, nu)
        assert abs(got) <= 1e-9


def test_desk_scale_suite_oracle_vs_closed_form():
    # N in {7, 15, 31} x M in {2, 4, 8} x {qpsk, qam16}, sampled points,
    # 1e4 trials: fraction beyond 3 standard errors stays below 2%
    rng = np.random.Generator(np.random.Philox(key=888))
    flagged = total = 0
    for deg in (3, 4, 5):
        mask = masks.singer_mask(deg)
        n = mask.n
        for m_pri in (2, 4, 8):
            for const in (QPSK, QAM16):
                triples = [(int(rng.integers(1, n)), int(rng.integers(1, n)),
                            int(rng.integers(0, m_pri * n))) for _ in range(3)]
                pts = mc.mc_points(mask, m_pri, const, triples,
                                   trials=10 ** 4, seed=int(rng.integers(2 ** 31)))
                flagged += sum(1 for p in pts if abs(p.z) > 3.0)
                total += len(pts)
    assert total == 54
    assert flagged / total < 0.02
