import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from maskrd import masks, montecarlo as mc, response


QPSK = mc.make_constellation("qpsk")
QAM16 = mc.make_constellation("qam16")
QAM64 = mc.make_constellation("qam64")


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


def test_constellation_refuses_bad_moments():
    for points, mu4_exact, error in [
        ([1, 1j, -1, 1j], Fraction(1), "nonzero mean"),
        ([1, -1], Fraction(1), "nonzero pseudo-variance"),
        # NaN moments fail the checks instead of passing every comparison
        ([1, 1j, -1, complex("nan")], Fraction(1), "nonzero mean"),
        ([1, 1j, -1, math.inf], Fraction(1), "nonzero mean"),
        ([2, 2j, -2, -2j], Fraction(1), "unit-energy"),  # refused, not rescaled
        ([1, 1j, -1, -1j], Fraction(1, 2), "mu4"),
        ([1, 1j, -1, -1j], Fraction(33, 25), "mu4"),  # not the points' fourth moment
    ]:
        with pytest.raises(ValueError, match=error), np.errstate(invalid="ignore"):
            mc.Constellation(name="x", points=np.array(points, dtype=complex),
                             mu4_exact=mu4_exact)
    for c in (QPSK, QAM16, QAM64):  # each built-in's mu4_exact is its fourth moment
        assert mc.Constellation(name=c.name, points=c.points, mu4_exact=c.mu4_exact) == c


def test_constellation_table():
    assert mc.CONSTELLATION_NAMES == tuple(mc._CONSTELLATIONS) == ("qpsk", "qam16", "qam64")
    for name in mc.CONSTELLATION_NAMES:
        assert mc.make_constellation(f" {name.upper()} ") is mc._CONSTELLATIONS[name]
    with pytest.raises(ValueError, match="unknown constellation"):
        mc.make_constellation("psk1024")
    # mu4 is read from mu4_exact, not stored beside it
    qam16 = mc.Constellation(name="x", points=QAM16.points, mu4_exact=Fraction(33, 25))
    assert qam16.mu4 == 1.32
    with pytest.raises(TypeError):
        mc.Constellation(name="x", points=QPSK.points, mu4=1.0, mu4_exact=Fraction(1))


@pytest.mark.parametrize("count", [0, 1, 3, 6])
def test_constellation_size_must_be_a_power_of_two(count):
    # the draw maps every random byte to a symbol only for a power-of-two size
    points = np.exp(2j * np.pi * np.arange(count) / max(count, 1))
    with pytest.raises(ValueError, match="not a power of two"):
        mc.Constellation(name="psk", points=points, mu4_exact=Fraction(1))


@pytest.mark.parametrize("count", [512, 1024])
def test_constellation_size_must_fit_a_byte(count):
    # one random byte is a symbol: the 8-bit draw rejects nothing up to 256 points
    points = np.exp(2j * np.pi * np.arange(count) / count)
    with pytest.raises(ValueError, match="more than the 256 of one random byte"):
        mc.Constellation(name="psk", points=points, mu4_exact=Fraction(1))
    assert mc.Constellation(name="psk", points=points[::count // 256],
                            mu4_exact=Fraction(1)).bits == 8


def _scenario(mask, m_pri, const, k, nu=0):
    return mc.EchoScenario(mask=mask, M=m_pri, constellation=const, true_delay=k, nu=nu)


def _active_slots(mask, m_pri, k, l):
    # the listen slots of the window whose replicas at delays k and l both
    # transmit, found slot by slot, in ascending order
    n, bits = mask.n, mask.bits
    return [s for s in range(m_pri * n)
            if not bits[s % n] and bits[(s - k) % n] and bits[(s - l) % n]]


def _read_positions(mask, m_pri, k, l):
    # the stream positions of x_(n-k) and x_(n-l) over the active slots n
    return sorted({s - d + mask.n - 1 for s in _active_slots(mask, m_pri, k, l)
                   for d in (k, l)})


def test_draw_stream_layout_and_determinism():
    m = masks.singer_mask(3)
    gate = m.as_array()
    for k, l in ((1, 1), (2, 5), (4, 1)):
        scen = _scenario(m, 4, QAM16, k)
        st = mc.draw_stream(scen, l, seed=5)
        assert len(st) == 4 * 7 + 6
        # a symbol sits exactly on the read positions, all of them transmit slots
        reads = _read_positions(m, 4, k, l)
        assert np.flatnonzero(st).tolist() == reads
        assert all(gate[(j - 6) % 7] for j in reads)
        assert np.array_equal(st, mc.draw_stream(scen, l, seed=5))
        assert not np.array_equal(st, mc.draw_stream(scen, l, seed=6))
        assert not np.array_equal(st, mc.draw_stream(scen, l, seed=5, trial=1))


def _uint8_draw(seed, stream, first, count, k):
    # the bytes Generator.integers(0, k, dtype=np.uint8) draws from stream,
    # starting at its 64-bit output first; one counter step makes four outputs
    bg = np.random.Philox(key=seed, counter=stream << 192)
    bg.advance(first // 4)
    skip = 8 * (first % 4)
    return np.random.Generator(bg).integers(0, k, size=skip + count, dtype=np.uint8)[skip:]


@pytest.mark.parametrize("trial, stream", [(0, 0), (1, 0), (7, 3), (0, 5), (2 ** 40, 2 ** 33),
                                           (2 ** 64 - 1, 2 ** 64 - 1)])
def test_draw_stream_counter_layout(trial, stream):
    # stream s is the uint8 draw of Generator.integers from the counter
    # s << 192; trial t takes W = ceil(U / 8) outputs of it, from output t W,
    # and byte j is the index of the j-th of the U positions the correlation reads
    m, seed = masks.random_mask(11, 4, seed=2), 1234
    for k, l, words in ((3, 3, 2), (3, 4, 2), (3, 7, 1)):  # U = 9, 9, 6
        reads = _read_positions(m, 3, k, l)
        assert -(-len(reads) // 8) == words
        for const in (QPSK, QAM16, QAM64):
            size = len(const.points)
            picks = _uint8_draw(seed, stream, trial * words, len(reads), size)
            if trial < 8:  # the same bytes, drawn from the start of the stream
                whole = np.random.Generator(np.random.Philox(key=seed, counter=stream << 192))
                start = 8 * words * trial
                drawn = whole.integers(0, size, size=start + len(reads), dtype=np.uint8)
                assert np.array_equal(drawn[start:], picks)
            want = np.zeros(3 * 11 + 10, dtype=complex)
            want[reads] = const.points[picks]
            got = mc.draw_stream(_scenario(m, 3, const, k), l, seed=seed,
                                 trial=trial, stream=stream)
            assert np.array_equal(got, want)


def test_trial_and_stream_must_fit_a_counter_word():
    m = masks.singer_mask(3)
    scen = mc.EchoScenario(mask=m, M=2, constellation=QPSK, true_delay=1, nu=0)
    for trial, stream in ((-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64)):
        name, value = ("trial", trial) if trial else ("stream", stream)
        error = rf"^{name} must be in 0\.\.2\*\*64 - 1, got {value}$"
        with pytest.raises(ValueError, match=error):
            mc.draw_stream(scen, 1, seed=1, trial=trial, stream=stream)
        if name == "stream":
            with pytest.raises(ValueError, match=error):
                mc.estimate(scen, 1, 2, seed=1, stream=stream)


def _lemire8_reference(data, k):
    # numpy's 8-bit bounded draw: scale a byte by k, redraw while the low
    # byte is below the threshold, keep the high byte
    threshold = (2 ** 8 - k) % k
    out, it = [], iter(data)
    for x in it:
        m = x * k
        while m % 2 ** 8 < threshold:
            x = next(it, None)
            if x is None:
                return out
            m = x * k
        out.append(m >> 8)
    return out


@given(st.integers(1, 8), st.lists(st.integers(0, 255), max_size=40))
def test_lemire_map_matches_reference(bits, data):
    # for K = 2**bits the top bits of a byte are Lemire's index (x K) >> 8
    got = mc._symbol_index(np.array(data, dtype=np.uint8), bits)
    assert got.dtype == np.uint8
    assert got.tolist() == _lemire8_reference(data, 2 ** bits)


def test_shift_map_matches_lemire_for_every_power_of_two():
    data = list(range(256))
    for bits in range(1, 9):
        got = mc._symbol_index(np.array(data, dtype=np.uint8), bits)
        assert got.tolist() == _lemire8_reference(data, 2 ** bits), bits


def _definition_estimate(scen, l, trials, seed, stream):
    r = np.array([mc.correlate(scen, mc.draw_stream(scen, l, seed, trial=t, stream=stream), l)
                  for t in range(trials)])
    vals = r.real ** 2 + r.imag ** 2
    return float(np.mean(vals)), float(math.sqrt(np.var(vals, ddof=1) / trials))


@pytest.mark.parametrize("const", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("block_bytes", [
    pytest.param(mc._BLOCK_BYTES, id="shipped"),
    # a smaller block, several trials a block at the design point
    pytest.param(1 << 17, id="131072"),
    pytest.param(1, id="1"),                # one trial per block
    pytest.param(16 * 7 * 8, id="896"),     # uneven blocks
    pytest.param(1 << 24, id="16777216"),   # one block holds all trials
])
def test_estimate_equals_definition_bitwise(const, block_bytes, monkeypatch):
    design = masks.singer_mask(6)

    def two_and_a_half_shipped_blocks(l):
        terms = len(mc._kernel(design, 50, 20, l, 0)[2])
        return 5 * (mc._BLOCK_BYTES // (16 * terms)) // 2

    cases = [
        (masks.singer_mask(3), 4, 2, 2, 1, 0, 23),
        (masks.singer_mask(4), 2, 3, 7, 5, 1, 31),
        (masks.comb_mask(12, 4), 3, 1, 5, 0, 2, 19),
        (masks.comb_mask(6, 3), 4, 3, 3, 2, 0, 9),           # empty kernel
        (masks.comb_mask(6, 3), 4, 1, 2, 0, 1, 9),           # empty kernel, k != l
        (masks.random_mask(20, 8, seed=3), 5, 5, 5, 7, 3, 41),
        (masks.random_mask(20, 8, seed=3), 1, 6, 11, 13, 4, 17),
        # the design point: wide rows, two full shipped blocks and a partial one
        (design, 50, 20, 20, 50, 0, two_and_a_half_shipped_blocks(20)),
        (design, 50, 20, 41, 7, 1, two_and_a_half_shipped_blocks(41)),
        (design, 50, 41, 20, 3, 2, two_and_a_half_shipped_blocks(41)),  # l < k
    ]
    monkeypatch.setattr(mc, "_BLOCK_BYTES", block_bytes)
    for mask, m_pri, k, l, nu, stream, trials in cases:
        scen = mc.EchoScenario(mask=mask, M=m_pri, constellation=const, true_delay=k, nu=nu)
        est = mc.estimate(scen, l, trials, seed=29, stream=stream)
        assert (est.mean_sq, est.se) == _definition_estimate(scen, l, trials, 29, stream)
    assert est.se > 0
    # the empty kernel reads no position, so it draws no output
    drawn, real = [], mc._stream

    def spy(*args):
        drawn.append(real(*args))
        return drawn[-1]

    monkeypatch.setattr(mc, "_stream", spy)
    empty = _scenario(masks.comb_mask(6, 3), 4, const, 3, nu=2)
    assert mc.estimate(empty, 3, 9, seed=29) == mc.McEstimate(0.0, 0.0)
    assert not mc.draw_stream(empty, 3, seed=29, trial=5).any()
    assert len(drawn) == 2
    for bg in drawn:  # the next output is still the stream's first
        assert bg.random_raw() == np.random.Philox(key=29, counter=0).random_raw()


@pytest.mark.parametrize("const", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
def test_mc_points_equal_standalone_estimates(const, monkeypatch):
    # mc_points shares one plan between the points of a (k, l) and one pair of
    # tables between all points; no estimate may change by a bit
    mask = masks.singer_mask(6)
    zero = next(l for l in range(1, mask.n) if not _active_slots(mask, 1, 29, l))
    triples = [(29, 29, 0), (29, 29, 5),      # diagonal
               (29, 3, 7), (29, 3, 0),        # l < k
               (29, zero, 1), (29, zero, 0),  # no active slot: a Singer row's zero
               (29, 40, 2), (5, 40, 3),
               (29, 3, 11)]                   # (29, 3) comes back
    built, real = [], mc._plan

    def spy(mask, m_pri, k, l, *args):
        built.append((k, l))
        return real(mask, m_pri, k, l, *args)

    monkeypatch.setattr(mc, "_plan", spy)
    points = mc.mc_points(mask, 3, const, triples, trials=40, seed=17)
    assert built == [(29, 29), (29, 3), (29, zero), (29, 40), (5, 40), (29, 3)]
    monkeypatch.undo()
    alone = []
    for i, (p, (k, l, nu)) in enumerate(zip(points, triples)):
        est = mc.estimate(_scenario(mask, 3, const, k, nu), l, 40, seed=17, stream=i)
        alone.append(mc.McPoint(k=k, l=l, nu=nu, mc_mean=est.mean_sq, mc_se=est.se, trials=40,
                                closed_form=p.closed_form,
                                z=mc._z_score(est.mean_sq, est.se, p.closed_form)))
    # repr() writes every float exactly and tells -0.0 from 0.0
    assert list(map(repr, points)) == list(map(repr, alone))
    assert points[4].mc_mean == points[4].mc_se == 0.0


@pytest.mark.parametrize("k_set, l_set, nu_set, plans", [
    ((29,), range(1, 63), (0, 50), 62),
    ((20,), (20, 41), (0, 7, 23, 50, 100), 2),
], ids=["mc_sweep", "design_point"])
def test_mc_points_builds_one_plan_per_run_of_k_l(k_set, l_set, nu_set, plans, monkeypatch):
    # the benchmark's two Monte Carlo shapes: one plan per (k, l), whatever
    # the number of nu, and the product tables once per run
    calls = {"_plan": 0, "_tables": 0}
    for name in calls:
        def spy(*args, real=getattr(mc, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(mc, name, spy)
    mc.validate_grid(masks.singer_mask(6), 50, QAM16, k_set, l_set, nu_set, trials=2, seed=3)
    assert calls == {"_plan": plans, "_tables": 1}


@pytest.mark.parametrize("mask", [masks.singer_mask(m) for m in (3, 4, 5, 6)]
                         + [masks.random_mask(20, 8, seed=3)], ids=lambda m: m.label)
@pytest.mark.parametrize("m_pri", [1, 3, 50])
def test_plan_merges_the_reads_as_np_unique_does(mask, m_pri):
    # the marked positions and their numbers against the sort-based merge,
    # for every (k, l)
    widths = set()
    for k in range(1, mask.n):
        for l in range(1, mask.n):
            idx_k, idx_l, _ = mc._kernel(mask, m_pri, k, l, 0)
            reads, gather = np.unique(np.concatenate([idx_k, idx_l]), return_inverse=True)
            width = len(idx_k)
            plan = mc._plan(mask, m_pri, k, l)
            assert np.array_equal(plan.ns, idx_k + k - mask.n + 1)
            assert np.array_equal(plan.reads, reads)
            assert np.array_equal(plan.inter,
                                  np.stack([gather[width:], gather[:width]], axis=1).ravel())
            assert plan.words == -(-len(reads) // 8)
            widths.add(width)
    if mask.label.startswith("singer"):
        assert 0 in widths  # each row of a Singer mask has one zero


_DEVIATES = st.floats(-1e100, 1e100)


@given(st.lists(_DEVIATES, min_size=2, max_size=300)
       | st.builds(lambda v, count: [v] * count, _DEVIATES, st.integers(2, 300)))
@example([0.0, 0.0])
@example([3.0, 3.0])
@example([1.0, 2.0])
@example([0.1] * 151)
def test_mean_se_equal_numpy_bitwise(vals):
    # constant values are the deterministic points that _z_score tests
    # against roundoff; a mean that is not exactly the value leaves them a
    # few ulps of se
    vals = np.array(vals)
    want = (float(np.mean(vals)), math.sqrt(np.var(vals, ddof=1) / len(vals)))
    got = mc._mean_se(vals.copy())
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("l, nu, trials", [(20, 7, 2000), (41, 7, 2000), (33, 50, 150)],
                         ids=["diagonal", "off_diagonal", "mc_sweep_point"])
def test_estimate_calls_make_few_page_faults(l, nu, trials):
    # a block's buffers are freed before the next block allocates, so repeated
    # calls reuse the allocator's memory instead of faulting in fresh pages
    resource = pytest.importorskip("resource")
    scen = _scenario(masks.singer_mask(6), 50, QAM16, 20, nu=nu)
    mc.estimate(scen, l, trials, seed=3)  # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for stream in range(5):
        mc.estimate(scen, l, trials, seed=3, stream=stream)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64


_REPEATED_RUN = """\
import contextlib, io, resource, sys
from maskrd import cli

def faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults()  # warm-up: imports and first touches
print(faults() + faults())
"""


@pytest.mark.parametrize("const, k, l, nu, trials, bound", [
    ("qam16", "20", "20,41", "0,7,23,50,100", "2000", 256),  # the design point
    ("qam16", "29", "1..62", "0,50", "150", 256),            # many cheap points
    # qam64's off-diagonal table is 256 KiB: one built per point made ~30 000
    # faults a run; one built per run makes ~35
    ("qam64", "29", "1..62", "0,50", "150", 1024),
], ids=["design_point", "sweep", "sweep_qam64"])
def test_repeated_response_both_runs_make_few_page_faults(const, k, l, nu, trials, bound,
                                                          tmp_path):
    # A fresh process, so that the heap is the one a CLI run builds, not what
    # earlier tests left: the heap layout decides whether the allocator
    # returns freed blocks to the system and faults them back in.
    pytest.importorskip("resource")
    argv = ["response", "both", "--mask", "singer:m=6", "--M", "50", "--constellation", const,
            "--k", k, "--l", l, "--nu", nu, "--trials", trials, "--seed", "3",
            "--out", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mc.__file__)))
    proc = subprocess.run([sys.executable, "-c", _REPEATED_RUN, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < bound


def _wide_and_narrow_points(const):
    # (scenario, l, trials, stream): the design point on and off the
    # diagonal, and a narrow point between
    wide = [(_scenario(masks.singer_mask(6), 50, const, 20, nu=7), l, 30, s)
            for s, l in enumerate((20, 41))]
    narrow = [(_scenario(masks.singer_mask(3), 4, const, 2, nu=1), l, 23, s)
              for s, l in enumerate((2, 5))]
    return wide + narrow + wide


def test_threads_running_estimate_at_once_match_the_sequential_results():
    points = _wide_and_narrow_points(QAM16)
    sequential = [mc.estimate(scen, l, trials, seed=5, stream=stream)
                  for scen, l, trials, stream in points]
    start = threading.Barrier(2)
    results = [None, None]

    def run(slot, order):
        start.wait()
        results[slot] = {i: mc.estimate(points[i][0], points[i][1], points[i][2],
                                        seed=5, stream=points[i][3]) for i in order}

    # one thread in order, the other in reverse, so their block shapes differ
    workers = [threading.Thread(target=run, args=(0, range(len(points)))),
               threading.Thread(target=run, args=(1, reversed(range(len(points)))))]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    for got in results:
        assert [got[i] for i in range(len(points))] == sequential


def test_seed_is_a_128_bit_philox_key():
    m = masks.singer_mask(3)
    scen = _scenario(m, 2, QPSK, 1)
    assert np.array_equal(mc.draw_stream(scen, 2, seed=2 ** 128 - 1),
                          mc.draw_stream(scen, 2, seed=2 ** 128 - 1))
    for seed, error in ((-1, "^seed must be non-negative$"),
                        (2 ** 128, r"^seed must be below 2\*\*128$")):
        with pytest.raises(ValueError, match=error):
            mc.draw_stream(scen, 2, seed=seed)
        with pytest.raises(ValueError, match=error):
            mc.mc_points(m, 2, QPSK, [(1, 2, 0)], trials=2, seed=seed)


@pytest.mark.parametrize("mask", [masks.singer_mask(3), masks.singer_mask(6),
                                  masks.comb_mask(12, 4), masks.random_mask(20, 8, seed=3)],
                         ids=lambda m: m.label)
@pytest.mark.parametrize("m_pri", [1, 4, 50])
def test_kernel_is_one_period_tiled(mask, m_pri):
    n, total = mask.n, m_pri * mask.n
    for k, l, nu in ((1, 1, 0), (2, 5, 3), (n - 1, 1, total - 1), (3, 3, total // 2)):
        ns = np.array(_active_slots(mask, m_pri, k, l), dtype=np.int64)
        idx_k, idx_l, phase = mc._kernel(mask, m_pri, k, l, nu)
        assert np.array_equal(idx_k, ns - k + n - 1)
        assert np.array_equal(idx_l, ns - l + n - 1)
        assert np.array_equal(phase, np.exp(-2j * np.pi * nu * ns / total))


def test_draw_stream_energy_law_of_large_numbers():
    m = masks.singer_mask(5)
    reads = _read_positions(m, 8, 3, 10)
    vals = []
    for t in range(40):
        st = mc.draw_stream(_scenario(m, 8, QAM16, 3), 10, seed=11, trial=t)
        vals.append(np.mean(np.abs(st[reads]) ** 2))
    n_sym = 40 * len(reads)
    assert abs(np.mean(vals) - 1) <= 3 / math.sqrt(n_sym)


def test_qpsk_mainlobe_correlation_is_deterministic_count():
    m = masks.singer_mask(3)
    scen = mc.EchoScenario(mask=m, M=4, constellation=QPSK, true_delay=1, nu=0)
    for t in range(5):
        st = mc.draw_stream(scen, 1, seed=3, trial=t)
        r = mc.correlate(scen, st, 1)
        assert r == 4 * (3 - 1)  # M (w - a[k]), exactly


def test_comb_blanked_echo_correlates_to_zero():
    comb = masks.comb_mask(6, 3)
    scen = mc.EchoScenario(mask=comb, M=4, constellation=QAM16, true_delay=3, nu=0)
    st = mc.draw_stream(scen, 3, seed=8)
    assert mc.correlate(scen, st, 3) == 0


def test_scenario_validation():
    # the range checks, and their wording, are those of response.build_grid
    m = masks.singer_mask(3)
    with pytest.raises(ValueError, match="^M must be a positive integer, got 0$"):
        mc.EchoScenario(mask=m, M=0, constellation=QPSK, true_delay=1, nu=0)
    with pytest.raises(ValueError, match="^true_delay=0 is the blind range$"):
        mc.EchoScenario(mask=m, M=4, constellation=QPSK, true_delay=0, nu=0)
    for nu in (28, -1):
        with pytest.raises(ValueError, match=rf"^nu must be in 0\.\.27, got {nu}$"):
            mc.EchoScenario(mask=m, M=4, constellation=QPSK, true_delay=1, nu=nu)
    scen = mc.EchoScenario(mask=m, M=4, constellation=QPSK, true_delay=1, nu=1)
    st = mc.draw_stream(scen, 1, seed=1)
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


def test_every_monte_carlo_entry_point_takes_M_by_the_rule_of_scenario_params():
    # 1 <= M < 2**63: an M past int64 would leave _kernel no active slot, and
    # so a silent zero estimate; a non-positive M a zero double sum
    m = masks.singer_mask(3)
    with pytest.raises(ValueError, match=r"^M must be below 2\*\*63, got 9223372036854775808$"):
        mc.EchoScenario(mask=m, M=2 ** 63, constellation=QPSK, true_delay=1, nu=0)
    for M in (0, -3):
        with pytest.raises(ValueError, match=f"^M must be a positive integer, got {M}$"):
            mc.expectation_by_double_sum(m, M, QPSK, 1, 1, 0)
    with pytest.raises(ValueError, match=r"^M must be below 2\*\*63"):
        mc.expectation_by_double_sum(m, 2 ** 63, QPSK, 1, 1, 0)


@pytest.mark.parametrize("nu", [math.nan, math.inf, -1, 28])
def test_expectation_by_double_sum_refuses_a_nu_outside_the_window(nu):
    # the range and wording of build_grid and EchoScenario: 0 <= nu < MN = 28
    m = masks.singer_mask(3)
    with pytest.raises(ValueError, match=rf"^nu must be in 0\.\.27, got {nu}$"):
        mc.expectation_by_double_sum(m, 4, QAM16, 1, 1, nu)
    # a real nu inside the window stays accepted
    assert math.isfinite(mc.expectation_by_double_sum(m, 4, QAM16, 1, 1, 0.5))


def test_monte_carlo_integers_are_taken_as_python_ints_not_truncated():
    # M, delays, seeds and trial and stream numbers go through operator.index; nu
    # stays real-valued
    m = masks.singer_mask(3)
    scen = mc.EchoScenario(mask=m, M=np.int64(2 ** 62), constellation=QPSK,
                           true_delay=np.int64(1), nu=0.5)
    assert (type(scen.M), type(scen.true_delay), scen.nu) == (int, int, 0.5)
    scen = mc.EchoScenario(mask=m, M=2, constellation=QPSK, true_delay=1, nu=1)
    for call in (lambda: mc.EchoScenario(mask=m, M=2.0, constellation=QPSK, true_delay=1, nu=0),
                 lambda: mc.EchoScenario(mask=m, M=2, constellation=QPSK, true_delay=1.0, nu=0),
                 lambda: mc.estimate(scen, 1, 10, seed=1.5),
                 lambda: mc.estimate(scen, 1, 10.5, 1),
                 lambda: mc.check_run(1.5, 10, 1, 14),
                 lambda: mc.estimate(scen, 1, 10, seed=1, stream=1.5),
                 lambda: mc.draw_stream(scen, 1, 1, trial=1.5),
                 lambda: mc.correlate(scen, mc.draw_stream(scen, 1, 1), 1.0),
                 lambda: mc.mc_points(m, 2, QPSK, [(1, 1, 2.5)], 10, 1),
                 lambda: mc.expectation_by_double_sum(m, 2.0, QPSK, 1, 1, 0)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()


def test_qpsk_local_sidelobe_estimate_is_zero_with_zero_se():
    m = masks.singer_mask(3)
    scen = mc.EchoScenario(mask=m, M=4, constellation=QPSK, true_delay=2, nu=3)
    est = mc.estimate(scen, 2, 50, seed=13)
    assert est.mean_sq <= 1e-18
    assert est.se == 0.0


def test_estimate_matches_closed_form_qam16():
    m = masks.singer_mask(3)
    p = response.ScenarioParams(mask=m, M=4, mu4=QAM16.mu4)
    scen = mc.EchoScenario(mask=m, M=4, constellation=QAM16, true_delay=2, nu=1)
    est = mc.estimate(scen, 2, 8000, seed=2)
    closed = response.expected_response(p, 2, 2, 1)
    assert abs(est.mean_sq - closed) <= 3 * est.se
    assert est.se > 0


def test_offdiagonal_estimates_agree_across_doppler():
    m = masks.singer_mask(3)
    scen_a = mc.EchoScenario(mask=m, M=4, constellation=QAM16, true_delay=1, nu=3)
    scen_b = mc.EchoScenario(mask=m, M=4, constellation=QAM16, true_delay=1, nu=17)
    ea = mc.estimate(scen_a, 4, 6000, seed=5)
    eb = mc.estimate(scen_b, 4, 6000, seed=6)
    combined = math.hypot(ea.se, eb.se)
    assert abs(ea.mean_sq - eb.mean_sq) <= 3 * combined


def test_estimate_reproducibility_and_stream_separation():
    m = masks.singer_mask(3)
    scen = mc.EchoScenario(mask=m, M=4, constellation=QAM16, true_delay=1, nu=2)
    a = mc.estimate(scen, 1, 300, seed=4)
    b = mc.estimate(scen, 1, 300, seed=4)
    c = mc.estimate(scen, 1, 300, seed=4, stream=1)
    assert a == b
    assert a.mean_sq != c.mean_sq


def test_validate_grid_points_and_determinism():
    m = masks.singer_mask(3)
    rep = mc.validate_grid(m, 4, QAM16, (1, 2), (1, 3), (0, 2),
                           trials=1500, seed=10)
    assert len(rep) == 8
    assert all(abs(p.z) <= 3.0 for p in rep)
    again = mc.validate_grid(m, 4, QAM16, (1, 2), (1, 3), (0, 2),
                             trials=1500, seed=10)
    assert rep == again
    # each point reproducible standalone with its stream id (order irrelevance)
    triples = [(k, l, nu) for k in (1, 2) for l in (1, 3) for nu in (0, 2)]
    for i in np.random.Generator(np.random.Philox(key=1)).permutation(8):
        k, l, nu = triples[i]
        scen = mc.EchoScenario(mask=m, M=4, constellation=QAM16, true_delay=k, nu=nu)
        est = mc.estimate(scen, l, 1500, seed=10, stream=int(i))
        assert est.mean_sq == rep[i].mc_mean
        assert est.se == rep[i].mc_se


def test_validate_grid_budget(monkeypatch):
    # the library reads the budget from its variable, as the CLI does
    monkeypatch.setenv(mc.BUDGET_ENV, "10")
    m = masks.singer_mask(3)
    scen = mc.EchoScenario(mask=m, M=4, constellation=QAM16, true_delay=1, nu=0)
    for call in (lambda: mc.validate_grid(m, 4, QAM16, (1,), (1,), (0,), trials=100, seed=0),
                 lambda: mc.mc_points(m, 4, QAM16, [(1, 1, 0)], trials=100, seed=0),
                 lambda: mc.estimate(scen, 1, 100, 0)):
        with pytest.raises(mc.McBudgetError,
                           match="^points x trials x MN = 2800 exceeds the budget 10$"):
            call()


@pytest.mark.parametrize("run", [
    lambda m, m_pri: mc.mc_points(m, m_pri, QAM16, [(1, 1, 0)], trials=10, seed=0),
    lambda m, m_pri: mc.validate_grid(m, m_pri, QAM16, (1,), (1,), (0,), trials=10, seed=0),
], ids=["mc_points", "validate_grid"])
def test_a_numpy_M_is_checked_before_the_run_is_sized(monkeypatch, run):
    # 7 x 2**62 wraps in int64: M is taken as a Python int before MN is formed
    def no_grid(*args):
        raise AssertionError("closed forms built for a refused run")

    monkeypatch.setattr(response, "build_grid", no_grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(mc.McBudgetError, match=f"= {10 * 7 * 2 ** 62} exceeds"):
            run(masks.singer_mask(3), np.int64(2 ** 62))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("call", [
    lambda: mc.check_run(1, 10, 1, 14),
    # read before trials and seed are checked
    lambda: mc.check_run(1, 1, -1, 14),
    lambda: mc.estimate(mc.EchoScenario(mask=masks.singer_mask(3), M=2, constellation=QPSK,
                                        true_delay=1, nu=0), 1, 10, 1),
], ids=["check_run", "check_run_first", "estimate"])
def test_a_non_integer_budget_is_refused_by_the_library(monkeypatch, call):
    monkeypatch.setenv(mc.BUDGET_ENV, "abc")
    with pytest.raises(ValueError, match="^MASKRD_MC_BUDGET must be an integer, got 'abc'$"):
        call()


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
