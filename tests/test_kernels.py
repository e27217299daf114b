"""The counting kernels against their definitions, and their guards.

autocorr, cross_term_row and cross_term_matrix compute exact integers with FFT
and BLAS kernels; here they are compared with the definitions in conftest.py
(brute_autocorr, brute_cross_terms) over shifted combs and any support, and
singer_mask's recurrence with the trace-zero powers of x
(gf2_oracle.singer_bits). The guard
tests check that a kernel that breaks a counting identity, an oversized
period and an exhausted allocator each end a CLI run with its documented exit
code and a one-line message, and that selftest reports such a kernel, a
shifted random stream, a sum that differs from call to call, a wrong closed
form and a wrong moment table, each with what differed.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given

import gf2_oracle as oracle
from conftest import any_mask, brute_autocorr, brute_cross_terms
from maskrd import cli, masks, montecarlo, spectra
from maskrd.gf2 import PRIMITIVE_POLYS


@given(any_mask(3, 200))
def test_autocorr_equals_roll_definition(mask):
    a = spectra.autocorr(mask)
    assert a.dtype == np.int64
    assert np.array_equal(a, brute_autocorr(mask.bits))


@given(any_mask(3, 200))
def test_cross_term_matrix_equals_triple_product(mask):
    want = brute_cross_terms(mask.bits)
    r = spectra.cross_term_matrix(mask)
    rows = np.array([spectra.cross_term_row(mask, k) for k in range(1, mask.n)])
    assert r.dtype == rows.dtype == np.int64
    assert np.array_equal(r, want)
    assert np.array_equal(rows, want[1:])


@given(any_mask(3, 40))
@example(masks.random_mask(97, 40, 5))
def test_cross_terms_are_autocorr_minus_triple_correlation(mask):
    # R[k,l] counts the listen slots both replicas hit: of the a[l-k] slots
    # where they coincide, drop the T(k,l) that fall on transmit slots
    bits = mask.as_array()
    shifted = np.array([np.roll(bits, k) for k in range(mask.n)])  # m[n - k]
    triple = np.einsum("n,kn,ln->kl", bits, shifted, shifted)
    a = spectra.autocorr(mask)
    k, l = np.meshgrid(range(mask.n), range(mask.n), indexing="ij")
    off = k != l
    r = spectra.cross_term_matrix(mask)
    assert np.array_equal(r[off], (a[(l - k) % mask.n] - triple)[off])


@pytest.mark.parametrize("m", range(3, 15))
def test_singer_recurrence_matches_trace_map(m):
    assert masks.singer_mask(m).bits == oracle.singer_bits(m, PRIMITIVE_POLYS[m])


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def _break_irfft(monkeypatch):
    real = np.fft.irfft

    def off_by_one(*args, **kwargs):
        out = real(*args, **kwargs)
        out[1] += 1
        return out

    monkeypatch.setattr(np.fft, "irfft", off_by_one)


def test_broken_autocorr_kernel_exits_numeric(monkeypatch, capsys):
    _break_irfft(monkeypatch)
    assert cli.main(["mask", "verify", "singer:m=5"]) == cli.EXIT_NUMERIC
    assert "singer:m=5" in _one_error_line(capsys)


def _break_window(monkeypatch):
    real = np.lib.stride_tricks.sliding_window_view

    def one_slot_late(x, n):  # G[j, k] = m_t[n_j - k - 1]
        return real(np.roll(x, -1), n)

    monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", one_slot_late)


def test_broken_cross_term_kernel_exits_numeric(monkeypatch, tmp_path, capsys):
    _break_window(monkeypatch)
    argv = ["metrics", "--mask", "random:N=40,w=13,seed=3", "--M", "4",
            "--mu4", "1.0", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_NUMERIC
    assert "cross-term matrix" in _one_error_line(capsys)
    assert not (tmp_path / "metrics.csv").exists()


def test_large_period_refused_before_allocation(tmp_path, capsys):
    n = spectra.MAX_MATRIX_N * 2 + 1  # 16383, the period of Singer m = 14
    path = tmp_path / "big.mask"
    path.write_text("1" * 5000 + "0" * (n - 5000) + "\n")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main(["metrics", "--mask", str(path), "--M", "4", "--mu4", "1.0",
                         "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_CONFIG
    assert f"N <= {spectra.MAX_MATRIX_N}" in _one_error_line(capsys)
    assert peak < 32 * 2 ** 20  # G alone would take (N - w) N 4 B = 0.75 GB
    assert not out.exists()
    # the mask family itself still builds at that size
    with pytest.raises(ValueError):
        spectra.cross_term_matrix(masks.singer_mask(14))


def test_single_entry_beyond_matrix_limit(tmp_path):
    # one R entry of Singer m = 14 (N = 16383) needs one row, not the N x N matrix
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main(["response", "closed", "--mask", "singer:m=14", "--M", "4",
                         "--mu4", "1.0", "--k", "1", "--l", "2", "--nu", "0",
                         "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert (out / "response_closed.csv").read_text().splitlines()[-1] == "1,2,0,8.19200000000e+03"
    assert peak < 32 * 2 ** 20  # the float32 product alone would take 1 GB


def test_broken_cross_term_row_exits_numeric(monkeypatch, tmp_path, capsys):
    _break_irfft(monkeypatch)
    out = tmp_path / "out"
    argv = ["response", "closed", "--mask", "random:N=40,w=13,seed=3", "--M", "4",
            "--mu4", "1.0", "--k", "2", "--nu", "0", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_NUMERIC
    assert "cross-term row 2" in _one_error_line(capsys)
    assert not out.exists()


def test_memory_error_exits_config(monkeypatch, tmp_path, capsys):
    def exhausted(mask):
        raise MemoryError("Unable to allocate 2.00 GiB")

    monkeypatch.setattr(spectra, "cross_term_matrix", exhausted)
    argv = ["metrics", "--mask", "singer:m=5", "--M", "4", "--mu4", "1.0",
            "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert _one_error_line(capsys) == "error: out of memory: Unable to allocate 2.00 GiB"


def _break_rng(monkeypatch):
    real = montecarlo._stream

    def one_output_late(seed, stream, first=0):
        return real(seed, stream, first + 1)

    monkeypatch.setattr(montecarlo, "_stream", one_output_late)


def _break_dot(monkeypatch):
    # estimate() takes a block's correlation sums with one np.matmul
    real, calls = np.matmul, itertools.count()

    def drifting(*args, **kwargs):  # one ulp off on every third call
        out = real(*args, **kwargs)
        return out * (1 + np.finfo(float).eps) if next(calls) % 3 == 0 else out

    monkeypatch.setattr(np, "matmul", drifting)


def _break_doppler_energy(monkeypatch):
    real = spectra.doppler_energy
    monkeypatch.setattr(spectra, "doppler_energy", lambda *args: real(*args) + 1)


def _break_fourth_moment(monkeypatch):
    # expectation_by_double_sum reads E|x|^4 from montecarlo._moment
    real = montecarlo._moment
    monkeypatch.setattr(montecarlo, "_moment", lambda points, p, q: real(points, p, q) * (
        1 + 1e-6 * (p == q == 2)))


# every selftest item is failed by at least one breaker
@pytest.mark.parametrize("breaker, failing", [
    (_break_irfft, {"range_sidelobe_sum_identity", "parseval_identity",
                    "double_sum_oracle", "mc_oracle"}),
    (_break_window, {"range_sidelobe_sum_identity"}),
    (_break_rng, {"rng_known_answer"}),
    (_break_dot, {"determinism"}),
    (_break_doppler_energy, {"parseval_identity"}),
    (_break_fourth_moment, {"double_sum_oracle"}),
], ids=["fft", "matrix", "rng", "nondeterministic_sum", "closed_form", "moment_table"])
def test_selftest_reports_broken_kernel(monkeypatch, capsys, breaker, failing):
    breaker(monkeypatch)
    assert cli.main(["selftest", "--trials", "300"]) == cli.EXIT_NUMERIC
    out = capsys.readouterr().out.splitlines()
    fails = [line for line in out if line.startswith("FAIL")]
    assert {line.split()[1].rstrip(":") for line in fails} == failing
    # each FAIL line says what differed
    assert all(line.split(": ", 1)[1].strip() for line in fails), fails
    assert out[-1] == f"selftest: {len(failing)} failure(s)"
