"""Correlation structure and deterministic spectra of a transmission mask.

Counting quantities (autocorrelation, masked cross terms) are exact integers
from float kernels: autocorr, the one kernel for a[k], is a rounded inverse
FFT; a rounded FFT correlation of gamma_k with m_t gives one row R[k, :], and
one float32 BLAS product the whole of R (0/1 entries, partial sums below
2^24). Each is checked against integer identities (the diagonal of R against
autocorr), which raise ArithmeticError on failure, and the whole matrix is
limited to N <= MAX_MATRIX_N.

Spectra are direct complex sums from one kernel, s_kn_table: each S_kN(nu)
is one np.dot of the complex gate gamma_k with the phase row of bin nu, so
an entry does not depend on what else its table holds, and s_kmn at M = 1,
one entry, is the same bits. build_grid takes one table per grid.

Conventions, with m_t the mask, m_r = 1 - m_t, and all shifts cyclic mod N:

  a[k]        = sum_n m_t[n] m_t[n-k]              (periodic autocorrelation)
  R[k,l]      = sum_n m_r[n] m_t[n-k] m_t[n-l]     (masked cross term)
  gamma_k[n]  = m_r[n] m_t[n-k]                    (received-echo gate)
  S_kN(nu)    = sum_n gamma_k[n] e^(-2j pi nu n / N)

gamma returns gamma_k itself, a read-only int64 array of one period.

The length-MN spectrum of the M-fold tiled gate is nonzero only at
multiples of M, where it equals M times the length-N spectrum; s_kmn
evaluates that reduction instead of materializing MN-point sums.
"""

from __future__ import annotations

import operator

import numpy as np

from .masks import Mask

__all__ = [
    "autocorr",
    "cross_term_row",
    "cross_term_matrix",
    "gamma",
    "s_kn_table",
    "s_kmn",
    "doppler_energy",
    "doppler_energy_f",
]

# Largest N for the N x N cross terms: Singer m = 13, ~1 GB (m = 14 needs ~4 GB).
MAX_MATRIX_N = 8191


def autocorr(mask: Mask) -> np.ndarray:
    """Periodic autocorrelation a[k] = sum_n m_t[n] m_t[n-k], exact ints.

    The rounded inverse FFT of |FFT(m_t)|^2, checked against a[0] = w and
    sum a = w^2.
    """
    spec = np.fft.rfft(mask.as_array())
    a = np.rint(np.fft.irfft(spec.real ** 2 + spec.imag ** 2, mask.n)).astype(np.int64)
    if a[0] != mask.weight or a.sum() != mask.weight ** 2:
        raise ArithmeticError(
            f"autocorrelation of {mask.label} breaks a[0] = w or sum a = w^2")
    return a


def cross_term_row(mask: Mask, k: int) -> np.ndarray:
    """Row R[k, :] as an int vector; k is reduced mod N and must not be 0.

    The rounded inverse FFT of rfft(gamma_k) conj(rfft(m_t)), checked against
    R[k,0] = 0, R[k,k] = w - a[k] and sum_l R[k,l] = w (w - a[k]).
    """
    n, w = mask.n, mask.weight
    if k % n == 0:
        raise ValueError("delay 0 is the blind range; R is undefined there")
    g = gamma(mask, k)
    spec = np.fft.rfft(g) * np.conj(np.fft.rfft(mask.as_array()))
    row = np.rint(np.fft.irfft(spec, n)).astype(np.int64)
    deficit = int(g.sum())
    if row[0] != 0 or row[k % n] != deficit or row.sum() != w * deficit:
        raise ArithmeticError(
            f"cross-term row {k} of {mask.label} breaks its counting identities")
    return row


def cross_term_matrix(mask: Mask) -> np.ndarray:
    """All R[k,l] as an N x N int matrix, for N up to MAX_MATRIX_N.

    R = G^T G with G[j, k] = m_t[n_j - k] over the listen slots n_j, checked
    against the zero row and column 0 (the blind range), R[k,k] = w - a[k]
    and sum_(k != l) R[k,l] = w (N - w)(w - 1).
    """
    n, w = mask.n, mask.weight
    if n > MAX_MATRIX_N:
        raise ValueError(f"the cross-term matrix needs N <= {MAX_MATRIX_N}, got N={n}")
    bits = mask.as_array()
    # window s of the reversed doubled period is m_t[N - 1 - s - k], k = 0..N-1
    rev = np.concatenate((bits, bits))[::-1].astype(np.float32)
    listen = np.flatnonzero(bits == 0)
    g = np.lib.stride_tricks.sliding_window_view(rev, n)[n - 1 - listen]
    r = (g.T @ g).astype(np.int64)
    if (r[0].any() or r[:, 0].any() or np.any(np.diagonal(r) != w - autocorr(mask))
            or r.sum() - np.trace(r) != w * (n - w) * (w - 1)):
        raise ArithmeticError(
            f"cross-term matrix of {mask.label} breaks its counting identities")
    return r


def gamma(mask: Mask, k: int) -> np.ndarray:
    """Receive gate gamma_k[n] = m_r[n] m_t[n-k] over one period, read-only.

    k is reduced mod N. The gate sums to w - a[k], the number of gated slots.
    """
    bits = mask.as_array()
    shift = mask.n - k % mask.n  # m_t[n - k] is bits rolled right by k
    values = (1 - bits) * np.concatenate((bits[shift:], bits[:shift]))
    values.setflags(write=False)
    return values


def s_kn_table(mask: Mask, ks, bins) -> np.ndarray:
    """S_kN(bin) for each k of ks (rows) and each bin of bins (columns).

    Bins are reduced mod N. Each gamma_k is cast to complex once, and the
    phase row exp(-2j pi bin n / N) of each bin is built once and dropped
    after use, so no more than one row is held. Each entry is one np.dot
    (zdotu) of a gate and a row: a matrix product would round differently,
    and an entry must not depend on what else the table holds, so a
    repeated bin's column has the bits of its first.
    """
    n = mask.n
    bins = [operator.index(b) % n for b in bins]
    gates = [gamma(mask, k).astype(complex) for k in ks]
    table = np.empty((len(gates), len(bins)), dtype=complex)
    times = np.arange(n, dtype=complex)  # cast once; each product would cast it
    for j, b in enumerate(bins):
        row = np.exp(-2j * np.pi * b * times / n)
        for i, gate in enumerate(gates):
            table[i, j] = np.dot(gate, row)
    return table


def s_kmn(mask: Mask, k: int, m_pri: int, nu: int) -> complex:
    """Length-MN spectrum of the M-fold tiled receive gate at bin nu.

    Evaluated through the periodicity reduction: exactly 0 off multiples of
    M, and M times the length-N spectrum on them. Never forms MN-point sums.
    """
    m_pri, nu = operator.index(m_pri), operator.index(nu)
    if m_pri < 1:
        raise ValueError(f"the PRI count must be positive, got {m_pri}")
    total = m_pri * mask.n
    nu = nu % total
    if nu % m_pri:
        return 0j
    return m_pri * complex(s_kn_table(mask, (k,), (nu // m_pri,))[0, 0])


def doppler_energy(a, n: int, w: int):
    """f(a) = (w - a)(N - w + a), the off-zero gate energy at autocorrelation a.

    Equals sum_(nu=1..N-1) |S_kN(nu)|^2 by Parseval; a may be an int array.
    """
    return (w - a) * (n - w + a)


def doppler_energy_f(mask: Mask, k: int) -> int:
    """Total off-zero spectral energy of the receive gate for delay k."""
    return doppler_energy(int(autocorr(mask)[k % mask.n]), mask.n, mask.weight)
