"""Closed-form expected squared range-Doppler response of a masked stream.

For a trial delay l, a true delay k, and an integer Doppler mismatch nu (in
bins of the M-period coherent window), the expectation of the squared
correlator output splits into two branches:

  k != l:  M * R[k,l], independent of nu
  k == l:  |s_kmn(k, nu)|^2 + (mu4 - 1) * M * (w - a[k])

Both use one period's counting quantities only. build_grid is the one
evaluator and the only code that picks a branch; expected_response reads a
grid of one (k, l, nu), and moderate_slice and grating_lobes one with l = k.
Delay 0 is the blind range and is rejected rather than reported as zero.
_check_M, _check_delay and _check_nu are the one range check of M and of
(k, l, nu), here and in the Monte Carlo oracle. The first two return the
value through operator.index: a numpy integer as a Python int, a float refused.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .masks import Mask
from . import spectra

__all__ = [
    "ScenarioParams",
    "ResponseGrid",
    "check_mu4",
    "mainlobe",
    "expected_response",
    "moderate_slice",
    "grating_lobes",
    "build_grid",
    "GRID_HEADER_CLOSED",
]

GRID_HEADER_CLOSED = ("k", "l", "nu", "value")


def check_mu4(mu4: float) -> None:
    """Reject a symbol kurtosis that is not a finite number of at least 1."""
    if not (math.isfinite(mu4) and mu4 >= 1):
        raise ValueError(
            f"mu4 must be a finite number >= 1 for unit-energy symbols, got {mu4}")


@dataclass(frozen=True)
class ScenarioParams:
    """Mask plus coherent-window length M and symbol kurtosis mu4."""

    mask: Mask
    M: int
    mu4: float

    def __post_init__(self):
        object.__setattr__(self, "M", _check_M(self.M))
        check_mu4(self.mu4)

    @property
    def total_bins(self) -> int:
        """Doppler bin count M*N of the coherent window."""
        return self.M * self.mask.n


def _check_M(M: int) -> int:
    M = operator.index(M)
    if M < 1:
        raise ValueError(f"M must be a positive integer, got {M}")
    if M >= 1 << 63:  # M goes into numpy integer arithmetic as an int64
        raise ValueError(f"M must be below 2**63, got {M}")
    return M


def _check_delay(name: str, value: int, n: int) -> int:
    value = operator.index(value)
    if value == 0:
        raise ValueError(f"{name}=0 is the blind range")
    if not 1 <= value <= n - 1:
        raise ValueError(f"{name} must be in 1..{n - 1}, got {value}")
    return value


def _check_nu(name: str, value: int, total: int) -> None:
    if not 0 <= value < total:
        raise ValueError(f"{name} must be in 0..{total - 1}, got {value}")


def mainlobe(p: ScenarioParams, deficit, s):
    """Range-mainlobe branch M^2 |s|^2 + (mu4 - 1) M deficit.

    deficit = w - a[k]; s is the length-N gate spectrum S_kN(nu / M) on the
    grating lobes nu = nM and 0 between them. Either may be an array. M
    enters as a float, so no product with it can overflow int64.
    """
    return float(p.M) ** 2 * np.abs(s) ** 2 + (p.mu4 - 1) * p.M * deficit


def expected_response(p: ScenarioParams, k: int, l: int, nu: int) -> float:
    """E{|r(k,l,nu)|^2} for one index triple."""
    return float(build_grid(p, (k,), (l,), (nu,)).values[0, 0, 0])


def moderate_slice(p: ScenarioParams, k: int) -> np.ndarray:
    """Mainlobe response at nu = 0..M-1: peak at 0, a constant floor after.

    The floor is (mu4 - 1) M (w - a[k]); constant-modulus symbols (mu4 = 1)
    have exactly zero local Doppler sidelobes.
    """
    return build_grid(p, (k,), (k,), range(p.M)).values[0, 0]


def grating_lobes(p: ScenarioParams, k: int) -> np.ndarray:
    """Mainlobe response at the bins nu = n*M for n = 0..N-1.

    These are the only bins where the deterministic part survives; value
    M^2 |S_kN(n)|^2 plus the constant mu4 floor.
    """
    return build_grid(p, (k,), (k,), range(0, p.total_bins, p.M)).values[0, 0]


@dataclass(frozen=True)
class ResponseGrid:
    """Dense closed-form response values over a (k, l, nu) index box."""

    k_set: tuple
    l_set: tuple
    nu_set: tuple
    values: np.ndarray

    def __post_init__(self):
        expected_shape = (len(self.k_set), len(self.l_set), len(self.nu_set))
        if self.values.shape != expected_shape:
            raise ValueError(
                f"grid shape {self.values.shape} does not match index sets {expected_shape}")
        self.values.setflags(write=False)


def build_grid(p: ScenarioParams, k_set, l_set, nu_set) -> ResponseGrid:
    """Closed-form values over the cross product of the given index sets.

    Off-diagonal (k != l) entries are written once and broadcast along nu,
    so their Doppler invariance is exact by construction. Diagonal entries
    read S_kN from one spectra.s_kn_table over the grid's diagonal k and
    the grating-lobe bins nu = nM of the nu set, and are 0 elsewhere.
    """
    k_set = tuple(map(operator.index, k_set))
    l_set = tuple(map(operator.index, l_set))
    nu_set = tuple(map(operator.index, nu_set))
    if not k_set or not l_set or not nu_set:
        raise ValueError("index sets must be non-empty")
    n = p.mask.n
    for k in k_set:
        _check_delay("k", k, n)
    for l in l_set:
        _check_delay("l", l, n)
    for nu in nu_set:
        _check_nu("nu", nu, p.total_bins)

    ls = np.array(l_set)
    diagonal = [k for k in k_set if k in l_set]
    lobes = [t for t, nu in enumerate(nu_set) if nu % p.M == 0]  # in exact integers
    s = np.zeros((len(diagonal), len(nu_set)), dtype=complex)
    if diagonal:
        s[:, lobes] = spectra.s_kn_table(p.mask, diagonal, [nu_set[t] // p.M for t in lobes])
    lobe_rows = iter(s)
    values = np.empty((len(k_set), len(l_set), len(nu_set)), dtype=np.float64)
    for i, k in enumerate(k_set):
        row = spectra.cross_term_row(p.mask, k)
        values[i] = p.M * row[ls].astype(np.float64)[:, None]
        if k in l_set:
            values[i, ls == k] = mainlobe(p, row[k], next(lobe_rows))
    return ResponseGrid(k_set, l_set, nu_set, values)
