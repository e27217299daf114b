"""Mask quality metrics and bound certificates.

Two aggregates describe the Doppler sidelobes along the range mainlobe.
Both are built from the per-delay summand

    g(a[k]) = f(a[k]) + (N - 1)(mu4 - 1)(w - a[k]),

with f(a) = (w - a)(N - w + a) the receive-gate spectral energy:

  * the sum over k (bounded above with equality for constant a[k], below
    with equality for fully polarized a[k], comb masks), and
  * the worst case over k, minimized by constant-autocorrelation masks.

A bound is attained iff the sum's exact integer gap to it is 0; the upper
gap, (N-1) times the spread of a[k], is 0 iff the mainlobe is flat (CDS).

This normalization is per tiled period; multiply the f-part by M^2 and the
mu4-part by M to land on coherent-window units.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .masks import Mask, verify_cds
from .response import ScenarioParams, check_mu4, mainlobe
from . import spectra

__all__ = [
    "DopplerSumBounds",
    "MaskMetrics",
    "NORMALIZATIONS",
    "REPORT_HEADER",
    "mainlobe_levels",
    "peak_range_sidelobe",
    "avg_range_sidelobe",
    "doppler_sidelobe_sum",
    "worst_case_doppler_sum",
    "mean_doppler_sidelobe",
    "metrics_report",
]

NORMALIZATIONS = ("none", "by_rho", "by_mainlobe")

REPORT_HEADER = (
    "mask_id", "N", "w", "rho", "is_cds", "lambda",
    "mainlobe_min", "mainlobe_max", "ptp_ratio", "psl_range", "avg_range_sl",
    "I", "I_lower", "I_upper", "J", "worst_mean_doppler_sl",
)


@dataclass(frozen=True)
class DopplerSumBounds:
    """Doppler sidelobe sum, its universal bounds and its exact gaps to them."""

    value: float
    lower: float
    upper: float
    upper_gap: int
    lower_gap: int

    def attains_upper(self) -> bool:
        return self.upper_gap == 0

    def attains_lower(self) -> bool:
        return self.lower_gap == 0


def mainlobe_levels(p: ScenarioParams) -> np.ndarray:
    """E{|r(k,k,0)|^2} for k = 1..N-1."""
    _, deficit, _ = _per_delay(p.mask)
    return mainlobe(p, deficit, deficit)  # S_kN(0) = w - a[k]


def peak_range_sidelobe(p: ScenarioParams) -> float:
    """Largest off-diagonal expected level, max over k != l of M R[k,l]."""
    # R is fresh and >= 0 with a zero row and column 0, so its max with the
    # diagonal zeroed is the max over k != l in 1..N-1
    r = spectra.cross_term_matrix(p.mask)
    np.fill_diagonal(r, 0)
    return float(p.M * int(r.max()))  # in Python ints: M R can pass 2**63


def avg_range_sidelobe(n: int, rho) -> float:
    """Mean off-diagonal level per period; the same for every mask.

    rho(1-rho)(rho N - 1) N^2 / ((N-1)(N-2)), exact for rational rho.
    """
    n = operator.index(n)
    if n < 3:
        raise ValueError(f"period must be at least 3, got {n}")
    rho = Fraction(rho)
    val = rho * (1 - rho) * (rho * n - 1) * n * n / ((n - 1) * (n - 2))
    return float(val)


def _per_delay(mask: Mask):
    """a[k], w - a[k] and f(a[k]) for k = 1..N-1, from one autocorr."""
    a = spectra.autocorr(mask)[1:]
    return a, mask.weight - a, spectra.doppler_energy(a, mask.n, mask.weight)


def doppler_sidelobe_sum(mask: Mask, mu4: float) -> DopplerSumBounds:
    """Sum over k of g(a[k]) with its universal lower and upper bounds.

    The integer parts are summed exactly; the mu4 part collapses to the
    mask-independent constant (N-1)(mu4-1) w (N-w). The f-parts' gaps to
    both bounds are checked in exact integers against the tradeoff
    identities (sums over k = 1..N-1), raising ArithmeticError if either
    fails:

        (N-1) (upper - value)_f = (N-1) sum a^2 - (sum a)^2 = upper_gap
              (value - lower)_f = sum a (w - a)             = lower_gap
    """
    check_mu4(mu4)
    n, w = mask.n, mask.weight
    if w * n * n >= 2 ** 63:  # a[k] <= w bounds the int64 sums of f and a^2 by w N^2
        raise ValueError(f"{mask.label} is too large for exact Doppler sums: w N^2 >= 2^63")
    a, _, f = _per_delay(mask)
    wnw = w * (n - w)
    f_sum, a_sum, a2_sum = int(f.sum()), int(a.sum()), int(a @ a)
    upper_gap, lower_gap = (n - 1) * a2_sum - a_sum ** 2, w * a_sum - a2_sum
    if (wnw * (n * (n - 1) - wnw) - (n - 1) * f_sum != upper_gap
            or f_sum - wnw * (n - w) != lower_gap):
        raise ArithmeticError(
            f"Doppler sidelobe sum of {mask.label} breaks its tradeoff identities")
    floor = (n - 1) * (mu4 - 1) * float(wnw)  # sum of w - a[k] is w (N - w)
    return DopplerSumBounds(value=float(f_sum) + floor,
                            lower=float(w * (n - w) ** 2) + floor,
                            upper=wnw * (n - wnw / (n - 1)) + floor,
                            upper_gap=upper_gap, lower_gap=lower_gap)


def worst_case_doppler_sum(mask: Mask, mu4: float) -> float:
    """Max over k of g(a[k])."""
    check_mu4(mu4)
    _, deficit, f = _per_delay(mask)
    return float((f + (mask.n - 1) * (mu4 - 1) * deficit).max())


def mean_doppler_sidelobe(p: ScenarioParams, normalization: str = "none") -> np.ndarray:
    """Per-delay mean of E{|r(k,k,nu)|^2} over nu = 1..MN-1, for k = 1..N-1.

    Closed form: only the bins nu = nM carry the deterministic part, whose
    off-zero total is M^2 f(a[k]); the mu4 floor contributes at every bin.
    Normalizations: "by_rho" divides by the duty cycle, "by_mainlobe" by the
    per-delay mainlobe level. That level is 0 only where w - a[k] = 0, and
    there f and the floor are 0 too, so the mean is 0: 0/0 is reported as 0.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    _, deficit, f = _per_delay(p.mask)
    total = p.total_bins
    per_k = (float(p.M) ** 2 * f + (total - 1) * mainlobe(p, deficit, 0)) / (total - 1)
    if normalization == "by_rho":
        per_k = per_k / float(p.mask.rho)
    elif normalization == "by_mainlobe":
        main = mainlobe(p, deficit, deficit)  # mainlobe_levels(p), no second autocorr
        per_k = np.divide(per_k, main, out=np.zeros_like(per_k), where=main > 0)
    return per_k


@dataclass(frozen=True)
class MaskMetrics:
    """One report row: identity, fluctuation, sidelobe and bound figures.

    The fields are in the column order of REPORT_HEADER; I, I_lower, I_upper
    and J are doppler_sum, its bounds and worst_doppler_sum.
    """

    label: str
    n: int
    w: int
    rho: Fraction
    is_cds: bool
    lam: int | None
    mainlobe_min: float
    mainlobe_max: float
    ptp_ratio: float
    psl_range: float
    avg_range_sl: float
    doppler_sum: float
    doppler_sum_lower: float
    doppler_sum_upper: float
    worst_doppler_sum: float
    worst_mean_doppler_sl: float


def metrics_report(mask: Mask, m_pri: int, mu4: float,
                   normalization: str = "none") -> MaskMetrics:
    """Full metric set for one mask under the given scenario."""
    p = ScenarioParams(mask=mask, M=m_pri, mu4=mu4)
    check, levels = verify_cds(mask), mainlobe_levels(p)
    lo, hi = float(levels.min()), float(levels.max())
    psl, bounds = peak_range_sidelobe(p), doppler_sidelobe_sum(mask, mu4)
    return MaskMetrics(
        mask.label, mask.n, mask.weight, mask.rho, check.is_cds, check.lam,
        lo, hi, hi / lo if lo > 0 else math.inf,
        psl, avg_range_sidelobe(mask.n, mask.rho),
        bounds.value, bounds.lower, bounds.upper, worst_case_doppler_sum(mask, mu4),
        float(mean_doppler_sidelobe(p, normalization).max()))
