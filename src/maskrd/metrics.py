"""Mask quality metrics and bound certificates.

Two aggregates describe the Doppler sidelobes along the range mainlobe.
Both are built from the per-delay summand

    g(a[k]) = f(a[k]) + (N - 1)(mu4 - 1)(w - a[k]),

with f(a) = (w - a)(N - w + a) the receive-gate spectral energy:

  * the sum over k (bounded above with equality for constant a[k], below
    with equality for fully polarized a[k], comb masks), and
  * the worst case over k, minimized by constant-autocorrelation masks.

This normalization is per tiled period; multiply the f-part by M^2 and the
mu4-part by M to land on coherent-window units (see cpi_doppler_sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .masks import Mask, verify_cds
from .response import ScenarioParams, check_mu4, mainlobe
from . import spectra

__all__ = [
    "FluctuationStats",
    "DopplerSumBounds",
    "MeanDopplerSidelobe",
    "MaskMetrics",
    "NORMALIZATIONS",
    "REPORT_HEADER",
    "mainlobe_levels",
    "mainlobe_fluctuation",
    "peak_range_sidelobe",
    "avg_range_sidelobe",
    "doppler_sidelobe_sum",
    "worst_case_doppler_sum",
    "cpi_doppler_sum",
    "monotonicity_check",
    "mean_doppler_sidelobe",
    "per_delay_table",
    "metrics_report",
    "report_row",
]

NORMALIZATIONS = ("none", "by_rho", "by_mainlobe")

REPORT_HEADER = (
    "mask_id", "N", "w", "rho", "is_cds", "lambda",
    "mainlobe_min", "mainlobe_max", "ptp_ratio", "psl_range", "avg_range_sl",
    "I", "I_lower", "I_upper", "J", "worst_mean_doppler_sl",
)


@dataclass(frozen=True)
class FluctuationStats:
    """Spread of the mainlobe level over the range bins 1..N-1."""

    min: float
    max: float
    ptp_ratio: float
    variance: float


@dataclass(frozen=True)
class DopplerSumBounds:
    """Doppler sidelobe sum with its universal bracketing bounds."""

    value: float
    lower: float
    upper: float

    def attains_upper(self, rtol: float = 1e-9) -> bool:
        return math.isclose(self.value, self.upper, rel_tol=rtol)

    def attains_lower(self, rtol: float = 1e-9) -> bool:
        return math.isclose(self.value, self.lower, rel_tol=rtol)


@dataclass(frozen=True)
class MeanDopplerSidelobe:
    """Per-delay mean Doppler sidelobe level and its worst case."""

    per_k: np.ndarray
    worst: float
    normalization: str

    def __post_init__(self):
        self.per_k.setflags(write=False)


def mainlobe_levels(p: ScenarioParams) -> np.ndarray:
    """E{|r(k,k,0)|^2} for k = 1..N-1."""
    deficit = p.mask.weight - spectra.autocorr(p.mask)[1:]
    return mainlobe(p, deficit, deficit)  # S_kN(0) = w - a[k]


def mainlobe_fluctuation(p: ScenarioParams) -> FluctuationStats:
    """Min, max, peak-to-peak ratio and variance of the mainlobe levels."""
    levels = mainlobe_levels(p)
    lo = float(levels.min())
    hi = float(levels.max())
    ratio = hi / lo if lo > 0 else math.inf
    # a constant profile has zero variance outright, not mean-roundoff dust
    var = 0.0 if hi == lo else float(np.var(levels))
    return FluctuationStats(min=lo, max=hi, ptp_ratio=ratio, variance=var)


def peak_range_sidelobe(p: ScenarioParams) -> float:
    """Largest off-diagonal expected level, max over k != l of M R[k,l]."""
    r = spectra.cross_term_matrix(p.mask)[1:, 1:].copy()
    np.fill_diagonal(r, 0)
    return float(p.M * r.max())


def avg_range_sidelobe(n: int, rho) -> float:
    """Mean off-diagonal level per period; the same for every mask.

    rho(1-rho)(rho N - 1) N^2 / ((N-1)(N-2)), exact for rational rho.
    """
    if n < 3:
        raise ValueError(f"period must be at least 3, got {n}")
    rho = Fraction(rho) if not isinstance(rho, float) else Fraction(rho).limit_denominator(10 ** 12)
    val = rho * (1 - rho) * (rho * n - 1) * n * n / ((n - 1) * (n - 2))
    return float(val)


def _per_delay(mask: Mask, mu4: float):
    """a[k], w - a[k], f(a[k]) and g(a[k]) for k = 1..N-1, from one autocorr."""
    a = spectra.autocorr(mask)[1:]
    deficit = mask.weight - a
    f = spectra.doppler_energy(a, mask.n, mask.weight)
    return a, deficit, f, f + (mask.n - 1) * (mu4 - 1) * deficit


def doppler_sidelobe_sum(mask: Mask, mu4: float) -> DopplerSumBounds:
    """Sum over k of g(a[k]) with its universal lower and upper bounds.

    The integer parts are summed exactly; the mu4 part collapses to the
    mask-independent constant (N-1)(mu4-1) w (N-w).
    """
    check_mu4(mu4)
    n, w = mask.n, mask.weight
    _, deficit, f, _ = _per_delay(mask, mu4)
    value = float(f.sum()) + (n - 1) * (mu4 - 1) * float(deficit.sum())
    wnw = w * (n - w)
    upper = wnw * (n - wnw / (n - 1)) + (n - 1) * (mu4 - 1) * float(wnw)
    lower = float(w * (n - w) ** 2) + (n - 1) * (mu4 - 1) * float(wnw)
    return DopplerSumBounds(value=value, lower=lower, upper=upper)


def worst_case_doppler_sum(mask: Mask, mu4: float) -> float:
    """Max over k of g(a[k])."""
    check_mu4(mu4)
    return float(_per_delay(mask, mu4)[3].max())


def cpi_doppler_sum(p: ScenarioParams) -> float:
    """Doppler sidelobe sum in coherent-window units.

    M^2 sum_k f(a[k]) + M (N-1)(mu4-1) sum_k (w - a[k]); this is what a
    Monte Carlo sweep over the bins nu = M, 2M, ... accumulates.
    """
    _, deficit, f, _ = _per_delay(p.mask, p.mu4)
    return ((p.M ** 2) * float(f.sum())
            + p.M * (p.mask.n - 1) * (p.mu4 - 1) * float(deficit.sum()))


def monotonicity_check(mask: Mask) -> bool:
    """Certify min_k a[k] >= (rho - 1/2) N, checked in exact integers."""
    a = spectra.autocorr(mask)
    return 2 * int(a[1:].min()) >= 2 * mask.weight - mask.n


def mean_doppler_sidelobe(p: ScenarioParams,
                          normalization: str = "none") -> MeanDopplerSidelobe:
    """Per-delay mean of E{|r(k,k,nu)|^2} over nu = 1..MN-1.

    Closed form: only the bins nu = nM carry the deterministic part, whose
    off-zero total is M^2 f(a[k]); the mu4 floor contributes at every bin.
    Normalizations: "by_rho" divides by the duty cycle, "by_mainlobe" by the
    per-delay mainlobe level (0/0 is reported as 0, x/0 as inf).
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    _, deficit, f, _ = _per_delay(p.mask, p.mu4)
    total = p.total_bins
    per_k = (float(p.M) ** 2 * f + (total - 1) * mainlobe(p, deficit, 0)) / (total - 1)
    if normalization == "by_rho":
        per_k = per_k / float(p.mask.rho)
    elif normalization == "by_mainlobe":
        main = mainlobe(p, deficit, deficit)  # mainlobe_levels(p), no second autocorr
        per_k = np.divide(per_k, main, out=np.where(per_k == 0, 0.0, np.inf),
                          where=main > 0)
    return MeanDopplerSidelobe(per_k=per_k, worst=float(per_k.max()),
                               normalization=normalization)


def per_delay_table(mask: Mask, mu4: float) -> list:
    """Rows (k, a[k], f(a[k]), g(a[k])) for k = 1..N-1."""
    a, _, f, g = _per_delay(mask, mu4)
    return [(k, int(a[k - 1]), int(f[k - 1]), float(g[k - 1]))
            for k in range(1, mask.n)]


@dataclass(frozen=True)
class MaskMetrics:
    """One report row: identity, fluctuation, sidelobe and bound figures."""

    mask_label: str
    n: int
    weight: int
    rho: Fraction
    is_cds: bool
    lam: int | None
    fluctuation: FluctuationStats
    psl_range: float
    avg_range_sl: float
    doppler_sum: DopplerSumBounds
    worst_doppler_sum: float
    worst_mean_doppler: float
    per_k: tuple


def metrics_report(mask: Mask, m_pri: int, mu4: float,
                   normalization: str = "none") -> MaskMetrics:
    """Full metric set for one mask under the given scenario."""
    p = ScenarioParams(mask=mask, M=m_pri, mu4=mu4)
    check = verify_cds(mask)
    return MaskMetrics(
        mask_label=mask.label,
        n=mask.n,
        weight=mask.weight,
        rho=mask.rho,
        is_cds=check.is_cds,
        lam=check.lam,
        fluctuation=mainlobe_fluctuation(p),
        psl_range=peak_range_sidelobe(p),
        avg_range_sl=avg_range_sidelobe(mask.n, mask.rho),
        doppler_sum=doppler_sidelobe_sum(mask, mu4),
        worst_doppler_sum=worst_case_doppler_sum(mask, mu4),
        worst_mean_doppler=mean_doppler_sidelobe(p, normalization).worst,
        per_k=tuple(per_delay_table(mask, mu4)),
    )


def report_row(m: MaskMetrics) -> tuple:
    """Flatten a MaskMetrics into the CSV column order of REPORT_HEADER."""
    return (
        m.mask_label, m.n, m.weight, f"{m.rho.numerator}/{m.rho.denominator}",
        int(m.is_cds), "" if m.lam is None else m.lam,
        m.fluctuation.min, m.fluctuation.max, m.fluctuation.ptp_ratio,
        m.psl_range, m.avg_range_sl,
        m.doppler_sum.value, m.doppler_sum.lower, m.doppler_sum.upper,
        m.worst_doppler_sum, m.worst_mean_doppler,
    )
