"""Symbol-level Monte Carlo oracle for the masked range-Doppler correlator.

Streams are synthesized from the definition: i.i.d. unit-energy symbols in
the transmit slots, zeros elsewhere, echo delayed by the true range bin and
rotated by the Doppler difference. Nothing here reuses the closed forms, so
estimates are an independent check of them.

Symbol indexing. The correlator touches x_(n-k) for n = 0..MN-1 and
k, l = 1..N-1, so a stream covers the index range -(N-1)..MN-1. Indices
below zero belong to the tail of the previous coherent window and are drawn
as fresh independent symbols; cyclic reuse would correlate the window edges.
Arrays store index i at position i + N - 1.

Randomness. Every trial draws from a Philox generator keyed by the seed
and started at a counter given by (trial, stream id), so results do not
depend on evaluation order and are reproducible across platforms. A
trial's symbols come from its raw 64-bit Philox outputs, each split into
32-bit words low half first, whatever the byte order of the machine. Word
x becomes symbol index (x K) >> 32 for K points (Lemire's method). A
constellation has a power-of-two K = 2**b, for which Lemire's method
rejects no word and (x K) >> 32 is x >> (32 - b), the top b bits of x. So
word j gives symbol j: exactly the indices numpy's Generator.integers(0, K)
draws from the same state. estimate() gathers only the words that the
correlation reads, each once on the diagonal k = l.

Scoring. mc_points estimates each (k, l, nu) point on its own stream and
scores it against its closed form as an McPoint; the closed forms come
from one response.build_grid per distinct k. validate_grid does so over
an index box. Those rows are the one Monte Carlo output:
`response mc` writes their first six fields (MC_HEADER), `response both`
all eight (VALIDATION_HEADER).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .masks import Mask
from . import response

__all__ = [
    "Constellation",
    "EchoScenario",
    "McEstimate",
    "McPoint",
    "ValidationReport",
    "McBudgetError",
    "DEFAULT_BUDGET",
    "CONSTELLATION_NAMES",
    "make_constellation",
    "draw_stream",
    "correlate",
    "estimate",
    "mc_points",
    "validate_grid",
    "expectation_by_double_sum",
    "MC_HEADER",
    "VALIDATION_HEADER",
]

MOMENT_TOL = 1e-12
DEFAULT_BUDGET = 2_000_000_000
CONSTELLATION_NAMES = ("qpsk", "qam16", "qam64")
# CSV columns of response mc (the first six McPoint fields) and response both.
MC_HEADER = ("k", "l", "nu", "value", "se", "trials")
VALIDATION_HEADER = ("k", "l", "nu", "mc_mean", "mc_se", "trials", "closed_form", "z")
# estimate() works on blocks of trials whose largest buffers, 16 bytes per
# trial and correlation term, stay within _BLOCK_BYTES: small enough to
# stay in cache (1 MiB blocks measured slower, 256 KiB no faster, one
# trial at a time 7% slower end to end).
_BLOCK_BYTES = 1 << 17


class McBudgetError(RuntimeError):
    """Requested simulation exceeds the configured work budget."""


@dataclass(frozen=True)
class Constellation:
    """Finite symbol set with validated moments.

    Points have zero mean, zero pseudo-variance and unit average energy;
    mu4 is the normalized fourth moment (1 for constant modulus) and
    mu4_exact its rational value. The point count is a power of two, so
    that every random word maps to a symbol (see the module docstring).
    """

    name: str
    points: np.ndarray
    mu4: float
    mu4_exact: Fraction

    def __post_init__(self):
        count = len(self.points)
        if count < 2 or count & (count - 1):
            raise ValueError(f"constellation {self.name!r} has {count} points, "
                             "not a power of two >= 2")
        self.points.setflags(write=False)

    @property
    def bits(self) -> int:
        """b with 2**b points: the bits of one symbol index."""
        return len(self.points).bit_length() - 1


def _moment(points: np.ndarray, p: int, q: int) -> complex:
    """Empirical E{x^p conj(x)^q} under the uniform symbol distribution."""
    return complex(np.mean(points ** p * np.conj(points) ** q))


def _validated(name: str, points: np.ndarray, mu4_exact: Fraction) -> Constellation:
    energy = float(np.mean(np.abs(points) ** 2))
    points = points / math.sqrt(energy)
    mean = _moment(points, 1, 0)
    pseudo = _moment(points, 2, 0)
    energy = _moment(points, 1, 1).real
    # Written as "not within", so that NaN moments fail every check.
    if not abs(mean) <= MOMENT_TOL:
        raise ValueError(f"constellation {name!r} has nonzero mean {mean}")
    if not abs(pseudo) <= MOMENT_TOL:
        raise ValueError(
            f"constellation {name!r} has nonzero pseudo-variance {pseudo}")
    if not abs(energy - 1.0) <= MOMENT_TOL:
        raise ValueError(
            f"constellation {name!r} failed unit-energy normalization")
    mu4 = float(mu4_exact)
    if not mu4 >= 1.0:
        raise ValueError(f"constellation {name!r} has mu4 = {mu4} < 1")
    return Constellation(name=name, points=points, mu4=mu4, mu4_exact=mu4_exact)


def _square_qam(levels) -> tuple[np.ndarray, Fraction]:
    """Square grid over the given integer levels plus its exact mu4."""
    pts = np.array([complex(a, b) for a in levels for b in levels])
    sq = [a * a + b * b for a in levels for b in levels]
    energy = Fraction(sum(sq), len(sq))
    fourth = Fraction(sum(s * s for s in sq), len(sq))
    return pts, fourth / (energy * energy)


def make_constellation(name: str) -> Constellation:
    """Built-in unit-energy constellation by name: qpsk, qam16 or qam64."""
    key = name.strip().lower()
    if key == "qpsk":
        points = np.array([1, 1j, -1, -1j], dtype=complex)
        return _validated("qpsk", points, Fraction(1))
    if key == "qam16":
        points, mu4 = _square_qam((-3, -1, 1, 3))
        return _validated("qam16", points, mu4)
    if key == "qam64":
        points, mu4 = _square_qam(range(-7, 8, 2))
        return _validated("qam64", points, mu4)
    raise ValueError(f"unknown constellation {name!r}")


@dataclass(frozen=True)
class EchoScenario:
    """Single-target echo setup: who transmitted what, and which shift."""

    mask: Mask
    M: int
    constellation: Constellation
    true_delay: int
    true_doppler: int
    trial_doppler: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"M must be positive, got {self.M}")
        response._check_delay("true_delay", self.true_delay, self.mask.n)
        for name in ("true_doppler", "trial_doppler"):
            response._check_nu(name, getattr(self, name), self.M * self.mask.n)

    @property
    def doppler_difference(self) -> int:
        return self.trial_doppler - self.true_doppler


def _check_seed(seed: int) -> None:
    # the seed is the 128-bit Philox key
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if seed >= 1 << 128:
        raise ValueError("seed must be below 2**128")


class _TrialRngPool:
    """Philox generator keyed by the seed that rewinds to (trial, stream).

    Trial t of stream s starts at the 256-bit counter (s << 192) | (t << 128),
    so streams are disjoint by (trial, stream); rewinding one bit generator
    saves its construction cost on every trial.
    """

    def __init__(self, seed: int):
        _check_seed(seed)
        self._bg = np.random.Philox(key=seed)
        key = self._bg.state["state"]["key"]
        # Plain ints, not arrays: the state setter reads them one by one, and
        # numpy scalars make a rewind several times slower.
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": [0, 0, 0, 0],
                                 "key": [int(v) for v in key]},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def words(self, trial: int, stream: int, count: int) -> np.ndarray:
        """The first uint32 words of (trial, stream), at least count of them.

        Each 64-bit Philox output splits into its low half, then its high half:
        the order in which Generator.integers consumes 32-bit words.
        """
        counter = self._state["state"]["counter"]
        counter[2], counter[3] = trial, stream
        self._bg.state = self._state
        raw = self._bg.random_raw((count + 1) // 2)
        return raw.astype("<u8", copy=False).view("<u4")


def _symbol_index(words: np.ndarray, bits: int) -> np.ndarray:
    """Lemire's map (x K) >> 32 of uint32 words to indices in range(K = 2**bits).

    For a power-of-two K it is the top bits of each word, in uint32.
    """
    return words >> (32 - bits)


def draw_stream(mask: Mask, m_pri: int, constellation: Constellation,
                seed: int, trial: int = 0, stream: int = 0) -> np.ndarray:
    """Masked symbol stream over indices -(N-1)..MN-1.

    Position j of the result holds the symbol with index j - (N - 1).
    Transmit slots hold i.i.d. uniform constellation points, listen slots
    hold exact zeros. Deterministic in (seed, trial, stream).
    """
    n = mask.n
    idx = np.arange(m_pri * n + n - 1) - (n - 1)
    gate = mask.as_array()[idx % n].astype(np.complex128)
    words = _TrialRngPool(seed).words(trial, stream, len(gate))
    return constellation.points[_symbol_index(words[:len(gate)], constellation.bits)] * gate


def _kernel(mask: Mask, m_pri: int, k: int, l: int, nu: int):
    """Gather indices of x_(n-k) and x_(n-l), and the phases, of one correlation.

    The active slots n (listening, with both delayed replicas transmitting)
    repeat with period N: they are found in one period and tiled over M.
    """
    n = mask.n
    total = m_pri * n
    bits = mask.as_array()
    r = np.arange(n)
    residues = r[((1 - bits) * bits[(r - k) % n] * bits[(r - l) % n]).astype(bool)]
    ns = (np.arange(0, total, n)[:, None] + residues).ravel()
    phase = np.exp(-2j * np.pi * nu * ns / total)
    return ns - k + n - 1, ns - l + n - 1, phase


def correlate(scenario: EchoScenario, stream: np.ndarray, l: int) -> complex:
    """r(k0, l, nu_t - nu_0) evaluated directly from its defining sum."""
    response._check_delay("l", l, scenario.mask.n)
    idx_k, idx_l, phase = _kernel(scenario.mask, scenario.M, scenario.true_delay,
                                  l, scenario.doppler_difference)
    return complex(np.dot(stream[idx_k] * np.conj(stream[idx_l]), phase))


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of |r|^2 with its standard error."""

    mean_sq: float
    se: float
    trials: int
    seed: int


def estimate(scenario: EchoScenario, l: int, trials: int, seed: int,
             stream: int = 0) -> McEstimate:
    """Estimate E{|r|^2} over independent trials.

    Trial t draws its own stream from (seed, t, stream), so any execution
    order or partition over workers yields the same per-trial values. Each
    |r|^2 equals correlate() on draw_stream() bit for bit: only the words
    the correlation reads are gathered (each once on the diagonal k = l,
    where x_(n-k) and x_(n-l) are the same symbol), their symbol indices
    are the top bits of each word, the products are the same complex
    products (looked up in a table), and a block's sums are one np.matmul,
    which takes each trial's 1 x 1 output with the BLAS dot of np.dot over
    a contiguous row.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    n = scenario.mask.n
    response._check_delay("l", l, n)
    idx_k, idx_l, phase = _kernel(scenario.mask, scenario.M, scenario.true_delay,
                                  l, scenario.doppler_difference)
    length = scenario.M * n + n - 1
    points = scenario.constellation.points
    bits = scenario.constellation.bits
    # The stream's value at a transmit slot: the point times a gate of 1 + 0j.
    gated = points * np.ones(len(points), dtype=np.complex128)
    # pair[(i << bits) | j] = gated[i] conj(gated[j]): 64 KiB for qam64.
    pair = np.repeat(gated, len(points)) * np.conj(np.tile(gated, len(points)))
    width = len(phase)
    diagonal = scenario.true_delay == l
    if diagonal:
        # x_(n-k) and x_(n-l) are one symbol i: gather it once, read pair[i (K + 1)].
        gather, pair = idx_k, pair[::len(points) + 1].copy()
    else:
        gather = np.concatenate([idx_k, idx_l])
    block = min(trials, max(1, _BLOCK_BYTES // (16 * max(width, 1))))
    words = np.empty((block, len(gather)), dtype=np.uint32)
    pool = _TrialRngPool(seed)
    vals = np.empty(trials, dtype=np.float64)
    for start in range(0, trials, block):
        rows = words[:min(block, trials - start)]
        # Row by row, into C order: a 2-D gather words2d[:, gather] is
        # F-ordered, and BLAS sums a strided row in another order.
        for i, row in enumerate(rows):
            row[:] = pool.words(start + i, stream, length)[gather]
        index = _symbol_index(rows, bits)
        if not diagonal:
            index = (index[:, :width] << bits) | index[:, width:]
        # take(), not pair[index]: a uint32 fancy index is first cast to intp
        dots = np.matmul(pair.take(index)[:, None, :], phase[:, None])
        vals[start:start + len(rows)] = [abs(z) ** 2 for z in dots.ravel().tolist()]
    mean = float(np.mean(vals))
    se = float(math.sqrt(np.var(vals, ddof=1) / trials))
    return McEstimate(mean_sq=mean, se=se, trials=trials, seed=seed)


@dataclass(frozen=True)
class McPoint:
    """One validated grid point: estimate, closed form and z-score.

    The fields are in the column order of VALIDATION_HEADER.
    """

    k: int
    l: int
    nu: int
    mc_mean: float
    mc_se: float
    trials: int
    closed_form: float
    z: float


@dataclass(frozen=True)
class ValidationReport:
    """Scored McPoints of a grid, in (k, l, nu) row-major order."""

    points: tuple


def _z_score(mc_mean: float, se: float, closed: float) -> float:
    # An se within a few ulps of the mean is float roundoff of a deterministic
    # |r|^2 (qpsk on the mainlobe), not sampling noise: dividing by it would
    # turn last-bit differences into huge z.
    if se > 8 * sys.float_info.epsilon * max(1.0, abs(mc_mean)):
        return (mc_mean - closed) / se
    # Deterministic point: the estimate must match the closed form outright.
    if abs(mc_mean - closed) <= 1e-9 * max(1.0, abs(closed)):
        return 0.0
    return math.inf


def mc_points(mask: Mask, m_pri: int, constellation: Constellation,
              triples, trials: int, seed: int,
              budget: int = DEFAULT_BUDGET):
    """Estimate and score an explicit list of (k, l, nu) triples.

    Point i uses the disjoint generator stream i, so the set of estimates is
    independent of the order in which points are processed. The closed
    forms come first, one response.build_grid per distinct k over the l and
    nu values of its triples: they check every triple before the first trial.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    _check_seed(seed)
    triples = [(int(k), int(l), int(nu)) for k, l, nu in triples]
    params = response.ScenarioParams(mask=mask, M=m_pri, mu4=constellation.mu4)
    cost = len(triples) * trials * params.total_bins
    if cost > budget:
        raise McBudgetError(f"points x trials x MN = {cost} exceeds the budget {budget}")
    # k -> ({l: its grid position}, {nu: its grid position})
    axes = {}
    for k, l, nu in triples:
        ls, nus = axes.setdefault(k, ({}, {}))
        ls.setdefault(l, len(ls))
        nus.setdefault(nu, len(nus))
    # every k first, as build_grid over a box checks them, then l and nu per k
    for k in axes:
        response._check_delay("k", k, mask.n)
    grids = {k: response.build_grid(params, (k,), ls, nus).values[0]
             for k, (ls, nus) in axes.items()}
    closed = [float(grids[k][axes[k][0][l], axes[k][1][nu]]) for k, l, nu in triples]
    out = []
    for i, ((k, l, nu), cf) in enumerate(zip(triples, closed)):
        scen = EchoScenario(mask=mask, M=m_pri, constellation=constellation,
                            true_delay=k, true_doppler=0, trial_doppler=nu)
        est = estimate(scen, l, trials, seed, stream=i)
        out.append(McPoint(k=k, l=l, nu=nu, mc_mean=est.mean_sq, mc_se=est.se, trials=trials,
                           closed_form=cf, z=_z_score(est.mean_sq, est.se, cf)))
    return out


def validate_grid(mask: Mask, m_pri: int, constellation: Constellation,
                  k_set, l_set, nu_set, trials: int, seed: int,
                  budget: int = DEFAULT_BUDGET) -> ValidationReport:
    """Monte Carlo vs closed form over the cross product of the index sets."""
    triples = [(k, l, nu) for k in k_set for l in l_set for nu in nu_set]
    if not triples:
        raise ValueError("index sets must be non-empty")
    pts = mc_points(mask, m_pri, constellation, triples, trials, seed, budget)
    return ValidationReport(points=tuple(pts))


def expectation_by_double_sum(mask: Mask, m_pri: int,
                              constellation: Constellation,
                              k: int, l: int, nu: int) -> float:
    """Brute-force E{|r(k,l,nu)|^2} from the full double sum.

    Expands |r|^2 over all index pairs (n, m) of the coherent window and
    evaluates each symbol expectation from the constellation's empirical
    moment table, with no independence shortcuts beyond distinct-index
    factorization. Intended as a desk-scale oracle for the closed forms.
    """
    n = mask.n
    response._check_delay("k", k, n)
    response._check_delay("l", l, n)
    total = m_pri * n
    bits = mask.as_array()
    ns = np.arange(total)
    u = (1 - bits[ns % n]) * bits[(ns - k) % n] * bits[(ns - l) % n]
    active = ns[u.astype(bool)]
    if len(active) == 0:
        return 0.0
    moments = {(p, q): _moment(constellation.points, p, q)
               for p in range(3) for q in range(3)}
    acc = 0.0 + 0.0j
    for na in active:
        for ma in active:
            powers = {}
            for idx, (dp, dq) in (
                (na - k, (1, 0)),
                (na - l, (0, 1)),
                (ma - k, (0, 1)),
                (ma - l, (1, 0)),
            ):
                p, q = powers.get(idx, (0, 0))
                powers[idx] = (p + dp, q + dq)
            e = 1.0 + 0.0j
            for p, q in powers.values():
                e *= moments[(p, q)]
            acc += e * np.exp(2j * np.pi * nu * (na - ma) / total)
    return float(acc.real)
