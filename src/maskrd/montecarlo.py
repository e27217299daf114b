"""Symbol-level Monte Carlo oracle for the masked range-Doppler correlator.

Streams are synthesized from the definition: i.i.d. unit-energy symbols in
the transmit slots the correlation reads, zeros elsewhere, echo delayed by
the true range bin and rotated by the Doppler mismatch nu. Nothing here
reuses the closed forms, so estimates are an independent check of them.

Symbol indexing. The correlator touches x_(n-k) for n = 0..MN-1 and
k, l = 1..N-1, so a stream covers the index range -(N-1)..MN-1. Indices
below zero belong to the tail of the previous coherent window and are drawn
as fresh independent symbols; cyclic reuse would correlate the window edges.
Arrays store index i at position i + N - 1.

Randomness. Stream s is the byte sequence that numpy's
Generator(Philox(key=seed, counter=s << 192)).integers(0, K, dtype=np.uint8)
draws for K points: its raw 64-bit outputs split into bytes, low byte
first, whatever the byte order of the machine. A constellation has
K = 2**b <= 256 points, for which that 8-bit bounded draw (Lemire's method)
rejects no byte and maps byte x to x >> (8 - b), its top b bits. A point
(k, l) draws only the U symbols its correlation reads, x_(n-k) and x_(n-l)
over its active slots n: with W = ceil(U / 8), trial t reads the outputs
tW..tW+W-1 of its stream, and byte j of them is the symbol index of the
j-th read position in ascending order. Trial and stream numbers are
below 2**64, so a stream's trials never reach the next stream. Any
(trial, stream) is reached directly (_stream), results do not depend on
evaluation order, and they are reproducible across platforms. The read
positions of a (k, l), and the gather below, are its read plan (_plan),
the same for every nu. draw_stream() draws with that Generator.integers
call itself; estimate() positions its stream once per point and draws its
blocks of trials in order. On the diagonal k = l it looks the bytes up as
drawn; off it, one gather pairs each term's bytes (x_(n-l), x_(n-k)) into
one index of a K * 256-entry product table. A trial's |r|^2 is
r.real ** 2 + r.imag ** 2, in numpy.

Scoring. mc_points estimates each (k, l, nu) point on its own stream and
scores it against its closed form as an McPoint; the closed forms come
from one response.build_grid per distinct k. It builds the product tables
once, and a read plan once for each run of consecutive points that share
(k, l), holding one plan at a time. validate_grid does so over an index
box and returns the McPoints. Those rows, all eight fields under
VALIDATION_HEADER, are the one Monte Carlo output (`response both`).
"""

from __future__ import annotations

import math
import operator
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .masks import Mask
from . import response

__all__ = [
    "Constellation",
    "EchoScenario",
    "McEstimate",
    "McPoint",
    "McBudgetError",
    "DEFAULT_BUDGET",
    "BUDGET_ENV",
    "CONSTELLATION_NAMES",
    "make_constellation",
    "draw_stream",
    "correlate",
    "estimate",
    "check_run",
    "mc_points",
    "validate_grid",
    "expectation_by_double_sum",
    "VALIDATION_HEADER",
]

MOMENT_TOL = 1e-12
DEFAULT_BUDGET = 2_000_000_000
BUDGET_ENV = "MASKRD_MC_BUDGET"
# estimate() works on blocks of trials whose largest buffers, 16 bytes per
# trial and correlation term, stay within _BLOCK_BYTES, and draws each
# block's random bytes with one call. The perfbench wall_s medians of 10
# alternating runs (2 vCPUs, 4 s runs) at 128 KiB, 256 KiB, 512 KiB and
# 1 MiB were 0.085, 0.075, 0.072 and 0.074 s on mc_design_point and 0.110,
# 0.104, 0.102 and 0.109 s on mc_sweep, and no size beat 512 KiB in more
# than 6 of 10 pairs; mc_design_point peak RSS was 40.7, 40.8, 41.1 and
# 42.2 MB. One trial a block measured 3-4x slower.
_BLOCK_BYTES = 1 << 19


class McBudgetError(ValueError):
    """Requested simulation exceeds the configured work budget."""


@dataclass(frozen=True)
class Constellation:
    """Finite symbol set with the moments the closed forms assume.

    Points have zero mean, zero pseudo-variance and unit average energy,
    and mu4_exact is the rational normalized fourth moment E|x|^4 (1 for
    constant modulus; mu4 is its float), each within MOMENT_TOL; any other
    set is refused, not rescaled. The point count is a power of two
    of at most 256, so that every random byte maps to a symbol (see the
    module docstring).
    """

    name: str
    points: np.ndarray
    mu4_exact: Fraction

    def __post_init__(self):
        count = len(self.points)
        if count < 2 or count & (count - 1):
            raise ValueError(f"constellation {self.name!r} has {count} points, "
                             "not a power of two >= 2")
        if count > 256:
            raise ValueError(f"constellation {self.name!r} has {count} points, "
                             "more than the 256 of one random byte")
        mean, pseudo, energy, fourth = (_moment(self.points, p, q)
                                        for p, q in ((1, 0), (2, 0), (1, 1), (2, 2)))
        # Written as "not within", so that NaN moments fail every check.
        if not abs(mean) <= MOMENT_TOL:
            raise ValueError(f"constellation {self.name!r} has nonzero mean {mean}")
        if not abs(pseudo) <= MOMENT_TOL:
            raise ValueError(f"constellation {self.name!r} has nonzero pseudo-variance {pseudo}")
        if not abs(energy - 1) <= MOMENT_TOL:
            raise ValueError(f"constellation {self.name!r} is not unit-energy: {energy.real}")
        # E|x|^4 >= (E|x|^2)^2 = 1, so this refuses a mu4 below 1 too
        if not abs(fourth - self.mu4) <= MOMENT_TOL:
            raise ValueError(f"constellation {self.name!r} has mu4 = {self.mu4}, "
                             f"not its fourth moment {fourth.real}")
        self.points.setflags(write=False)

    @property
    def mu4(self) -> float:
        return float(self.mu4_exact)

    @property
    def bits(self) -> int:
        """b with 2**b points: the bits of one symbol index."""
        return len(self.points).bit_length() - 1


def _moment(points: np.ndarray, p: int, q: int) -> complex:
    """Empirical E{x^p conj(x)^q} under the uniform symbol distribution."""
    return complex(np.mean(points ** p * np.conj(points) ** q))


def _square_qam(name: str, levels) -> Constellation:
    """Square grid over the given integer levels, scaled to unit energy."""
    pts = np.array([complex(a, b) for a in levels for b in levels])
    sq = [a * a + b * b for a in levels for b in levels]
    energy = Fraction(sum(sq), len(sq))
    fourth = Fraction(sum(s * s for s in sq), len(sq))
    return Constellation(name, pts / math.sqrt(energy), fourth / (energy * energy))


_CONSTELLATIONS = {c.name: c for c in (
    Constellation("qpsk", np.array([1, 1j, -1, -1j]), Fraction(1)),
    _square_qam("qam16", (-3, -1, 1, 3)),
    _square_qam("qam64", range(-7, 8, 2)),
)}
CONSTELLATION_NAMES = tuple(_CONSTELLATIONS)


def make_constellation(name: str) -> Constellation:
    """Built-in unit-energy constellation by name, one of CONSTELLATION_NAMES."""
    try:
        return _CONSTELLATIONS[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown constellation {name!r}") from None


@dataclass(frozen=True)
class EchoScenario:
    """Single-target echo: who transmitted what, the delay, the Doppler mismatch nu."""

    mask: Mask
    M: int
    constellation: Constellation
    true_delay: int
    nu: int

    def __post_init__(self):
        object.__setattr__(self, "M", response._check_M(self.M))
        object.__setattr__(self, "true_delay", response._check_delay(
            "true_delay", self.true_delay, self.mask.n))
        response._check_nu("nu", self.nu, self.M * self.mask.n)


def _check_seed(seed: int) -> int:
    # the seed is the 128-bit Philox key
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if seed >= 1 << 128:
        raise ValueError("seed must be below 2**128")
    return seed


def _check_stream_index(name: str, value: int) -> int:
    # trial and stream each fill at most one 64-bit word of the Philox counter
    value = operator.index(value)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must be in 0..2**64 - 1, got {value}")
    return value


def _stream(seed: int, stream: int, first: int = 0) -> np.random.Philox:
    """Philox keyed by the seed, positioned at raw output first of a stream.

    Stream s starts at the 256-bit counter s << 192, so streams are disjoint.
    One counter step makes four outputs, the first of them from step 1.
    Philox buffers what a draw leaves of a step, so draws in order read the
    outputs in order.
    """
    bg = np.random.Philox(key=_check_seed(seed), counter=(stream << 192) + first // 4)
    bg.random_raw(first % 4)
    return bg


def _symbol_index(data: np.ndarray, bits: int) -> np.ndarray:
    """Lemire's 8-bit map (x K) >> 8 of bytes to indices in range(K = 2**bits).

    For a power-of-two K it is the top bits of each byte, in uint8.
    """
    return data >> (8 - bits)


def _slots(mask: Mask, m_pri: int, k: int, l: int) -> np.ndarray:
    """Active slots n of r(k, l, nu): listening, with both delayed replicas
    transmitting. They repeat with period N: they are found in one period and
    tiled over M.
    """
    n = mask.n
    bits = mask.as_array()
    r = np.arange(n)
    residues = r[((1 - bits) * bits[(r - k) % n] * bits[(r - l) % n]).astype(bool)]
    return (np.arange(0, m_pri * n, n)[:, None] + residues).ravel()


def _phase(ns: np.ndarray, total: int, nu: int) -> np.ndarray:
    """The phases exp(-2 pi i nu n / MN) of the slots ns, MN = total."""
    return np.exp(-2j * np.pi * nu * ns / total)


def _kernel(mask: Mask, m_pri: int, k: int, l: int, nu: int):
    """Gather indices of x_(n-k) and x_(n-l), and the phases, of one correlation."""
    n = mask.n
    ns = _slots(mask, m_pri, k, l)
    return ns - k + n - 1, ns - l + n - 1, _phase(ns, m_pri * n, nu)


class _Plan(NamedTuple):
    """How r(k, l, nu) reads its stream, for every nu (see _plan)."""

    ns: np.ndarray
    reads: np.ndarray
    inter: np.ndarray
    words: int
    table: np.ndarray | None


def _tables(constellation: Constellation):
    """The two tables of symbol products, both indexed by raw bytes.

    With pair[x, j] = points[i] conj(points[j]) for the byte x of symbol
    i = x >> (8 - bits): the diagonal table holds |x|^2 by the byte x as
    drawn (256 entries), the off-diagonal one pair[x, j] at (x << bits) | j
    (K * 256 entries, 256 KiB for qam64).
    """
    points = constellation.points
    by_byte = _symbol_index(np.arange(256, dtype=np.uint8), constellation.bits)
    pair = points[by_byte, None] * np.conj(points)
    return pair[np.arange(256), by_byte], pair.ravel()


def _plan(mask: Mask, m_pri: int, k: int, l: int, tables=None) -> _Plan:
    """Where r(k, l, nu) reads the stream, the same for every nu.

    Holds the active slots ns; the U read positions, idx_k and idx_l of
    _kernel merged in ascending order; inter, the numbers of the reads of
    each term interleaved as (x_(n-l), x_(n-k)); and W = ceil(U / 8). The
    positions are marked in a boolean array over the stream, and each index
    is numbered by its place among the marks (a binary search of the
    ascending idx_k and idx_l). Given the constellation's _tables(), the
    plan also keeps the one table its (k, l) reads.
    """
    l = response._check_delay("l", l, mask.n)
    n = mask.n
    ns = _slots(mask, m_pri, k, l)
    idx_k, idx_l = ns + (n - 1 - k), ns + (n - 1 - l)
    marked = np.zeros((m_pri + 1) * n - 1, dtype=bool)
    marked[idx_k] = True
    marked[idx_l] = True
    reads = np.flatnonzero(marked)
    inter = np.stack([reads.searchsorted(idx_l), reads.searchsorted(idx_k)], axis=1).ravel()
    table = None if tables is None else tables[k != l]
    return _Plan(ns, reads, inter, -(-len(reads) // 8), table)


def draw_stream(scenario: EchoScenario, l: int, seed: int,
                trial: int = 0, stream: int = 0) -> np.ndarray:
    """The symbols r(k0, l, nu) reads, in a stream over -(N-1)..MN-1.

    Position j of the result holds the symbol with index j - (N - 1). The
    read positions (all of them transmit slots) hold i.i.d. uniform
    constellation points, every other position an exact zero. Deterministic
    in (seed, trial, stream).
    """
    trial = _check_stream_index("trial", trial)
    stream = _check_stream_index("stream", stream)
    plan = _plan(scenario.mask, scenario.M, scenario.true_delay, l)
    points = scenario.constellation.points
    rng = np.random.Generator(_stream(seed, stream, trial * plan.words))
    out = np.zeros((scenario.M + 1) * scenario.mask.n - 1, dtype=np.complex128)
    out[plan.reads] = points[rng.integers(0, len(points), size=len(plan.reads),
                                          dtype=np.uint8)]
    return out


def correlate(scenario: EchoScenario, stream: np.ndarray, l: int) -> complex:
    """r(k0, l, nu) evaluated directly from its defining sum."""
    l = response._check_delay("l", l, scenario.mask.n)
    idx_k, idx_l, phase = _kernel(scenario.mask, scenario.M, scenario.true_delay,
                                  l, scenario.nu)
    return complex(np.dot(stream[idx_k] * np.conj(stream[idx_l]), phase))


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of |r|^2 with its standard error."""

    mean_sq: float
    se: float


def estimate(scenario: EchoScenario, l: int, trials: int, seed: int,
             stream: int = 0, *, plan: _Plan | None = None) -> McEstimate:
    """Estimate E{|r|^2} over independent trials.

    Trial t reads its own outputs of the stream (see the module docstring),
    so any execution order or partition over workers yields the same
    per-trial values. Each |r|^2 is r.real ** 2 + r.imag ** 2 of correlate()
    on draw_stream(), bit for bit. The stream is positioned once; each block
    of consecutive trials is its next draw of raw outputs, viewed as one row
    of bytes per trial. On the diagonal k = l the reads are idx_k in order
    and x_(n-k) = x_(n-l), so a row's first U bytes index a 256-entry table
    of |x|^2 as drawn. Off it, one take() gathers, in C order, the bytes of
    each term interleaved as (x_(n-l), x_(n-k)); read as little-endian
    uint16 and shifted right by 8 - b, each pair is its index into a
    K * 256-entry table of x_(n-k) conj(x_(n-l)) by the raw byte of x_(n-k)
    and the symbol of x_(n-l). Both tables hold the same complex products
    as correlate(). A block's sums are one np.matmul, which takes each
    trial's 1 x 1 output with the BLAS dot of np.dot over a contiguous row.

    plan is the _plan() of (k0, l) with the constellation's _tables(), as
    mc_points shares it between the points of one (k0, l); by default the
    call builds its own.
    """
    check_run(1, trials, seed, scenario.M * scenario.mask.n)
    stream = _check_stream_index("stream", stream)
    k = scenario.true_delay
    if plan is None:
        plan = _plan(scenario.mask, scenario.M, k, l, _tables(scenario.constellation))
    phase = _phase(plan.ns, scenario.M * scenario.mask.n, scenario.nu)
    shift = 8 - scenario.constellation.bits
    table, width, words = plan.table, len(phase), plan.words
    block = min(trials, max(1, _BLOCK_BYTES // (16 * max(width, 1))))
    bg = _stream(seed, stream)
    vals = np.empty(trials, dtype=np.float64)
    for start in range(0, trials, block):
        rows = min(block, trials - start)
        # each 64-bit output as 8 bytes, low byte first: one row per trial
        raw = bg.random_raw(rows * words).astype("<u8", copy=False)
        data = raw.view(np.uint8).reshape(rows, 8 * words)
        index = data[:, :width]  # on the diagonal, the symbols as drawn
        if k != l:
            # take() fills a C-ordered result; data[:, inter] would be F-ordered,
            # and BLAS sums a strided row in another order. Each byte pair,
            # read as one little-endian uint16 (x_(n-k) << 8) | x_(n-l) and
            # shifted, is (x << bits) | j in the off-diagonal table.
            index = data.take(plan.inter, axis=1).view("<u2")
            index >>= shift
        # take(), not table[index]: fancy indexing by a uint8 or uint16 array
        # measured 1.5-2.5x slower; take() fills a C-ordered result from any index
        dots = np.matmul(table.take(index)[:, None, :], phase[:, None])
        vals[start:start + rows] = (dots.real ** 2 + dots.imag ** 2).ravel()
        # Each block leaves the heap as it found it: it shifts its index in
        # place, keeps the products an unnamed temporary and frees its arrays
        # before the next block allocates. Where blocks' arrays overlapped,
        # free memory gathered at the top of the heap, and glibc returned it to
        # the system and faulted it back in block after block: ~12 000-25 000
        # minor page faults in one `response both` run.
        del raw, data, index, dots
    mean, se = _mean_se(vals)
    return McEstimate(mean_sq=mean, se=se)


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    """np.mean(vals) and sqrt(np.var(vals, ddof=1) / len(vals)), bit for bit.

    The same two pairwise sums as numpy's, the second over vals itself,
    which it overwrites with the squared deviations.
    """
    count = len(vals)
    mean = np.add.reduce(vals) / count
    vals -= mean
    vals *= vals
    return float(mean), math.sqrt(np.add.reduce(vals) / (count - 1) / count)


@dataclass(frozen=True)
class McPoint:
    """One validated grid point: estimate, closed form and z-score."""

    k: int
    l: int
    nu: int
    mc_mean: float
    mc_se: float
    trials: int
    closed_form: float
    z: float


# CSV columns of response both: the McPoint fields.
VALIDATION_HEADER = tuple(f.name for f in fields(McPoint))


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


def check_run(points: int, trials: int, seed: int, total_bins: int) -> None:
    """Refuse a Monte Carlo run before any work: a budget that is not an
    integer, fewer than 2 trials, a seed outside the Philox key, or points x
    trials x MN (MN = total_bins) above the budget, $MASKRD_MC_BUDGET
    (DEFAULT_BUDGET when unset or empty).
    """
    text = os.environ.get(BUDGET_ENV) or DEFAULT_BUDGET
    try:
        budget = int(text)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {text!r}") from None
    points, trials = operator.index(points), operator.index(trials)
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    _check_seed(seed)
    cost = points * trials * total_bins
    if cost > budget:
        raise McBudgetError(f"points x trials x MN = {cost} exceeds the budget {budget}")


def mc_points(mask: Mask, m_pri: int, constellation: Constellation,
              triples, trials: int, seed: int):
    """Estimate and score an explicit list of (k, l, nu) triples.

    Point i uses the disjoint generator stream i, so the set of estimates is
    independent of the order in which points are processed. The closed
    forms come first, one response.build_grid per distinct k over the l and
    nu values of its triples: they check every triple before the first trial.
    The constellation's product tables are built once per call, and one
    read plan for each run of consecutive triples that share (k, l).
    """
    triples = [tuple(map(operator.index, (k, l, nu))) for k, l, nu in triples]
    # M as a Python int first, so that MN cannot wrap
    check_run(len(triples), trials, seed, mask.n * response._check_M(m_pri))
    params = response.ScenarioParams(mask=mask, M=m_pri, mu4=constellation.mu4)
    # k -> ({l: its grid position}, {nu: its grid position})
    axes = {}
    for k, l, nu in triples:
        ls, nus = axes.setdefault(k, ({}, {}))
        ls.setdefault(l, len(ls))
        nus.setdefault(nu, len(nus))
    grids = {k: response.build_grid(params, (k,), ls, nus).values[0]
             for k, (ls, nus) in axes.items()}
    closed = [float(grids[k][axes[k][0][l], axes[k][1][nu]]) for k, l, nu in triples]
    tables = _tables(constellation)
    plan = plan_kl = None
    out = []
    for i, ((k, l, nu), cf) in enumerate(zip(triples, closed)):
        scen = EchoScenario(mask=mask, M=m_pri, constellation=constellation,
                            true_delay=k, nu=nu)
        if (k, l) != plan_kl:
            # Drop the old plan before building the next, which then reuses
            # its memory: built while the old one was held, plans made two
            # qam64 `mc_sweep`-shaped runs fault in ~360 pages, not ~70.
            plan, plan_kl = None, (k, l)
            plan = _plan(mask, m_pri, k, l, tables)
        est = estimate(scen, l, trials, seed, stream=i, plan=plan)
        out.append(McPoint(k=k, l=l, nu=nu, mc_mean=est.mean_sq, mc_se=est.se, trials=trials,
                           closed_form=cf, z=_z_score(est.mean_sq, est.se, cf)))
    return out


def validate_grid(mask: Mask, m_pri: int, constellation: Constellation,
                  k_set, l_set, nu_set, trials: int, seed: int) -> tuple:
    """Monte Carlo vs closed form over the cross product of the index sets:
    the McPoints in (k, l, nu) row-major order."""
    # refused by its size, before the triples are built
    check_run(len(k_set) * len(l_set) * len(nu_set), trials, seed,
              mask.n * response._check_M(m_pri))
    triples = [(k, l, nu) for k in k_set for l in l_set for nu in nu_set]
    if not triples:
        raise ValueError("index sets must be non-empty")
    return tuple(mc_points(mask, m_pri, constellation, triples, trials, seed))


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
    m_pri = response._check_M(m_pri)
    k, l = response._check_delay("k", k, n), response._check_delay("l", l, n)
    total = m_pri * n
    response._check_nu("nu", nu, total)
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
