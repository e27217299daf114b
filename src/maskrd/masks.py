"""Periodic 0/1 transmission masks: families, CDS checks and text form.

A mask is one period of the transmit gate: bit 1 transmits, bit 0 listens;
the listen slots are 1 - bits wherever a reception gate is needed.
All-zero and all-one masks are rejected everywhere (the former transmits
nothing, the latter never receives), so the duty cycle is always in (0, 1).
Singer masks run the m-sequence recurrence of a primitive polynomial from
gf2's table, seeded by gf2.trace_seeds; no GF(2^m) arithmetic is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import gf2

__all__ = [
    "Mask",
    "CdsCheck",
    "singer_mask",
    "comb_mask",
    "random_mask",
    "custom_mask",
    "cyclic_shift",
    "verify_cds",
    "parse_mask",
    "serialize_mask",
    "load_mask",
    "save_mask",
    "from_spec",
    "SPECS",
]

@dataclass(frozen=True)
class Mask:
    """One period of an N-periodic 0/1 transmission mask.

    bits may be any 0/1 sequence and are kept as a tuple of Python ints.
    Two masks compare equal iff their bit patterns agree; the label, which
    names the family, is bookkeeping only.
    """

    bits: tuple
    label: str = field(default="", compare=False)

    def __post_init__(self):
        bits = tuple(self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("mask bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(map(int, bits)))
        n, w = len(self.bits), sum(self.bits)
        if not 0 < w < n:
            raise ValueError(
                f"mask weight must satisfy 0 < w < N, got w={w}, N={n}")
        if not self.label:
            object.__setattr__(self, "label", f"custom:N={n},w={w}")

    @property
    def n(self) -> int:
        """Period length N."""
        return len(self.bits)

    @cached_property
    def weight(self) -> int:
        """Number of transmit slots per period."""
        return sum(self.bits)

    @cached_property
    def rho(self) -> Fraction:
        """Duty cycle w/N, kept exact."""
        return Fraction(self.weight, self.n)

    @cached_property
    def _array(self) -> np.ndarray:
        arr = np.array(self.bits, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def as_array(self) -> np.ndarray:
        """Read-only int64 view of one period."""
        return self._array

    @cached_property
    def support(self) -> tuple:
        """Indices of the transmit slots."""
        return tuple(i for i, b in enumerate(self.bits) if b)

    def __str__(self):
        return serialize_mask(self)


class CdsCheck(NamedTuple):
    """Outcome of the constant-autocorrelation test."""

    is_cds: bool
    lam: int | None


def singer_mask(m: int) -> Mask:
    """Mask whose support is the trace-zero Singer difference set in Z_(2^m - 1).

    Bit i is set iff s_i = Tr(alpha^i) vanishes, with alpha a root of the
    primitive polynomial x^m + sum_j c_j x^j = gf2.PRIMITIVE_POLYS[m]. The s_i
    obey s_(i+m) = sum_j c_j s_(i+j) mod 2, so m seeds and that recurrence
    yield the period. The seeds are the power sums of the polynomial's roots,
    by Newton's identities over GF(2): with e_j = c_(m-j), s_0 = m mod 2 and
    s_i = i e_i + sum_(j=1)^(i-1) e_j s_(i-j) mod 2 (gf2.trace_seeds). The
    period is N = 2^m - 1, the weight 2^(m-1) - 1, and every nonzero cyclic
    difference is hit exactly 2^(m-2) - 1 times.
    """
    if not 3 <= m <= 20:
        raise ValueError(f"singer mask degree must be in 3..20, got {m}")
    poly = gf2.PRIMITIVE_POLYS[m]
    taps = [j for j in range(m) if poly >> j & 1]
    s = gf2.trace_seeds(m)
    for i in range((1 << m) - 1 - m):
        s.append(sum(s[i + j] for j in taps) & 1)
    return Mask(tuple(1 - v for v in s), label=f"singer:m={m}")


def _check_period(n: int) -> None:
    # no comb or random mask is longer than singer:m=20, the longest Singer mask
    if n > 2 ** 20 - 1:
        raise ValueError(f"period must be at most 2^20 - 1 = 1048575, that of "
                         f"singer:m=20, got N={n}")


def comb_mask(n: int, d: int) -> Mask:
    """Mask transmitting at every d-th slot: bit set iff the index is 0 mod d."""
    _check_period(n)
    if d < 2:
        raise ValueError(f"comb spacing must be at least 2, got {d}")
    if n % d != 0:
        raise ValueError(f"comb spacing {d} does not divide the period {n}")
    bits = tuple(1 if i % d == 0 else 0 for i in range(n))
    return Mask(bits, label=f"comb:N={n},d={d}")


def random_mask(n: int, w: int, seed: int) -> Mask:
    """Mask with w transmit slots placed uniformly at random.

    Uses a counter-based generator keyed by the seed, so the same
    (n, w, seed) gives the same mask on every platform.
    """
    _check_period(n)
    if not 0 < w < n:
        raise ValueError(f"weight must satisfy 0 < w < N, got w={w}, N={n}")
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"random mask seed must be in 0..2^128 - 1, got seed={seed}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    support = rng.permutation(n)[:w]
    bits = np.zeros(n, dtype=np.int64)
    bits[support] = 1
    return Mask(bits.tolist(), label=f"random:N={n},w={w},seed={seed}")


def custom_mask(bits, label: str = "") -> Mask:
    """Mask from an explicit 0/1 sequence."""
    return Mask(bits, label=label)


def cyclic_shift(mask: Mask, s: int) -> Mask:
    """Mask rotated so slot n holds the old slot (n - s) mod N."""
    n = mask.n
    bits = tuple(mask.bits[(i - s) % n] for i in range(n))
    return Mask(bits, label=f"{mask.label}<<{s % n}" if s % n else mask.label)


def verify_cds(mask: Mask) -> CdsCheck:
    """Check whether the off-zero autocorrelation is a single constant.

    Masks passing this test are cyclic difference sets; the constant is the
    set's lambda parameter.
    """
    from .spectra import autocorr

    return _cds_check(autocorr(mask))


def _cds_check(a: np.ndarray) -> CdsCheck:
    """verify_cds from the mask's cyclic autocorrelation a."""
    off = a[1:]
    if (off == off[0]).all():
        return CdsCheck(True, int(off[0]))
    return CdsCheck(False, None)


def parse_mask(text: str, label: str = "") -> Mask:
    """Mask from its text form: one line of 0/1 characters, '#' comments allowed."""
    bit_lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if not stripped:
            raise ValueError("empty line in mask text")
        bit_lines.append(stripped)
    if len(bit_lines) != 1:
        raise ValueError(
            f"expected exactly one bit line, found {len(bit_lines)}")
    line = bit_lines[0]
    bad = set(line) - {"0", "1"}
    if bad:
        raise ValueError(f"illegal character {bad.pop()!r} in mask text")
    return Mask(map(int, line), label=label)


def serialize_mask(mask: Mask) -> str:
    """Canonical text form, the bit line without trailing newline."""
    return "".join(str(b) for b in mask.bits)


def load_mask(path) -> Mask:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mask(fh.read(), label=str(path))


def save_mask(mask: Mask, path, header_lines=()) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(serialize_mask(mask) + "\n")


def _parse_kv(body: str, spec: str) -> dict:
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise ValueError(f"malformed mask spec {spec!r}")
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key in out:
            raise ValueError(f"mask spec {spec!r} repeats key {key!r}")
        try:
            out[key] = int(value)
        except ValueError:
            raise ValueError(
                f"non-integer value {value!r} in mask spec {spec!r}") from None
    return out


# The families from_spec builds: family -> (builder, the keys of its spec,
# which are the builder's parameter names).
SPECS = {
    "singer": (singer_mask, ("m",)),
    "comb": (comb_mask, ("n", "d")),
    "random": (random_mask, ("n", "w", "seed")),
}


def from_spec(spec: str) -> Mask:
    """Mask from a family spec string.

    Recognized forms: "singer:m=6", "comb:N=63,d=3", "random:N=63,w=31,seed=7".
    """
    head, _, body = spec.partition(":")
    head = head.strip().lower()
    if head not in SPECS:
        raise ValueError(f"unknown mask family in spec {spec!r}")
    kv = _parse_kv(body, spec)
    builder, keys = SPECS[head]
    if set(kv) != set(keys):
        raise ValueError(
            f"mask spec {spec!r} needs keys {keys}, got {tuple(kv)}")
    # The builder is called through its module name, so a wrapper set on
    # that attribute (perfbench's span tracer) sees the call.
    return globals()[builder.__name__](**kv)
