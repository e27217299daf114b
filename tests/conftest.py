"""Shared brute-force oracles for the test suite.

These stay deliberately naive (plain loops over definitions) so library
results are checked against an independent route.
"""

import numpy as np
from hypothesis import settings

from maskrd import masks

# Property tests replay the same examples on every run, with no per-example
# time limit, so the suite is reproducible and immune to a slow machine.
settings.register_profile("maskrd", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("maskrd")


def brute_autocorr(bits):
    n = len(bits)
    return [sum(bits[i] * bits[(i - k) % n] for i in range(n)) for k in range(n)]


def brute_cross_term(bits, k, l):
    n = len(bits)
    return sum((1 - bits[i]) * bits[(i - k) % n] * bits[(i - l) % n]
               for i in range(n))


def brute_dft(seq, nu):
    n = len(seq)
    return sum(seq[i] * np.exp(-2j * np.pi * nu * i / n) for i in range(n))


def qr_mask(p):
    """The nonzero quadratic residues mod a prime p: a CDS iff p = 3 mod 4."""
    return masks.custom_mask([int(pow(i, (p - 1) // 2, p) == 1) for i in range(p)],
                             label=f"qr:p={p}")


def random_mask_suite(count, seed, lo=5, hi=64):
    """Seeded random masks with varied period and weight."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        w = int(rng.integers(1, n))
        out.append(masks.random_mask(n, w, int(rng.integers(0, 2 ** 31))))
    return out
