"""Shared references for the test suite: one per definition.

These stay deliberately naive (plain loops or rolls over definitions) so
library results are checked against an independent route. The GF(2^m)
oracle lives in gf2_oracle.py and the CSV byte oracle in csv_oracle.py.
"""

import numpy as np
from hypothesis import settings, strategies as st

from maskrd import masks, response

# Property tests replay the same examples on every run, with no per-example
# time limit, so the suite is reproducible and immune to a slow machine.
settings.register_profile("maskrd", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("maskrd")


def brute_autocorr(bits):
    """a[k] = sum_n m[n] m[n - k], for k in 0..N-1."""
    n = len(bits)
    return [sum(bits[i] * bits[(i - k) % n] for i in range(n)) for k in range(n)]


def brute_cross_terms(bits):
    """R[k, l] = sum_n (1 - m[n]) m[n - k] m[n - l], for k, l in 0..N-1."""
    bits = np.asarray(bits, dtype=np.int64)
    shifted = np.array([np.roll(bits, k) for k in range(len(bits))])  # m[n - k]
    return np.einsum("n,kn,ln->kl", 1 - bits, shifted, shifted)


def scenario(mask, m_pri, mu4):
    return response.ScenarioParams(mask=mask, M=m_pri, mu4=mu4)


@st.composite
def any_mask(draw, lo, hi):
    """A shifted comb or any support of weight 1..N-1, for N in lo..hi."""
    n = draw(st.integers(lo, hi))
    if draw(st.booleans()):
        d = draw(st.sampled_from([d for d in range(2, n + 1) if n % d == 0]))
        return masks.cyclic_shift(masks.comb_mask(n, d), draw(st.integers(0, n - 1)))
    support = draw(st.permutations(range(n)))[:draw(st.integers(1, n - 1))]
    return masks.custom_mask([int(i in support) for i in range(n)])


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
