"""The benchmark's workloads: CLI arguments, stated work and output checks.

Each workload turns a seed into a Case: the argv for one in-process
``maskrd.cli.main`` pass (minus --out), the CSV it writes, the work that
pass does in the workload's own unit, and a check of that CSV.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

import checks

# Family-wise |z| threshold for the Monte Carlo workloads. Under the normal
# approximation a 124-point run crosses it with probability ~2e-7.
Z_MAX = 6.0

QAM16_MU4 = 1.32  # 33/25, the normalized fourth moment of square 16-QAM


@dataclass(frozen=True)
class Case:
    argv: tuple
    csv: str
    work: int
    work_unit: str
    check: Callable[[str], list]


def _index_set(values) -> str:
    return ",".join(str(v) for v in values)


def _mc_case(m: int, m_pri: int, k_set, l_set, nu_set, trials: int, seed: int) -> Case:
    triples = [(k, l, nu) for k in k_set for l in l_set for nu in nu_set]
    argv = ("response", "both", "--mask", f"singer:m={m}", "--M", str(m_pri),
            "--constellation", "qam16", "--k", _index_set(k_set),
            "--l", _index_set(l_set), "--nu", _index_set(nu_set),
            "--trials", str(trials), "--seed", str(seed))
    check = functools.partial(checks.check_mc, bits=checks.singer_bits(m),
                              m_pri=m_pri, mu4=QAM16_MU4, triples=triples,
                              trials=trials, z_max=Z_MAX)
    return Case(argv, "response_both.csv", len(triples) * trials,
                "point_trials", check)


def mc_design_point(seed: int) -> Case:
    # k == l at nu = 0, inside the first grating period and on the lobes
    # nu = 50, 100; k != l at the same bins. Pass sizes here and below keep a
    # pass near one second, so a run holds enough passes for a steady minimum.
    return _mc_case(6, 50, (20,), (20, 41), (0, 7, 23, 50, 100), 2_000,
                    seed % 2 ** 32)


def mc_sweep(seed: int) -> Case:
    k = random.Random(seed).randint(1, 62)
    return _mc_case(6, 50, (k,), range(1, 63), (0, 50), 150, seed % 2 ** 32)


def certify_large(seed: int) -> Case:
    # N=511 masks keep a pass near half a second. At N=1023 (~4 s a pass) a
    # run holds too few passes, and the machine's speed changes too often
    # within one pass, for a median that repeats between runs; N=2047 takes
    # ~14 s for one report.
    rand_seed = seed % 2 ** 32
    specs = (("singer:m=9", "singer", 511, 255, 9),
             (f"random:N=511,w=255,seed={rand_seed}", "random", 511, 255, None),
             ("comb:N=511,d=7", "comb", 511, 73, None))
    argv = ["compare"]
    for spec in specs:
        argv += ["--mask", spec[0]]
    argv += ["--M", "50", "--constellation", "qam16"]
    check = functools.partial(checks.check_certify, expected=specs, mu4=QAM16_MU4)
    return Case(tuple(argv), "compare.csv", sum(s[2] ** 2 for s in specs),
                "cells", check)


def closed_grid_export(seed: int) -> Case:
    m, m_pri, mu4 = 8, 50, 1.32
    n = 2 ** m - 1
    k_set = tuple(sorted(random.Random(seed).sample(range(1, n), 8)))
    l_set = tuple(range(1, n))
    nu_set = tuple(range(0, 50)) + tuple(range(50, m_pri * n, 250))
    argv = ("response", "closed", "--mask", f"singer:m={m}", "--M", str(m_pri),
            "--mu4", str(mu4), "--k", _index_set(k_set), "--l", f"1..{n - 1}",
            "--nu", f"0..49,50..{m_pri * n - 1}:250")
    check = functools.partial(checks.check_closed, bits=checks.singer_bits(m),
                              m_pri=m_pri, mu4=mu4, k_set=k_set, l_set=l_set,
                              nu_set=nu_set, seed=seed)
    rows = len(k_set) * len(l_set) * len(nu_set)
    return Case(argv, "response_closed.csv", rows, "rows", check)


WORKLOADS = {
    "mc_design_point": mc_design_point,
    "mc_sweep": mc_sweep,
    "certify_large": certify_large,
    "closed_grid_export": closed_grid_export,
}
