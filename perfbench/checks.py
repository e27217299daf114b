"""Output checks for the benchmark, independent of the maskrd code paths.

Reference values are rebuilt from the definitions by plain loops: the Singer
mask from the trace map over GF(2^m), a[k] and R[k,l] as direct sums, and
the tiled-gate spectrum as a direct MN-point DFT. Each check_* function
returns a list of problems; an empty list means the CSV passed.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import math
import random

# Primitive polynomials that define singer:m=<m> (x^m term included).
SINGER_POLYS = {3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011,
                8: 0b100011101, 10: 0b10000001001}

MC_HEADER = ["k", "l", "nu", "mc_mean", "mc_se", "trials", "closed_form", "z"]
CLOSED_HEADER = ["k", "l", "nu", "value"]
REPORT_HEADER = ["mask_id", "N", "w", "rho", "is_cds", "lambda",
                 "mainlobe_min", "mainlobe_max", "ptp_ratio", "psl_range",
                 "avg_range_sl", "I", "I_lower", "I_upper", "J",
                 "worst_mean_doppler_sl"]

RTOL = 1e-9


# ------------------------------------------------------------ CSV payload

def payload_stats(path) -> dict:
    """SHA-256, data-row count and byte size of a maskrd CSV payload.

    The payload is everything below the leading '# ' header lines; the
    header holds the --out path, so it differs between passes. Rows count
    the lines below the column-name line.
    """
    digest = hashlib.sha256()
    lines = 0
    size = 0
    with open(path, "rb") as fh:
        line = fh.readline()
        while line.startswith(b"# "):
            line = fh.readline()
        while line:
            digest.update(line)
            lines += line.count(b"\n")
            size += len(line)
            line = fh.read(1 << 20)
    return {"sha256": digest.hexdigest(), "rows": max(lines - 1, 0),
            "bytes": size}


def _data_lines(path):
    with open(path, "r", encoding="ascii", newline="") as fh:
        for line in fh:
            if not line.startswith("# "):
                yield line


def _read_csv(path):
    return csv.reader(_data_lines(path))


# ------------------------------------------------------------ references

def singer_bits(m: int) -> tuple:
    """Bit i is 1 iff the trace of x^i in GF(2^m) is zero."""
    poly = SINGER_POLYS[m]

    def mul(a, b):
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a >> m:
                a ^= poly
        return acc

    bits = []
    x = 1
    for _ in range(2 ** m - 1):
        t, tr = x, 0
        for _ in range(m):
            tr ^= t
            t = mul(t, t)
        bits.append(1 if tr == 0 else 0)
        x = mul(x, 2)
    return tuple(bits)


def autocorr_naive(bits, k: int) -> int:
    n = len(bits)
    return sum(bits[i] * bits[(i - k) % n] for i in range(n))


def cross_term_naive(bits, k: int, l: int) -> int:
    n = len(bits)
    return sum((1 - bits[i]) * bits[(i - k) % n] * bits[(i - l) % n]
               for i in range(n))


def tiled_spectrum_naive(bits, k: int, m_pri: int, nu: int) -> complex:
    """Direct MN-point DFT of the M-fold tiled receive gate at bin nu."""
    n = len(bits)
    total = m_pri * n
    acc = 0j
    for t in range(total):
        if bits[(t - k) % n] and not bits[t % n]:
            acc += cmath.exp(-2j * math.pi * nu * t / total)
    return acc


def expected_naive(bits, m_pri: int, mu4: float, k: int, l: int, nu: int) -> float:
    """E{|r(k,l,nu)|^2} from the two branches of the closed form."""
    if k != l:
        return float(m_pri * cross_term_naive(bits, k, l))
    deficit = sum(bits) - autocorr_naive(bits, k)
    return abs(tiled_spectrum_naive(bits, k, m_pri, nu)) ** 2 \
        + (mu4 - 1) * m_pri * deficit


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=1e-6)


# ------------------------------------------------------------ checks

def check_mc(path, bits, m_pri: int, mu4: float, triples, trials: int,
             z_max: float) -> list:
    """Monte Carlo rows: index order, closed form and family-wise |z| < z_max.

    A point with zero standard error is deterministic and must equal the
    closed form exactly.
    """
    rows = _read_csv(path)
    if next(rows, None) != MC_HEADER:
        return ["unexpected column header"]
    problems = []
    count = 0
    refs = {}
    for count, row in enumerate(rows, start=1):
        if count > len(triples):
            break
        k, l, nu = triples[count - 1]
        if [int(v) for v in row[:3]] != [k, l, nu] or int(row[5]) != trials:
            problems.append(f"row {count}: unexpected indices or trials {row}")
            continue
        mean, se, closed, z = (float(row[i]) for i in (3, 4, 6, 7))
        key = (k, l, nu) if k == l else (k, l)
        if key not in refs:
            refs[key] = expected_naive(bits, m_pri, mu4, k, l, nu)
        if not _close(closed, refs[key]):
            problems.append(f"row {count}: closed form {closed} != {refs[key]}")
        if se == 0.0:
            if mean != closed or z != 0.0:
                problems.append(f"row {count}: deterministic point {mean} != {closed}")
        elif not (abs(z) < z_max and abs((mean - closed) / se) < z_max):
            problems.append(f"row {count}: |z| = {abs(z)} not below {z_max}")
    if count != len(triples):
        problems.append(f"{count} rows, expected {len(triples)}")
    return problems


def check_closed(path, bits, m_pri: int, mu4: float, k_set, l_set, nu_set,
                 seed: int, samples: int = 200, diagonal_samples: int = 64) -> list:
    """Closed-form grid: row count, and seed-sampled rows against references.

    Samples are drawn uniformly over all rows plus from the diagonal k == l
    rows, so both branches of the closed form are re-evaluated.
    """
    n_l, n_nu = len(l_set), len(nu_set)
    total = len(k_set) * n_l * n_nu
    rng = random.Random(seed)
    picked = set(rng.sample(range(total), min(samples, total)))
    diagonal = [(i * n_l + l_set.index(k)) * n_nu + t
                for i, k in enumerate(k_set) if k in l_set for t in range(n_nu)]
    picked.update(rng.sample(diagonal, min(diagonal_samples, len(diagonal))))

    lines = _data_lines(path)
    if next(lines, "").rstrip("\n").split(",") != CLOSED_HEADER:
        return ["unexpected column header"]
    problems = []
    count = 0
    for count, line in enumerate(lines, start=1):
        if count - 1 not in picked:
            continue
        row = line.rstrip("\n").split(",")
        i, rest = divmod(count - 1, n_l * n_nu)
        j, t = divmod(rest, n_nu)
        k, l, nu = k_set[i], l_set[j], nu_set[t]
        if [int(v) for v in row[:3]] != [k, l, nu]:
            problems.append(f"row {count}: indices {row[:3]}, expected {[k, l, nu]}")
            continue
        want = expected_naive(bits, m_pri, mu4, k, l, nu)
        if not _close(float(row[3]), want):
            problems.append(f"row {count}: value {row[3]} != {want}")
    if count != total:
        problems.append(f"{count} rows, expected {total}")
    return problems


def _bounds(n: int, w: int, mu4: float):
    wnw = w * (n - w)
    floor = (n - 1) * (mu4 - 1) * wnw
    return w * (n - w) ** 2 + floor, wnw * (n - wnw / (n - 1)) + floor


def check_certify(path, expected, mu4: float) -> list:
    """Metric report rows against the certificates of each mask family.

    expected lists (mask_id, family, N, w, m) per row; m is the Singer
    degree and None for other families. Singer rows must be difference sets
    with lambda = 2^(m-2) - 1, a flat mainlobe and I = I_upper; comb rows
    have I = I_lower; every row has I_lower <= I <= I_upper, with the bounds
    recomputed here.
    """
    rows = list(_read_csv(path))
    if not rows or rows[0] != REPORT_HEADER:
        return ["unexpected column header"]
    rows = rows[1:]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (label, family, n, w, m) in zip(rows, expected):
        rec = dict(zip(REPORT_HEADER, row))
        if (rec["mask_id"], int(rec["N"]), int(rec["w"])) != (label, n, w):
            problems.append(f"{label}: identity {row[:3]}")
            continue
        value, lower, upper = (float(rec[c]) for c in ("I", "I_lower", "I_upper"))
        want_lower, want_upper = _bounds(n, w, mu4)
        if not (_close(lower, want_lower) and _close(upper, want_upper)):
            problems.append(f"{label}: bounds {lower}, {upper} != {want_lower}, {want_upper}")
        if not lower * (1 - RTOL) <= value <= upper * (1 + RTOL):
            problems.append(f"{label}: I = {value} outside [{lower}, {upper}]")
        if family == "singer":
            if rec["is_cds"] != "1" or rec["lambda"] != str(2 ** (m - 2) - 1):
                problems.append(f"{label}: is_cds={rec['is_cds']} lambda={rec['lambda']}")
            if float(rec["ptp_ratio"]) != 1.0:
                problems.append(f"{label}: ptp_ratio {rec['ptp_ratio']} != 1")
            if not _close(value, upper):
                problems.append(f"{label}: I = {value} != I_upper = {upper}")
        elif family == "comb" and not _close(value, lower):
            problems.append(f"{label}: I = {value} != I_lower = {lower}")
    return problems
