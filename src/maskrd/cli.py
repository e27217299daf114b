"""Command-line front end: mask generation, response grids, metrics, selftest.

Every output file starts with a comment header carrying the tool version,
the canonical form of the run configuration and the master seed; re-running
that configuration reproduces the numeric payload byte for byte. Every file
goes to its --out directory through _write_out.

Exit codes: 0 success, 2 configuration error, 3 numeric contract failure,
4 I/O error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import re
import shlex
import sys
import time

import numpy as np

from . import __version__, masks, metrics, montecarlo, response, spectra

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

BUDGET_ENV = "MASKRD_MC_BUDGET"


# ---------------------------------------------------------------- helpers

def parse_index_set(text: str) -> tuple:
    """Expand index-set syntax: comma list of "a", "a..b" or "a..b:s"."""
    out = []
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty index set")
    for seg in compact.split(","):
        body, _, stride_txt = seg.partition(":")
        stride = 1
        if stride_txt:
            stride = int(stride_txt)
            if stride < 1:
                raise ValueError(f"stride must be positive in {seg!r}")
        if ".." in body:
            a_txt, _, b_txt = body.partition("..")
            a, b = int(a_txt), int(b_txt)
            if b < a:
                raise ValueError(f"empty range {seg!r}")
            out.extend(range(a, b + 1, stride))
        else:
            out.append(int(body))
    return tuple(out)


def canonical_index_set(text: str) -> str:
    parse_index_set(text)
    return "".join(text.split())


def mask_from_arg(text: str) -> masks.Mask:
    head = text.partition(":")[0].strip().lower()
    if head in masks.SPECS:
        return masks.from_spec(text)
    if os.path.exists(text):
        return masks.load_mask(text)
    raise ValueError(
        f"mask argument {text!r} is neither a family spec nor an existing file")


def canonical_config(words, options: dict) -> str:
    """Canonical one-line form of a run: its words, then the sorted flags.

    Each word is shlex-quoted, so shlex.split gives the run back. A word
    with a line break is refused: shlex cannot quote it onto the one
    '# config:' line, and the rest of it would become a line of its own.
    """
    words = list(words)
    for key in sorted(options):
        value = options[key]
        if value is None:
            continue
        for v in value if isinstance(value, (list, tuple)) else [value]:
            words += [f"--{key}", str(v)]
    parts = [shlex.quote(w) for w in words]
    for text in parts:
        if "\n" in text or "\r" in text:
            raise ValueError(f"a line break in {text!r} cannot go on the "
                             "one-line '# config:' header")
    return " ".join(parts)


def _header_lines(config_str: str, seed) -> tuple:
    """The tool, config and seed lines that open every output file, without '# '."""
    return (f"tool: maskrd {__version__}", f"config: {config_str}", f"seed: {seed}")


# Rows per block of a streamed table: one block's formatted text is held at once.
BLOCK_ROWS = 4096


def _quote(text: str) -> str:
    # csv.QUOTE_MINIMAL for delimiter ",", quotechar '"' and lineterminator "\n"
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_cells(column):
    """The %-spec of a column, from its numpy dtype, and its cells."""
    cells = np.asarray(column)
    if cells.dtype.kind in "biu":
        return "%d", cells.tolist()
    if cells.dtype.kind == "f":
        return "%.11e", cells.tolist()
    return "%s", [_quote(str(v)) for v in column]


def _array_blocks(axes, values):
    """Blocks (index columns..., value column) of an array's cells, row-major.

    axes holds the index labels of each dimension of values; a block's index
    columns come from its row range alone, so no column spans the table.
    """
    axes = [np.asarray(ax) for ax in axes]
    for start in range(0, values.size, BLOCK_ROWS):
        pos = np.unravel_index(
            np.arange(start, min(start + BLOCK_ROWS, values.size)), values.shape)
        yield (*(ax[p] for ax, p in zip(axes, pos)), values[pos])


def write_csv(path, header, blocks, config_str: str, seed) -> None:
    """Write three '#' lines (tool, config, seed), the header, then the rows.

    blocks is an iterable of blocks, each a tuple of equal-length columns; a
    streamed table comes in blocks of at most BLOCK_ROWS rows. A column's
    numpy dtype sets the format of its cells: integers and bools in decimal
    (%d), floats as %.11e (so -0.0, inf and nan read as Python's float
    format writes them), anything else as str() with csv minimal quoting.
    Each block is one %-format per row, written at once; the bytes are those
    of a csv.writer with lineterminator "\n" over the same cells.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"# {line}\n" for line in _header_lines(config_str, seed)))
        fh.write(",".join(map(_quote, header)) + "\n")
        for block in blocks:
            specs, cells = zip(*map(_column_cells, block))
            fmt = ",".join(specs) + "\n"
            fh.write("".join([fmt % row for row in zip(*cells)]))


def _write_out(out_dir: str, files) -> None:
    """Write each (name, write) of files by write(out_dir/name), creating
    out_dir, then print one 'wrote' line per file.

    An OSError removes the directories this call created, with the files it
    wrote into them, and never a directory that existed before. The missing
    ancestors are found on out_dir as given: its absolute form can exceed
    PATH_MAX where the given path does not.
    """
    created = []
    head = out_dir.rstrip(os.sep)
    while head and not os.path.lexists(head):
        created.append(head)
        head = os.path.dirname(head)
    paths = [os.path.join(out_dir, name) for name, _ in files]
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path, (_, write) in zip(paths, files):
            write(path)
    except OSError:
        for path in paths if created else ():
            with contextlib.suppress(OSError):
                os.remove(path)
        for path in created:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    for path in paths:
        print(f"wrote {path}")


def _slug(label: str) -> str:
    # the last 240 characters, so "<slug>_crossterms.csv" fits in NAME_MAX = 255
    return re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_")[-240:]


def _resolve_budget(args) -> int:
    if args.budget is not None:
        return args.budget
    return int(os.environ.get(BUDGET_ENV) or montecarlo.DEFAULT_BUDGET)


def _resolve_mu4(args) -> float:
    if getattr(args, "mu4", None) is not None:
        return args.mu4
    if getattr(args, "constellation", None):
        return montecarlo.make_constellation(args.constellation).mu4
    raise ValueError("supply --mu4 or --constellation")


# ---------------------------------------------------------------- commands

def cmd_mask(args) -> int:
    config = canonical_config(["mask", args.action, args.spec], {"out": args.out})
    if args.action == "gen":
        mask = masks.from_spec(args.spec)
        if args.out:
            _write_out(args.out, [(_slug(mask.label) + ".mask", lambda path: masks.save_mask(
                mask, path, header_lines=_header_lines(config, 0)))])
        else:
            print(masks.serialize_mask(mask))
        return EXIT_OK

    mask = mask_from_arg(args.spec)
    check = masks.verify_cds(mask)
    if args.action == "show":
        print(masks.serialize_mask(mask))
    print(f"label: {mask.label}")
    print(f"N: {mask.n}")
    print(f"weight: {mask.weight}")
    print(f"rho: {mask.rho.numerator}/{mask.rho.denominator}")
    print(f"is_cds: {int(check.is_cds)}")
    print(f"lambda: {'' if check.lam is None else check.lam}")
    if args.action == "verify":
        spacing = masks.comb_spacing(mask)
        if spacing is not None:
            print(f"structure: comb (d={spacing})")
        elif check.is_cds:
            print("structure: cyclic difference set")
        else:
            print("structure: irregular")
        a = spectra.autocorr(mask)
        print("k,a")
        for k in range(mask.n):
            print(f"{k},{int(a[k])}")
        if args.out:
            r = spectra.cross_term_matrix(mask)
            slug, lags = _slug(mask.label), range(1, mask.n)
            _write_out(args.out, [
                (f"{slug}_autocorr.csv", lambda path: write_csv(
                    path, ("k", "a"), _array_blocks((range(mask.n),), a), config, 0)),
                (f"{slug}_crossterms.csv", lambda path: write_csv(
                    path, ("k", "l", "R"), _array_blocks((lags, lags), r[1:, 1:]), config, 0))])
    return EXIT_OK


def _response_options(args) -> dict:
    opts = {"mask": args.mask, "M": args.M, "constellation": args.constellation,
            "k": canonical_index_set(args.k), "l": canonical_index_set(args.l or args.k),
            "nu": canonical_index_set(args.nu), "out": args.out}
    if args.mode == "closed":
        opts["mu4"] = args.mu4
    else:
        opts.update(trials=args.trials, seed=args.seed, budget=args.budget)
    return opts


def cmd_response(args) -> int:
    mask = mask_from_arg(args.mask)
    k_set = parse_index_set(args.k)
    l_set = parse_index_set(args.l) if args.l else k_set
    nu_set = parse_index_set(args.nu)
    config = canonical_config(["response", args.mode], _response_options(args))

    if args.mode == "closed":
        mu4 = _resolve_mu4(args)
        grid = response.build_grid(
            response.ScenarioParams(mask=mask, M=args.M, mu4=mu4),
            k_set, l_set, nu_set)
        name, header, seed = "response_closed.csv", response.GRID_HEADER_CLOSED, 0
        blocks = _array_blocks((grid.k_set, grid.l_set, grid.nu_set), grid.values)
    else:
        if not args.constellation:
            raise ValueError("Monte Carlo runs need --constellation")
        if args.mu4 is not None:
            raise ValueError(
                "Monte Carlo runs take mu4 from the constellation; drop --mu4")
        report = montecarlo.validate_grid(
            mask, args.M, montecarlo.make_constellation(args.constellation),
            k_set, l_set, nu_set, trials=args.trials, seed=args.seed,
            budget=_resolve_budget(args))
        name, header = (("response_mc.csv", montecarlo.MC_HEADER) if args.mode == "mc"
                        else ("response_both.csv", montecarlo.VALIDATION_HEADER))
        rows = [dataclasses.astuple(p)[:len(header)] for p in report.points]
        blocks, seed = [tuple(zip(*rows))], args.seed
    _write_out(args.out, [(name, lambda path: write_csv(path, header, blocks, config, seed))])
    return EXIT_OK


def cmd_metrics(args) -> int:
    if args.command == "compare" and len(args.mask) < 2:
        raise ValueError("compare needs at least two --mask arguments")
    mu4 = _resolve_mu4(args)
    options = {
        "mask": args.mask,
        "M": args.M,
        "constellation": args.constellation,
        "mu4": args.mu4,
        "normalize": args.normalize,
        "out": args.out,
    }
    config = canonical_config([args.command], options)
    mask_list = [mask_from_arg(text) for text in args.mask]
    rows = [metrics.report_row(metrics.metrics_report(mask, args.M, mu4, args.normalize))
            for mask in mask_list]
    _write_out(args.out, [(f"{args.command}.csv", lambda path: write_csv(
        path, metrics.REPORT_HEADER, [tuple(zip(*rows))], config, 0))])
    return EXIT_OK


def cmd_bounds(args) -> int:
    mu4 = _resolve_mu4(args)
    options = {"mask": args.mask, "constellation": args.constellation,
               "mu4": args.mu4, "out": args.out}
    config = canonical_config(["bounds"], options)
    mask = mask_from_arg(args.mask)
    b = metrics.doppler_sidelobe_sum(mask, mu4)
    print(f"mask: {mask.label}")
    print(f"I: {b.value:.11e}")
    print(f"I_lower: {b.lower:.11e}")
    print(f"I_upper: {b.upper:.11e}")
    print(f"attains_upper: {int(b.attains_upper())}")
    print(f"attains_lower: {int(b.attains_lower())}")
    if args.out:
        row = (mask.label, b.value, b.lower, b.upper,
               int(b.attains_upper()), int(b.attains_lower()))
        _write_out(args.out, [("bounds.csv", lambda path: write_csv(
            path, ("mask_id", "I", "I_lower", "I_upper", "attains_upper", "attains_lower"),
            [tuple(zip(row))], config, 0))])
    return EXIT_OK


# ---------------------------------------------------------------- selftest

def _selftest_items(trials: int, seed: int):
    rng = np.random.Generator(np.random.Philox(key=seed))

    def random_suite(count, lo=5, hi=64):
        out = []
        for _ in range(count):
            n = int(rng.integers(lo, hi + 1))
            w = int(rng.integers(1, n))
            out.append(masks.random_mask(n, w, int(rng.integers(0, 2 ** 31))))
        return out

    def singer_difference_counts():
        for m in range(3, 7):
            mask = masks.singer_mask(m)
            n, lam = mask.n, 2 ** (m - 2) - 1
            counts = {k: 0 for k in range(1, n)}
            for i in mask.support:
                for j in mask.support:
                    if i != j:
                        counts[(i - j) % n] += 1
            assert all(v == lam for v in counts.values()), f"m={m}"

    def range_sidelobe_sum():
        suite = [masks.singer_mask(m) for m in range(3, 7)]
        suite += [masks.comb_mask(63, 3)] + random_suite(20)
        for mask in suite:  # checks sum_(k != l) R = w (N - w)(w - 1) itself
            spectra.cross_term_matrix(mask)

    def parseval():
        suite = [masks.singer_mask(3), masks.singer_mask(6),
                 masks.comb_mask(6, 3), masks.comb_mask(63, 3)] + random_suite(10)
        for mask in suite:
            for k in range(1, mask.n):
                direct = sum(abs(spectra.s_kn(mask, k, nu)) ** 2
                             for nu in range(1, mask.n))
                assert abs(direct - spectra.doppler_energy_f(mask, k)) <= 1e-6

    def tiled_dft_sparsity():
        cases = [(masks.singer_mask(3), 4), (masks.comb_mask(6, 3), 5),
                 (masks.singer_mask(4), 8), (masks.random_mask(16, 5, 7), 8)]
        for mask, m_pri in cases:
            total = m_pri * mask.n
            assert total <= 2048
            for k in range(1, mask.n):
                tiled = np.tile(spectra.gamma(mask, k).values, m_pri)
                big = np.fft.fft(tiled)
                for nu in range(total):
                    if nu % m_pri:
                        assert abs(big[nu]) <= 1e-9 * total
                    else:
                        want = spectra.s_kmn(mask, k, m_pri, nu)
                        assert abs(big[nu] - want) <= 1e-9 * max(1.0, abs(want))

    def bound_bracketing():
        for mask in random_suite(60):
            b = metrics.doppler_sidelobe_sum(mask, 1.32)
            assert b.lower <= b.value + 1e-9 * max(1.0, abs(b.value))
            assert b.value <= b.upper + 1e-9 * max(1.0, abs(b.value))
        for m in range(3, 7):
            assert metrics.doppler_sidelobe_sum(
                masks.singer_mask(m), 1.32).attains_upper()
        for mask in (masks.comb_mask(6, 3), masks.comb_mask(63, 3)):
            b = metrics.doppler_sidelobe_sum(mask, 1.32)
            assert b.value == b.lower

    def double_sum_oracle():
        mask = masks.singer_mask(3)
        qam16 = montecarlo.make_constellation("qam16")
        params = response.ScenarioParams(mask=mask, M=4, mu4=qam16.mu4)
        for k in range(1, 7):
            for l in range(1, 7):
                for nu in (0, 1, 3, 4, 8, 27):
                    want = response.expected_response(params, k, l, nu)
                    got = montecarlo.expectation_by_double_sum(
                        mask, 4, qam16, k, l, nu)
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def mc_oracle():
        mask = masks.singer_mask(3)
        qam16 = montecarlo.make_constellation("qam16")
        triples = [(1, 1, 0), (1, 1, 2), (2, 5, 9), (3, 3, 4), (4, 2, 0), (6, 6, 12)]
        pts = montecarlo.mc_points(mask, 4, qam16, triples,
                                   trials=trials, seed=seed)
        bad = [p for p in pts if abs(p.z) > 4.0]
        assert not bad, f"{len(bad)} points beyond 4 standard errors"

    def determinism():
        mask = masks.singer_mask(3)
        qam16 = montecarlo.make_constellation("qam16")
        scen = montecarlo.EchoScenario(mask=mask, M=4, constellation=qam16,
                                       true_delay=2, true_doppler=0,
                                       trial_doppler=5)
        first = montecarlo.estimate(scen, 2, 200, seed)
        second = montecarlo.estimate(scen, 2, 200, seed)
        assert first == second

    return [
        ("singer_difference_counts", singer_difference_counts),
        ("range_sidelobe_sum_identity", range_sidelobe_sum),
        ("parseval_identity", parseval),
        ("tiled_dft_sparsity", tiled_dft_sparsity),
        ("bound_bracketing", bound_bracketing),
        ("double_sum_oracle", double_sum_oracle),
        ("mc_oracle", mc_oracle),
        ("determinism", determinism),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    started = time.perf_counter()
    for name, fn in _selftest_items(args.trials, args.seed):
        t0 = time.perf_counter()
        try:
            fn()
        except (AssertionError, ArithmeticError) as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
            continue
        print(f"PASS {name} ({time.perf_counter() - t0:.2f}s)")
    elapsed = time.perf_counter() - started
    if elapsed > args.time_budget:
        failures += 1
        print(f"FAIL time_budget: {elapsed:.1f}s > {args.time_budget:.1f}s")
    print(f"selftest: {'ok' if failures == 0 else f'{failures} failure(s)'}")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# ---------------------------------------------------------------- parser

def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="maskrd",
        description="Range-Doppler analysis of periodic binary transmission masks.",
        epilog="Index sets: comma-separated entries 'a', 'a..b' (inclusive) "
               "or 'a..b:s' (stride s), e.g. '1..62' or '0,5,10..20:5'.")
    parser.add_argument("--version", action="version",
                        version=f"maskrd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mask = sub.add_parser("mask", help="generate, verify or show masks")
    p_mask.add_argument("action", choices=("gen", "verify", "show"))
    p_mask.add_argument("spec", help="family spec (singer:m=6, comb:N=63,d=3, "
                                     "random:N=63,w=31,seed=7) or mask file")
    p_mask.add_argument("--out", help="directory to write the mask file into")
    p_mask.set_defaults(func=cmd_mask)

    p_resp = sub.add_parser("response", help="expected response grids")
    p_resp.add_argument("mode", choices=("closed", "mc", "both"))
    p_resp.add_argument("--mask", required=True)
    p_resp.add_argument("--M", type=int, required=True,
                        help="periods per coherent window")
    p_resp.add_argument("--constellation", choices=montecarlo.CONSTELLATION_NAMES)
    p_resp.add_argument("--mu4", type=float,
                        help="symbol kurtosis for closed-form-only runs")
    p_resp.add_argument("--k", required=True, help="true delay index set")
    p_resp.add_argument("--l", help="trial delay index set (default: same as --k)")
    p_resp.add_argument("--nu", required=True, help="Doppler bin index set")
    p_resp.add_argument("--trials", type=int, default=10000)
    p_resp.add_argument("--seed", type=int, default=0)
    p_resp.add_argument("--out", default=".")
    p_resp.add_argument("--budget", type=int,
                        help=f"max points*trials*MN (or ${BUDGET_ENV})")
    p_resp.set_defaults(func=cmd_response)

    for name, needs_many in (("metrics", False), ("compare", True)):
        p = sub.add_parser(name, help="mask quality report (CSV)")
        p.add_argument("--mask", action="append", required=True,
                       help="repeatable" if needs_many else None)
        p.add_argument("--M", type=int, required=True)
        p.add_argument("--constellation", choices=montecarlo.CONSTELLATION_NAMES)
        p.add_argument("--mu4", type=float)
        p.add_argument("--normalize", choices=metrics.NORMALIZATIONS,
                       default="none", help="mean-Doppler-sidelobe scaling")
        p.add_argument("--out", default=".")
        p.set_defaults(func=cmd_metrics)

    p_bounds = sub.add_parser("bounds", help="Doppler sidelobe sum and bounds")
    p_bounds.add_argument("--mask", required=True)
    p_bounds.add_argument("--constellation", choices=montecarlo.CONSTELLATION_NAMES)
    p_bounds.add_argument("--mu4", type=float)
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(func=cmd_bounds)

    p_self = sub.add_parser("selftest", help="run the embedded identity suite")
    p_self.add_argument("--trials", type=int, default=100000,
                        help="Monte Carlo trials for the oracle item")
    p_self.add_argument("--seed", type=int, default=1234)
    p_self.add_argument("--time-budget", type=float, default=120.0,
                        help="overall wall-clock budget in seconds")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, montecarlo.McBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
