"""Command-line front end: mask generation, response grids, metrics, selftest.

Every output file starts with a comment header carrying the tool version,
the canonical form of the run configuration and the master seed; re-running
that configuration reproduces the numeric payload byte for byte. Every file
goes to its --out directory through _write_out.

Exit codes: 0 success, 2 configuration error, 3 numeric contract failure,
4 I/O error, 141 (128 + SIGPIPE) a closed standard output.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import math
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
EXIT_PIPE = 141  # what a shell reports for a process that SIGPIPE ended

# selftest fails if its items together take longer than this many seconds
SELFTEST_TIME_BUDGET = 120.0


# ---------------------------------------------------------------- helpers

_INDEX_ENTRY = re.compile(r"([+-]?\d+)(?:\.\.([+-]?\d+)(?::([+-]?\d+))?)?")


def parse_index_set(text: str, check=lambda value: None) -> tuple:
    """The entries of index-set syntax as ranges: comma list of "a", "a..b" or "a..b:s".

    A stride needs a range: any other entry, an empty one too, is refused.
    check refuses a value off the set's axis. It sees each entry's two ends,
    and no entry is expanded: an axis is an interval.
    """
    out = []
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty index set")
    for seg in compact.split(","):
        match = _INDEX_ENTRY.fullmatch(seg)
        if not match:
            raise ValueError(f"index-set entry {seg!r} of {compact!r} is not "
                             "'a', 'a..b' or 'a..b:s'")
        a_txt, b_txt, stride_txt = match.groups()
        a, b, stride = int(a_txt), int(b_txt or a_txt), int(stride_txt or 1)
        if stride < 1:
            raise ValueError(f"stride must be positive in {seg!r}")
        if b < a:
            raise ValueError(f"empty range {seg!r}")
        entry = range(a, b + 1, stride)
        check(entry[0])
        check(entry[-1])
        out.append(entry)
    return tuple(out)


def mask_from_arg(text: str) -> masks.Mask:
    head = text.partition(":")[0].strip().lower()
    if head in masks.SPECS:
        return masks.from_spec(text)
    if os.path.exists(text) and not os.path.isdir(text):  # /dev/stdin is a mask file
        return masks.load_mask(text)
    raise ValueError(
        f"mask argument {text!r} is neither a family spec nor an existing file")


def run_config(args) -> str:
    """The '# config:' line of a run, from the namespace its sub-parser built.

    Its words are the command, the mask action or response mode and the mask
    spec, then every other option the sub-parser declares as sorted flags,
    the index sets (parsed already) without whitespace. Each word is
    shlex-quoted, so shlex.split gives the run back. A word with a line
    break is refused: shlex cannot quote it onto the one '# config:' line,
    and the rest of it would become a line of its own.
    """
    options = vars(args).copy()
    del options["func"], options["parser"]
    words = [options.pop(key) for key in ("command", "action", "mode", "spec")
             if key in options]
    if "k" in options:
        for key in ("k", "l", "nu"):
            options[key] = "".join(options[key].split())
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


def _column_cells(column, end: str):
    """The cells of a column as CSV text, each followed by end.

    A number column keys its cells by bit pattern, so -0.0 and 0.0, and
    each NaN payload, stay apart; the value at a key's first occurrence is
    formatted once as its numpy dtype says: integers and bools %d, floats
    %.11e. Anything else is str(), left for csv.writer to quote, and None
    an empty cell, as csv.writer writes it.
    """
    cells = np.asarray(column)
    if cells.dtype.kind not in "biuf":
        return [("" if v is None else str(v)) + end for v in column]
    spec = ("%.11e" if cells.dtype.kind == "f" else "%d") + end
    _, first, inverse = np.unique(cells.view(f"u{cells.itemsize}"),
                                  return_index=True, return_inverse=True)
    text = np.array([spec % v for v in cells[first].tolist()], dtype=object)
    return text[inverse].tolist()


def _fields(record) -> tuple:
    """A dataclass's field values in declaration order, not deep-copied as by astuple()."""
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def _table(columns) -> str:
    """The rows of a table given as equal-length columns, as csv.writer writes them."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(zip(*(_column_cells(c, "") for c in columns)))
    return text.getvalue()


def _array_blocks(axes, values):
    """The text of an array's rows, row-major, BLOCK_ROWS rows per string.

    A row is each axis's label, then the value. axes holds the integer
    labels of each dimension of values, each formatted "%d" once per table
    (no numpy dtype: any size keeps its digits). A long last axis (mask
    verify's N delays) costs memory in its length. A block reads its
    last-axis labels by position and its row prefixes (such as "k,l,") in
    row order from one lazy iterator, joined once per outer row.
    """
    *outer, last = [["%d," % v for v in ax] for ax in axes]
    size = len(last)
    flat = values.reshape(-1)
    prefixes = itertools.chain.from_iterable(
        itertools.repeat("".join(p), size) for p in itertools.product(*outer))
    for start in range(0, flat.size, BLOCK_ROWS):
        value_text = _column_cells(flat[start:start + BLOCK_ROWS], "\n")
        head = last[start % size:start % size + len(value_text)]
        rest = len(value_text) - len(head)
        columns = [head + last * (rest // size) + last[:rest % size], value_text]
        if outer:
            columns.insert(0, list(itertools.islice(prefixes, len(value_text))))
        # a row is its pieces read across the columns
        pieces = [None] * (len(columns) * len(value_text))
        for j, column in enumerate(columns):
            pieces[j::len(columns)] = column
        yield "".join(pieces)


def write_csv(path, header, chunks, config_str: str, seed) -> None:
    """Write three '#' lines (tool, config, seed), the header, then the rows.

    chunks is an iterable of rows as text, as _table and _array_blocks give
    them. Each distinct value of a number column is formatted once per
    chunk (a closed-form grid repeats a few values many times: its range
    sidelobes do not depend on nu) and each axis label, an integer, once
    per table; the bytes are those of a csv.writer with lineterminator
    "\n" over the same cells, formatted as _column_cells says.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"# {line}\n" for line in _header_lines(config_str, seed)))
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(chunks)


def _print_fields(names, values) -> None:
    """Print a "name: value" line for each pair, the value as its CSV cell."""
    for name, v in zip(names, values):
        print(f"{name}: {_column_cells([v], '')[0]}")


def _write_out(out_dir: str, name: str, write) -> None:
    """Write out_dir/name by write(path), creating out_dir; print a 'wrote' line.

    An OSError removes the directories this call created, with the file it
    wrote into them, and never a directory that existed before. The missing
    ancestors are found on out_dir as given: its absolute form can exceed
    PATH_MAX where the given path does not.
    """
    created = []
    head = out_dir.rstrip(os.sep)
    while head and not os.path.lexists(head):
        created.append(head)
        head = os.path.dirname(head)
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        write(path)
    except OSError:
        if created:
            with contextlib.suppress(OSError):
                os.remove(path)
        for made in created:
            with contextlib.suppress(OSError):
                os.rmdir(made)
        raise
    print(f"wrote {path}")


def _slug(label: str) -> str:
    # the last 240 characters, so "<slug>_autocorr.csv" fits in NAME_MAX = 255
    return re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_")[-240:]


def _resolve_mu4(args) -> float:
    # argparse lets through exactly one of the two; response both takes no --mu4
    if getattr(args, "mu4", None) is not None:
        return args.mu4
    return montecarlo.make_constellation(args.constellation).mu4


# ---------------------------------------------------------------- commands

def cmd_mask(args) -> int:
    config = run_config(args) if getattr(args, "out", None) else None  # show has no --out
    if args.action == "gen":
        mask = masks.from_spec(args.spec)
        if args.out:
            _write_out(args.out, _slug(mask.label) + ".mask", lambda path: masks.save_mask(
                mask, path, header_lines=_header_lines(config, 0)))
        else:
            print(masks.serialize_mask(mask))
        return EXIT_OK

    mask = mask_from_arg(args.spec)
    a = spectra.autocorr(mask)
    check = masks._cds_check(a)
    if args.action == "show":
        print(masks.serialize_mask(mask))
    _print_fields(("label", "N", "weight", "rho", "is_cds", "lambda"),
                  (mask.label, mask.n, mask.weight, mask.rho, check.is_cds, check.lam))
    if args.action == "verify":
        # a[k] = w iff the shift k maps the support onto itself; those k form a
        # subgroup, and the support is one coset of it iff no 0 < a[k] < w: a comb
        if ((a[1:] == 0) | (a[1:] == mask.weight)).all():
            print(f"structure: comb (d={mask.n // mask.weight})")
        elif check.is_cds:
            print("structure: cyclic difference set")
        else:
            print("structure: irregular")
        table = list(_array_blocks((range(mask.n),), a))
        print("k,a")
        sys.stdout.writelines(table)
        if args.out:
            _write_out(args.out, f"{_slug(mask.label)}_autocorr.csv", lambda path: write_csv(
                path, ("k", "a"), table, config, 0))
    return EXIT_OK


def cmd_response(args) -> int:
    if args.l is None:
        args.l = args.k
    mask = mask_from_arg(args.mask)
    # M first: the nu axis is 0..MN-1
    params = response.ScenarioParams(mask=mask, M=args.M, mu4=_resolve_mu4(args))
    entries = (parse_index_set(args.k, lambda k: response._check_delay("k", k, mask.n)),
               parse_index_set(args.l, lambda l: response._check_delay("l", l, mask.n)),
               parse_index_set(args.nu, lambda nu: response._check_nu("nu", nu, params.total_bins)))
    config = run_config(args)

    if args.mode == "closed":
        grid = response.build_grid(params, *map(itertools.chain.from_iterable, entries))
        header, seed = response.GRID_HEADER_CLOSED, 0
        chunks = _array_blocks((grid.k_set, grid.l_set, grid.nu_set), grid.values)
    else:
        # refused by the entries' sizes, none expanded (a range's len() stops at sys.maxsize)
        points = math.prod(sum((e[-1] - e[0]) // e.step + 1 for e in axis) for axis in entries)
        montecarlo.check_run(points, args.trials, args.seed, params.total_bins)
        scored = montecarlo.mc_points(
            mask, args.M, montecarlo.make_constellation(args.constellation),
            itertools.product(*map(itertools.chain.from_iterable, entries)),
            args.trials, args.seed)
        header, seed = montecarlo.VALIDATION_HEADER, args.seed
        chunks = [_table(zip(*map(_fields, scored)))]
    _write_out(args.out, f"response_{args.mode}.csv",
               lambda path: write_csv(path, header, chunks, config, seed))
    return EXIT_OK


def cmd_metrics(args) -> int:
    if args.command == "compare" and len(args.mask) < 2:
        raise ValueError("compare needs at least two --mask arguments")
    mu4 = _resolve_mu4(args)
    config = run_config(args)
    mask_list = [mask_from_arg(text) for text in args.mask]
    reports = [metrics.metrics_report(mask, args.M, mu4, args.normalize) for mask in mask_list]
    _write_out(args.out, f"{args.command}.csv", lambda path: write_csv(
        path, metrics.REPORT_HEADER, [_table(zip(*map(_fields, reports)))], config, 0))
    return EXIT_OK


def cmd_bounds(args) -> int:
    mu4 = _resolve_mu4(args)
    config = run_config(args) if args.out else None
    mask = mask_from_arg(args.mask)
    b = metrics.doppler_sidelobe_sum(mask, mu4)
    header = ("mask_id", "I", "I_lower", "I_upper", "attains_upper", "attains_lower")
    row = (mask.label, b.value, b.lower, b.upper, b.attains_upper(), b.attains_lower())
    _print_fields(("mask", *header[1:]), row)
    if args.out:
        _write_out(args.out, "bounds.csv", lambda path: write_csv(
            path, header, [_table(zip(row))], config, 0))
    return EXIT_OK


# ---------------------------------------------------------------- selftest

def _selftest_items(trials: int, seed: int):
    """One check per numeric backend path that the outputs rest on.

    A failed check raises ArithmeticError: plain `if`s, not asserts, so
    that python -O runs them too. The mc_oracle item's trials, seed and
    work are refused here, before any item runs.
    """
    oracle_mask, m_pri = masks.singer_mask(3), 4
    triples = ((1, 1, 0), (1, 1, 2), (2, 5, 9), (3, 3, 4), (4, 2, 0), (6, 6, 12))
    montecarlo.check_run(len(triples), trials, seed, oracle_mask.n * m_pri)
    rng = np.random.Generator(np.random.Philox(key=seed))
    qam16 = montecarlo.make_constellation("qam16")

    def random_suite(count, lo=5, hi=64):
        out = []
        for _ in range(count):
            n = int(rng.integers(lo, hi + 1))
            w = int(rng.integers(1, n))
            out.append(masks.random_mask(n, w, int(rng.integers(0, 2 ** 31))))
        return out

    def range_sidelobe_sum():
        suite = [masks.singer_mask(m) for m in range(3, 7)]
        suite += [masks.comb_mask(63, 3)] + random_suite(20)
        for mask in suite:  # checks sum_(k != l) R = w (N - w)(w - 1) itself
            spectra.cross_term_matrix(mask)

    def parseval():
        suite = [masks.singer_mask(3), masks.singer_mask(6),
                 masks.comb_mask(6, 3), masks.comb_mask(63, 3)] + random_suite(10)
        for mask in suite:
            lags = range(1, mask.n)
            direct = (np.abs(spectra.s_kn_table(mask, lags, lags)) ** 2).sum(axis=1)
            closed = spectra.doppler_energy(spectra.autocorr(mask)[1:], mask.n, mask.weight)
            error = np.abs(direct - closed)
            if not np.all(error <= 1e-6):
                raise ArithmeticError(f"{mask.label}: |direct - closed| up to {np.max(error)}")

    def rng_known_answer():
        # the indices of the 8 symbols r(1, 2, 0) reads in trial 3 (W = 1) of stream
        # 5, as numpy's Generator.integers(0, 16, dtype=np.uint8) draws them
        scen = montecarlo.EchoScenario(mask=oracle_mask, M=m_pri, constellation=qam16,
                                       true_delay=1, nu=0)
        got = montecarlo.draw_stream(scen, 2, 1234, trial=3, stream=5)
        index = (got[got != 0, None] == qam16.points).argmax(axis=1).tolist()
        if index != [15, 10, 14, 5, 1, 15, 9, 6]:
            raise ArithmeticError(f"drew {index}")

    def double_sum_oracle():
        mask = masks.singer_mask(3)
        params = response.ScenarioParams(mask=mask, M=4, mu4=qam16.mu4)
        for k in range(1, 7):
            for l in range(1, 7):
                for nu in (0, 1, 3, 4, 8, 27):
                    want = response.expected_response(params, k, l, nu)
                    got = montecarlo.expectation_by_double_sum(
                        mask, 4, qam16, k, l, nu)
                    if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
                        raise ArithmeticError(f"(k, l, nu) = {(k, l, nu)}: "
                                              f"got {got!r}, want {want!r}")

    def mc_oracle():
        pts = montecarlo.mc_points(oracle_mask, m_pri, qam16, triples, trials, seed)
        bad = [p for p in pts if abs(p.z) > 4.0]
        if bad:
            raise ArithmeticError(f"{len(bad)} points beyond 4 standard errors")

    def determinism():
        scen = montecarlo.EchoScenario(mask=masks.singer_mask(3), M=4, constellation=qam16,
                                       true_delay=2, nu=5)
        # one point of at most mc_oracle's trials: within the budget checked above
        first = montecarlo.estimate(scen, 2, min(trials, 200), seed)
        second = montecarlo.estimate(scen, 2, min(trials, 200), seed)
        if first != second:
            raise ArithmeticError(f"{first} then {second}")

    return [
        ("range_sidelobe_sum_identity", range_sidelobe_sum),
        ("parseval_identity", parseval),
        ("rng_known_answer", rng_known_answer),
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
        except ArithmeticError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
            continue
        print(f"PASS {name} ({time.perf_counter() - t0:.2f}s)")
    elapsed = time.perf_counter() - started
    if elapsed > SELFTEST_TIME_BUDGET:
        failures += 1
        print(f"FAIL time_budget: {elapsed:.1f}s > {SELFTEST_TIME_BUDGET:.1f}s")
    print(f"selftest: {'ok' if failures == 0 else f'{failures} failure(s)'}")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# ---------------------------------------------------------------- parser

def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="maskrd",
        description="Range-Doppler analysis of periodic binary transmission masks.",
        epilog="Index sets: comma-separated entries 'a', 'a..b' (inclusive) "
               "or 'a..b:s' (stride s; a stride needs a range), e.g. '1..62' "
               "or '0,5,10..20:5'.")
    parser.add_argument("--version", action="version",
                        version=f"maskrd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def mu4_source(p):
        # closed forms read mu4 alone: given as such, or as the constellation's
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--constellation", choices=montecarlo.CONSTELLATION_NAMES)
        group.add_argument("--mu4", type=float,
                           help="symbol kurtosis, in place of --constellation")

    p_mask = sub.add_parser("mask", help="generate, verify or show masks")
    actions = p_mask.add_subparsers(dest="action", required=True)
    for action, out_help in (
            ("gen", "directory to write the mask file into (default: print the mask)"),
            ("verify", "directory to write the autocorrelation CSV into"),
            ("show", None)):
        p = actions.add_parser(action)
        p.add_argument("spec", help="family spec (singer:m=6, comb:N=63,d=3, "
                                    "random:N=63,w=31,seed=7) or mask file")
        if out_help:
            p.add_argument("--out", help=out_help)
        p.set_defaults(func=cmd_mask, parser=p)

    p_resp = sub.add_parser("response", help="expected response grids")
    modes = p_resp.add_subparsers(dest="mode", required=True)
    for mode in ("closed", "both"):
        p = modes.add_parser(mode)
        p.add_argument("--mask", required=True)
        p.add_argument("--M", type=int, required=True,
                       help="periods per coherent window")
        if mode == "closed":
            mu4_source(p)
        else:
            p.add_argument("--constellation", choices=montecarlo.CONSTELLATION_NAMES,
                           required=True)
            p.add_argument("--trials", type=int, default=10000,
                           help=f"trials per point (points*trials*MN <= ${montecarlo.BUDGET_ENV})")
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--k", required=True, help="true delay index set")
        p.add_argument("--l", help="trial delay index set (default: same as --k)")
        p.add_argument("--nu", required=True, help="Doppler bin index set")
        p.add_argument("--out", default=".")
        p.set_defaults(func=cmd_response, parser=p)

    for name, needs_many in (("metrics", False), ("compare", True)):
        p = sub.add_parser(name, help="mask quality report (CSV)")
        p.add_argument("--mask", action="append", required=True,
                       help="repeatable" if needs_many else None)
        p.add_argument("--M", type=int, required=True)
        mu4_source(p)
        p.add_argument("--normalize", choices=metrics.NORMALIZATIONS,
                       default="none", help="mean-Doppler-sidelobe scaling")
        p.add_argument("--out", default=".")
        p.set_defaults(func=cmd_metrics, parser=p)

    p_bounds = sub.add_parser("bounds", help="Doppler sidelobe sum and bounds")
    p_bounds.add_argument("--mask", required=True)
    mu4_source(p_bounds)
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(func=cmd_bounds, parser=p_bounds)

    p_self = sub.add_parser("selftest", help="run the embedded identity suite")
    p_self.add_argument("--trials", type=int, default=100000,
                        help="Monte Carlo trials for the oracle item "
                             f"(capped by ${montecarlo.BUDGET_ENV})")
    p_self.add_argument("--seed", type=int, default=1234)
    p_self.set_defaults(func=cmd_selftest, parser=p_self)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, unread = build_parser().parse_known_args(argv)
        if unread:
            # under the root's usage if given before the command word, else the action's
            before = set(argv[:argv.index(args.command)])
            (build_parser() if before.intersection(unread) else args.parser).error(
                f"unrecognized arguments: {' '.join(unread)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:  # the reader stopped early (| head): no message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # nor at exit
        return EXIT_PIPE
    except ValueError as exc:  # montecarlo.McBudgetError too
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
