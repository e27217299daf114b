"""cli.write_csv against the per-cell csv.writer it replaced (csv_oracle.py).

The table writer formats each distinct value of a column once per table or
block, from its dtype, and each axis label of an array table once per
table; these tests hold it to the old writer's bytes cell by cell, across
block boundaries and through the CLI caller that streams a grid in blocks,
and hold a streamed block to its own rows in memory.
"""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

import csv_oracle as oracle
from maskrd import cli, masks, response

CONFIG = "response closed --out 'a b'"


def both_writers(tmp_path, header, rows):
    """Bytes of cli.write_csv on rows as one table, then of the oracle."""
    cli.write_csv(tmp_path / "new.csv", header, [cli._table(zip(*rows))], CONFIG, 7)
    oracle.write_csv(tmp_path / "old.csv", header, rows, CONFIG, 7)
    return (tmp_path / "new.csv").read_bytes(), (tmp_path / "old.csv").read_bytes()


def test_numbers_format_as_the_old_writer(tmp_path):
    rows = [
        (-0.0, np.int64(-7), True, 3, np.float64(2.5e-300), np.float32(0.1)),
        (math.inf, np.int64(2 ** 62), False, -(10 ** 30), np.float64(-1e300), np.float32(-0.0)),
        (-math.inf, np.int64(0), True, 0, np.float64(1 / 3), np.float32(np.inf)),
        (math.nan, np.int64(1), False, 2 ** 64, np.float64(-math.nan), np.float32(65504)),
    ]
    new, old = both_writers(tmp_path, ("f", "i64", "b", "int", "f64", "f32"), rows)
    assert new == old
    assert b"\n-0.00000000000e+00,-7,1,3," in new
    assert b"\ninf," in new and b"\n-inf," in new and b"\nnan," in new


def test_text_cells_quote_as_the_old_writer(tmp_path):
    rows = [
        ("comb:N=63,d=3", 'a,"b.mask', "", 3, "1/7"),
        ("line\nbreak", "plain", "", "", "x y"),
        ('"quoted"', "", "é,ü", 11, ""),
        ("none", "x", "", None, "2/9"),
    ]
    header = ("mask_id", "label", "empty", "lambda", "rho")
    new, old = both_writers(tmp_path, header, rows)
    assert new == old
    assert b'\n"comb:N=63,d=3","a,""b.mask",,3,1/7\n"line\nbreak",plain,,,x y\n' in new
    assert new.endswith(b"\nnone,x,,,2/9\n")  # None is an empty cell


def test_grid_blocks_order_and_schema(monkeypatch):
    monkeypatch.setattr(cli, "BLOCK_ROWS", 3)
    p = response.ScenarioParams(mask=masks.singer_mask(3), M=2, mu4=1.0)
    grid = response.build_grid(p, (1,), (1, 2), (0, 1))
    blocks = list(cli._array_blocks((grid.k_set, grid.l_set, grid.nu_set), grid.values))
    # a block is the text of its rows: k, l, nu, then the value
    cells = ["%.11e" % v for v in grid.values.ravel()]
    assert blocks == [f"1,1,0,{cells[0]}\n1,1,1,{cells[1]}\n1,2,0,{cells[2]}\n",
                      f"1,2,1,{cells[3]}\n"]


def _grid_rows(argv):
    mask = masks.from_spec(argv[argv.index("--mask") + 1])
    p = response.ScenarioParams(mask=mask, M=int(argv[argv.index("--M") + 1]),
                                mu4=float(argv[argv.index("--mu4") + 1]))
    entries = [cli.parse_index_set(argv[argv.index(f"--{a}") + 1]) for a in ("k", "l", "nu")]
    grid = response.build_grid(p, *map(itertools.chain.from_iterable, entries))
    return [(k, l, nu, grid.values[i, j, t])
            for i, k in enumerate(grid.k_set) for j, l in enumerate(grid.l_set)
            for t, nu in enumerate(grid.nu_set)]


@pytest.mark.parametrize("argv, name, header, rows", [
    # 16 k x 62 l x 21 nu = 20832 rows, grating lobes at nu = 0, 50, 100
    (["response", "closed", "--mask", "singer:m=6", "--M", "50", "--mu4", "1.32",
      "--k", "1..62:4", "--l", "1..62", "--nu", "0..100:5"],
     "response_closed.csv", response.GRID_HEADER_CLOSED, _grid_rows),
], ids=["closed_grid"])
def test_streamed_tables_match_the_old_writer(tmp_path, argv, name, header, rows):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    got = (tmp_path / name).read_bytes()
    table = rows(argv)
    assert len(table) > 3 * cli.BLOCK_ROWS
    config = got.decode().splitlines()[1][len("# config: "):]
    oracle.write_csv(tmp_path / "old.csv", header, table, config, 0)
    assert got == (tmp_path / "old.csv").read_bytes()


def _bits(dtype, *patterns):
    return np.array(patterns, dtype=f"u{np.dtype(dtype).itemsize}").view(dtype)


# Small pools, so most cells repeat: signed zeros, NaNs of either sign and
# with a payload, infinities, extreme integers and text that needs quoting.
POOLS = {
    "f64": [0.0, -0.0, 1.5, -2.5e-300, 1 / 3, math.inf, -math.inf,
            *_bits(np.float64, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001)],
    "f32": list(np.array([0.1, -0.0, 0.0, 65504, np.inf], dtype=np.float32))
           + list(_bits(np.float32, 0x7FC00000, 0xFFC00000)),
    "i8": list(np.array([-128, -1, 0, 127], dtype=np.int8)),
    "u64": list(np.array([0, 5, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)),
    "bool": [True, False],
    "text": ["plain", "", "a,b", 'q"x', "line\nbreak", "é"],
}
DTYPES = {"f64": np.float64, "f32": np.float32, "i8": np.int8, "u64": np.uint64,
          "bool": np.bool_, "text": object}


@st.composite
def tables(draw):
    """Columns of pool values and the edges that split them into blocks,
    the last of which is always empty (a zero-row block writes nothing).
    """
    kinds = draw(st.lists(st.sampled_from(sorted(POOLS)), min_size=1, max_size=6))
    n = draw(st.integers(0, 40))
    columns = [np.array(draw(st.lists(st.sampled_from(POOLS[k]), min_size=n, max_size=n)),
                        dtype=DTYPES[k]) for k in kinds]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return kinds, columns, [0, *cuts, n, n]


@given(tables())
# csv.writer quotes a row that is one empty field
@example((["text"], [np.array(["x", "", "a"], dtype=object)], [0, 1, 3, 3]))
def test_blocks_of_repeated_values_match_the_old_writer(tmp_path_factory, table):
    kinds, columns, edges = table
    blocks = [cli._table([c[a:b] for c in columns]) for a, b in zip(edges, edges[1:])]
    rows = list(zip(*(c.tolist() for c in columns)))
    tmp = tmp_path_factory.mktemp("t")
    cli.write_csv(tmp / "new.csv", kinds, blocks, CONFIG, 7)
    oracle.write_csv(tmp / "old.csv", kinds, rows, CONFIG, 7)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@pytest.mark.parametrize("block_rows", [1, 5, 64])
def test_array_blocks_of_signed_zeros_and_nans_match_the_old_writer(
        monkeypatch, tmp_path, block_rows):
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    pool = np.array(POOLS["f64"])
    values = pool[np.random.default_rng(5).integers(0, len(pool), (3, 4, 5))]
    axes = (np.array([-128, 0, 127], dtype=np.int8), np.array(POOLS["u64"]),
            np.array([True, False, True, True, False]))
    header = ("i8", "u64", "bool", "value")
    cli.write_csv(tmp_path / "new.csv", header, cli._array_blocks(axes, values), CONFIG, 7)
    labels = [ax.tolist() for ax in axes]
    rows = [(labels[0][i], labels[1][j], labels[2][t], values[i, j, t])
            for i in range(3) for j in range(4) for t in range(5)]
    oracle.write_csv(tmp_path / "old.csv", header, rows, CONFIG, 7)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("block_rows", [1, 4, 64])
def test_array_blocks_of_int_labels_past_int64_match_the_old_writer(
        monkeypatch, tmp_path, block_rows):
    # Python-int labels as parse_index_set gives them; numpy would type the
    # first axis float64 and the second object
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    axes = ((1, 2 ** 63 + 1), (-(2 ** 63) - 1, 0, 2 ** 64 + 7))
    values = np.arange(6.0).reshape(2, 3) / 4
    header = ("k", "nu", "value")
    cli.write_csv(tmp_path / "new.csv", header, cli._array_blocks(axes, values), CONFIG, 7)
    rows = [(k, nu, values[i, j]) for i, k in enumerate(axes[0]) for j, nu in enumerate(axes[1])]
    oracle.write_csv(tmp_path / "old.csv", header, rows, CONFIG, 7)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert b"\n9223372036854775809,18446744073709551623,1.25000000000e+00\n" in new


LABELS = ("i8", "u64", "bool")
VALUES = {"f64": np.array(POOLS["f64"]),
          "i64": np.array([-2 ** 63, -1, 0, 7, 2 ** 63 - 1], dtype=np.int64)}
# How a value array of a given shape is cut from a C-ordered base: (the
# base's shape, the cut). The base itself, the base without its first index
# on every axis (as r[1:, 1:] in mask verify --out), every other index of the
# base's last axis, or the base transposed.
VIEWS = {
    "whole": (lambda shape: shape, lambda base: base),
    "offset": (lambda shape: [s + 1 for s in shape],
               lambda base: base[(slice(1, None),) * base.ndim]),
    "strided": (lambda shape: [*shape[:-1], 2 * shape[-1]], lambda base: base[..., ::2]),
    "transposed": (lambda shape: shape[::-1], lambda base: base.T),
}


@st.composite
def arrays(draw):
    """Labelled arrays of 1 to 4 axes of pool values, and a BLOCK_ROWS."""
    shape = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    kinds = draw(st.lists(st.sampled_from(LABELS), min_size=len(shape), max_size=len(shape)))
    axes = [np.array(draw(st.lists(st.sampled_from(POOLS[k]), min_size=s, max_size=s)),
                     dtype=DTYPES[k]) for k, s in zip(kinds, shape)]
    pool = VALUES[draw(st.sampled_from(sorted(VALUES)))]
    base_shape, cut = VIEWS[draw(st.sampled_from(sorted(VIEWS)))]
    index = draw(hnp.arrays(np.intp, base_shape(shape), elements=st.integers(0, len(pool) - 1)))
    return axes, cut(pool[index]), draw(st.sampled_from([1, 5, 64]))


def _array(kinds, shape, view="offset", values="f64", block_rows=5):
    """One example of arrays(): the pools taken in turn."""
    axes = [np.array(POOLS[k] * s, dtype=DTYPES[k])[:s] for k, s in zip(kinds, shape)]
    base_shape, cut = VIEWS[view]
    pool = VALUES[values]
    index = np.arange(np.prod(base_shape(shape)), dtype=np.intp).reshape(base_shape(shape))
    return axes, cut(pool[index % len(pool)]), block_rows


@given(arrays())
@example(_array(("u64", "i8", "bool"), (3, 4, 1), block_rows=1))  # a last axis of length 1
@example(_array(("i8", "bool", "u64"), (2, 0, 3)))  # an empty axis: no rows
@example(_array(("bool", "u64"), (6, 5), view="transposed", values="i64", block_rows=64))
def test_array_tables_match_the_old_writer(tmp_path_factory, table):
    axes, values, block_rows = table
    header = (*(f"axis{d}" for d in range(values.ndim)), "value")
    tmp = tmp_path_factory.mktemp("t")
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
        cli.write_csv(tmp / "new.csv", header, cli._array_blocks(axes, values), CONFIG, 7)
    labels = [ax.tolist() for ax in axes]
    rows = [(*(labels[d][i] for d, i in enumerate(index)), values[index])
            for index in np.ndindex(values.shape)]
    oracle.write_csv(tmp / "old.csv", header, rows, CONFIG, 7)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


def test_a_block_holds_its_own_rows_only(tmp_path):
    # 256 x 256 outer rows of 4 cells: a row prefix held for every outer row
    # of the table would take ~4 MB, and the table's text is ~7 MB
    values = (np.arange(256 * 256 * 4) % 3 * 0.25).reshape(256, 256, 4)
    axes = (range(256), range(256), range(4))
    tracemalloc.start()
    try:
        cli.write_csv(tmp_path / "t.csv", ("k", "l", "nu", "v"),
                      cli._array_blocks(axes, values), CONFIG, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.csv").stat().st_size > 7e6
    assert peak < 2e6
