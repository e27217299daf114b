"""cli.write_csv against the per-cell csv.writer it replaced (csv_oracle.py).

The block writer formats each distinct value of a column once, from its
dtype; these tests hold it to the old writer's bytes cell by cell, across
block boundaries and through the CLI callers that stream a grid or R in
blocks.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import csv_oracle as oracle
from maskrd import cli, masks, response, spectra

CONFIG = "response closed --out 'a b'"


def both_writers(tmp_path, header, rows):
    """Bytes of cli.write_csv on rows as one block, then of the oracle."""
    cli.write_csv(tmp_path / "new.csv", header, [tuple(zip(*rows))], CONFIG, 7)
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
    ]
    header = ("mask_id", "label", "empty", "lambda", "rho")
    new, old = both_writers(tmp_path, header, rows)
    assert new == old
    assert b'\n"comb:N=63,d=3","a,""b.mask",,3,1/7\n"line\nbreak",plain,,,x y\n' in new


def test_grid_blocks_order_and_schema(monkeypatch):
    monkeypatch.setattr(cli, "BLOCK_ROWS", 3)
    p = response.ScenarioParams(mask=masks.singer_mask(3), M=2, mu4=1.0)
    grid = response.build_grid(p, (1,), (1, 2), (0, 1))
    blocks = list(cli._array_blocks((grid.k_set, grid.l_set, grid.nu_set), grid.values))
    assert [len(b) for b in blocks] == [4, 4]
    assert [len(b[0]) for b in blocks] == [3, 1]
    rows = [row for b in blocks for row in zip(*(c.tolist() for c in b))]
    assert [r[:3] for r in rows] == [(1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 1)]
    assert [r[3] for r in rows] == grid.values.ravel().tolist()


def _grid_rows(argv):
    mask = masks.from_spec(argv[argv.index("--mask") + 1])
    p = response.ScenarioParams(mask=mask, M=int(argv[argv.index("--M") + 1]),
                                mu4=float(argv[argv.index("--mu4") + 1]))
    sets = [cli.parse_index_set(argv[argv.index(f"--{a}") + 1]) for a in ("k", "l", "nu")]
    grid = response.build_grid(p, *sets)
    return [(k, l, nu, grid.values[i, j, t])
            for i, k in enumerate(grid.k_set) for j, l in enumerate(grid.l_set)
            for t, nu in enumerate(grid.nu_set)]


def _crossterm_rows(argv):
    mask = masks.from_spec(argv[2])
    r = spectra.cross_term_matrix(mask)
    return [(k, l, int(r[k, l])) for k in range(1, mask.n) for l in range(1, mask.n)]


@pytest.mark.parametrize("argv, name, header, rows", [
    # 16 k x 62 l x 21 nu = 20832 rows, grating lobes at nu = 0, 50, 100
    (["response", "closed", "--mask", "singer:m=6", "--M", "50", "--mu4", "1.32",
      "--k", "1..62:4", "--l", "1..62", "--nu", "0..100:5"],
     "response_closed.csv", response.GRID_HEADER_CLOSED, _grid_rows),
    # 126^2 = 15876 rows of R
    (["mask", "verify", "singer:m=7"], "singer_m_7_crossterms.csv", ("k", "l", "R"),
     _crossterm_rows),
], ids=["closed_grid", "crossterms"])
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
    blocks = [tuple(c[a:b] for c in columns) for a, b in zip(edges, edges[1:])]
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
