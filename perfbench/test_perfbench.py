"""Tests of the benchmark's own checks, pass accounting and tracer.

Run from the repository root with: python3 -m pytest perfbench
"""

import contextlib
import csv
import functools
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from maskrd import cli, masks, metrics, spectra  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _cli(argv, out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv) + ["--out", str(out)]) == 0


def _edit_row(path, row, column, new):
    """Replace one cell of data row `row` (0-based, below the column names)."""
    lines = Path(path).read_text().splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("# ")]
    cells = next(csv.reader([lines[data[row + 1]]]))
    cells[column] = new(cells[column])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    lines[data[row + 1]] = out.getvalue()
    Path(path).write_text("".join(lines))


def _flip_digit(cell):
    """Change the first digit after the decimal point."""
    head, _, tail = cell.partition(".")
    return f"{head}.{(int(tail[0]) + 1) % 10}{tail[1:]}"


# ------------------------------------------------------------ small cases

CLOSED_K, CLOSED_L, CLOSED_NU = (1, 5), tuple(range(1, 15)), tuple(range(9)) + (18, 27, 36)


def small_closed():
    argv = ("response", "closed", "--mask", "singer:m=4", "--M", "3",
            "--mu4", "1.32", "--k", "1,5", "--l", "1..14", "--nu", "0..8,18..36:9")
    check = functools.partial(
        checks.check_closed, bits=checks.singer_bits(4), m_pri=3, mu4=1.32,
        k_set=CLOSED_K, l_set=CLOSED_L, nu_set=CLOSED_NU, seed=1, samples=10_000)
    rows = len(CLOSED_K) * len(CLOSED_L) * len(CLOSED_NU)
    return workloads.Case(argv, "response_closed.csv", rows, "rows", check)


CERTIFY = (("singer:m=5", "singer", 31, 15, 5),
           ("random:N=31,w=15,seed=3", "random", 31, 15, None),
           ("comb:N=30,d=3", "comb", 30, 10, None))


def small_certify(tmp_path):
    argv = ["compare"]
    for spec in CERTIFY:
        argv += ["--mask", spec[0]]
    _cli(argv + ["--M", "50", "--constellation", "qam16"], tmp_path)
    return tmp_path / "compare.csv"


MC_TRIPLES = [(k, 2, nu) for k in range(1, 7) for nu in (0, 1, 4)]


def small_mc(tmp_path):
    _cli(["response", "both", "--mask", "singer:m=3", "--M", "4",
          "--constellation", "qam16", "--k", "1..6", "--l", "2",
          "--nu", "0,1,4", "--trials", "200", "--seed", "7"], tmp_path)
    return tmp_path / "response_both.csv"


def check_small_mc(path):
    return checks.check_mc(path, checks.singer_bits(3), 4, workloads.QAM16_MU4,
                           MC_TRIPLES, 200, workloads.Z_MAX)


# ------------------------------------------------------------ references

@pytest.mark.parametrize("m", sorted(checks.SINGER_POLYS))
def test_singer_reference_matches_definition(m):
    bits = checks.singer_bits(m)
    assert bits == masks.singer_mask(m).bits
    assert sum(bits) == 2 ** (m - 1) - 1
    if m <= 6:
        lam = {checks.autocorr_naive(bits, k) for k in range(1, len(bits))}
        assert lam == {2 ** (m - 2) - 1}


def test_naive_references_match_library():
    mask = masks.random_mask(21, 8, 5)
    bits = mask.bits
    r = spectra.cross_term_matrix(mask)
    a = spectra.autocorr(mask)
    for k in range(1, 21):
        assert checks.autocorr_naive(bits, k) == a[k]
        for l in (1, 7, 20):
            assert checks.cross_term_naive(bits, k, l) == r[k, l]
        for nu in (0, 4, 5, 10):
            got = checks.tiled_spectrum_naive(bits, k, 5, nu)
            assert abs(got - spectra.s_kmn(mask, k, 5, nu)) < 1e-9


# ------------------------------------------------------------ checks

def test_closed_check_passes_and_catches_a_flipped_digit(tmp_path):
    case = small_closed()
    _cli(case.argv, tmp_path)
    path = tmp_path / case.csv
    assert case.check(str(path)) == []
    _edit_row(path, 100, 3, _flip_digit)
    assert case.check(str(path))


def test_closed_check_catches_a_missing_row(tmp_path):
    case = small_closed()
    _cli(case.argv, tmp_path)
    path = tmp_path / case.csv
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert case.check(str(path))


def test_certify_check_passes_and_catches_a_non_cds_singer_row(tmp_path):
    path = small_certify(tmp_path)
    assert checks.check_certify(path, CERTIFY, workloads.QAM16_MU4) == []
    _edit_row(path, 0, checks.REPORT_HEADER.index("is_cds"), lambda c: "0")
    assert checks.check_certify(path, CERTIFY, workloads.QAM16_MU4)


def test_certify_check_catches_a_comb_row_off_its_bound(tmp_path):
    path = small_certify(tmp_path)
    _edit_row(path, 2, checks.REPORT_HEADER.index("I"), _flip_digit)
    assert checks.check_certify(path, CERTIFY, workloads.QAM16_MU4)


def test_mc_check_passes_and_catches_a_z_beyond_the_threshold(tmp_path):
    path = small_mc(tmp_path)
    assert check_small_mc(path) == []
    _edit_row(path, 4, checks.MC_HEADER.index("z"), lambda c: "7.00000000000e+00")
    assert check_small_mc(path)


def test_mc_check_catches_a_mean_far_from_the_closed_form(tmp_path):
    path = small_mc(tmp_path)
    mean = checks.MC_HEADER.index("mc_mean")
    _edit_row(path, 0, mean, lambda c: repr(float(c) * 10))
    assert check_small_mc(path)


def test_payload_hash_ignores_the_header(tmp_path):
    case = small_closed()
    _cli(case.argv, tmp_path / "a")
    _cli(case.argv, tmp_path / "bb")
    first = checks.payload_stats(tmp_path / "a" / case.csv)
    assert first == checks.payload_stats(tmp_path / "bb" / case.csv)
    assert first["rows"] == case.work


# ------------------------------------------------------------ pass accounting

def test_a_failing_check_fails_every_pass(tmp_path):
    case = small_closed()
    case = workloads.Case(case.argv, case.csv, case.work, case.work_unit,
                          lambda path: ["broken"])
    runner = run.Runner(case, tmp_path)
    runner.run(0, 2)
    assert [bool(p["problems"]) for p in runner.passes] == [True, True]


def test_a_cli_error_fails_the_pass(tmp_path):
    case = small_closed()
    bad = case.argv[:-1] + ("99",)  # nu outside 0..MN-1
    runner = run.Runner(workloads.Case(bad, case.csv, 1, "rows", case.check), tmp_path)
    runner.run(0, 1)
    assert runner.passes[0]["problems"] == ["cli.main returned 2"]


def test_a_flipped_digit_in_one_pass_fails_that_pass(tmp_path, monkeypatch):
    original = cli.write_csv
    calls = []

    def corrupt_second(path, *args):
        original(path, *args)
        calls.append(path)
        if len(calls) == 2:
            _edit_row(path, 7, 3, _flip_digit)

    monkeypatch.setattr(cli, "write_csv", corrupt_second)
    runner = run.Runner(small_closed(), tmp_path)
    runner.run(0, 3)
    problems = [p["problems"] for p in runner.passes]
    assert problems[0] == [] and problems[2] == []
    assert "payload differs from the first pass" in problems[1]
    assert len(problems[1]) > 1  # the row check fails as well


# ------------------------------------------------------------ tracer

def test_tracer_counts_repeat_and_restore_originals(tmp_path):
    original = spectra.autocorr
    tr = tracer.Tracer()
    tr.install()
    try:
        assert spectra.autocorr is not original
        for run_id in range(2):
            tr.run = run_id
            small_certify(tmp_path / str(run_id))
    finally:
        tr.remove()
    assert spectra.autocorr is original
    assert not hasattr(metrics.verify_cds, "__wrapped__")
    profiles = [tracer.profile([s for s in tr.spans if s["run"] == i]) for i in range(2)]
    assert tracer.exact_counts(profiles[0]) == tracer.exact_counts(profiles[1])
    names = [m["name"] for m in SPEC["per_layer"] if m["name"] != "trace.overhead_s"]
    values = {name: tracer.layer_value(profiles, name) for name in names}
    assert values["metrics.autocorr_per_report"] == 6
    assert values["metrics.metrics_report.calls"] == 3
    assert values["spectra.cross_term_matrix.bytes_computed"] == 24 * (31 ** 2 * 2 + 30 ** 2)
    assert values["cli.write_csv.rows"] == 3
    assert values["masks.verify_cds.self_s"] > 0


def test_tracer_counts_monte_carlo_work(tmp_path):
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.run = 0
        small_mc(tmp_path)
    finally:
        tr.remove()
    profiles = [tracer.profile(tr.spans)]
    assert tracer.layer_value(profiles, "montecarlo.estimate.calls") == 18
    assert tracer.layer_value(profiles, "montecarlo.estimate.point_trials") == 18 * 200
    assert tracer.layer_value(profiles, "montecarlo.estimate.symbols_drawn") == 18 * 200 * (4 * 7 + 6)
    assert tracer.layer_value(profiles, "montecarlo.estimate.us_per_point_trial") > 0


# ------------------------------------------------------------ speed scale

def test_speed_scale_uses_the_references_on_either_side(monkeypatch):
    refs = iter([1.0, 2 * speed.REF_S, 4 * speed.REF_S, speed.REF_S])
    monkeypatch.setattr(speed, "reference_time", lambda: next(refs))
    scale = speed.SpeedScale()  # warm-up, then 2 * REF_S
    assert scale.after(3.0) == pytest.approx(1.0)  # mean of 2 and 4 REF_S
    assert scale.after(5.0) == pytest.approx(2.0)  # mean of 4 and 1 REF_S
    assert scale.refs == [2 * speed.REF_S, 4 * speed.REF_S, speed.REF_S]


# ------------------------------------------------------------ definition

def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        if w["name"].startswith("mc_"):
            assert f"|z| < {workloads.Z_MAX:g}" in w["why"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_cases_are_deterministic_in_the_seed(name):
    first = workloads.WORKLOADS[name](3)
    assert first.argv == workloads.WORKLOADS[name](3).argv
    assert first.work > 0
    assert cli.build_parser().parse_args(list(first.argv))


def test_closed_grid_export_size():
    assert workloads.closed_grid_export(0).work == 8 * 254 * 101


def test_run_fails_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "mc_sweep", "--seed", "1", "--seconds", "1"])
    assert code != 0 and capsys.readouterr().out == ""
