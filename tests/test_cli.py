import csv
import hashlib
import itertools
import os
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest

from maskrd import __version__, cli, masks, montecarlo, response, spectra
from conftest import qr_mask, random_mask_suite


def run_cli(argv):
    return cli.main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def index_values(text):
    return tuple(itertools.chain.from_iterable(cli.parse_index_set(text)))


def test_parse_index_set():
    assert index_values("1..5") == (1, 2, 3, 4, 5)
    assert index_values("0,5,7") == (0, 5, 7)
    assert index_values("0..10:5") == (0, 5, 10)
    assert index_values("1..3, 9") == (1, 2, 3, 9)
    # one range per entry, none expanded
    assert cli.parse_index_set("0..10:5, 7") == (range(0, 11, 5), range(7, 8))
    with pytest.raises(ValueError):
        cli.parse_index_set("")
    with pytest.raises(ValueError):
        cli.parse_index_set("5..1")
    with pytest.raises(ValueError):
        cli.parse_index_set("1..9:0")
    with pytest.raises(ValueError):
        cli.parse_index_set("a..b")
    # a stride needs a range, and an entry is never empty
    for text, entry in (("5:2", "5:2"), ("1..3,,4", ""), ("1..3:", "1..3:"),
                        ("1..2..3", "1..2..3"), ("1..3:2:5", "1..3:2:5"), ("4,", "")):
        with pytest.raises(ValueError, match=f"^index-set entry {entry!r} of "):
            cli.parse_index_set(text)


def test_mask_gen_stdout(capsys):
    assert run_cli(["mask", "gen", "singer:m=3"]) == 0
    assert capsys.readouterr().out.strip() == "0110100"


def test_mask_gen_writes_loadable_file(tmp_path):
    out = str(tmp_path)
    assert run_cli(["mask", "gen", "singer:m=6", "--out", out]) == 0
    path = tmp_path / "singer_m_6.mask"
    loaded = masks.load_mask(path)
    assert loaded == masks.singer_mask(6)
    head = read(path).decode().splitlines()[0]
    assert head.startswith("# tool: maskrd")


def test_mask_verify_output(capsys):
    assert run_cli(["mask", "verify", "comb:N=63,d=3"]) == 0
    out = capsys.readouterr().out
    assert "is_cds: 0" in out
    assert "structure: comb (d=3)" in out
    assert "k,a" in out
    assert "\n3,21\n" in out
    assert run_cli(["mask", "verify", "singer:m=4"]) == 0
    assert "structure: cyclic difference set" in capsys.readouterr().out


def verify_structure(capsys, spec):
    assert run_cli(["mask", "verify", spec]) == 0
    return re.search(r"^structure: (.*)$", capsys.readouterr().out, re.M).group(1)


def test_mask_verify_names_a_comb_from_its_autocorrelation(tmp_path, capsys):
    for name, bits in (("shifted", masks.cyclic_shift(masks.comb_mask(63, 3), 17).bits),
                       ("pair", (1, 1, 0, 0, 0, 0)), ("pulse", (0, 1, 0, 0))):
        masks.save_mask(masks.custom_mask(bits), tmp_path / f"{name}.mask")
    assert verify_structure(capsys, "comb:N=63,d=3") == "comb (d=3)"
    assert verify_structure(capsys, str(tmp_path / "shifted.mask")) == "comb (d=3)"
    assert verify_structure(capsys, "singer:m=3") == "cyclic difference set"
    assert verify_structure(capsys, str(tmp_path / "pair.mask")) == "irregular"
    # a lone pulse is a comb of spacing N, and a CDS with lambda = 0 too
    assert verify_structure(capsys, str(tmp_path / "pulse.mask")) == "comb (d=4)"
    for m in random_mask_suite(20, seed=77):
        d = m.n // m.weight
        comb = m.n % m.weight == 0 and m == masks.cyclic_shift(
            masks.comb_mask(m.n, d), m.support[0])
        assert (verify_structure(capsys, m.label) == f"comb (d={d})") == comb, m.label


def test_mask_show_output(capsys):
    assert run_cli(["mask", "show", "random:N=12,w=5,seed=3"]) == 0
    assert capsys.readouterr().out == (
        "010110100100\n"
        "label: random:N=12,w=5,seed=3\n"
        "N: 12\nweight: 5\nrho: 5/12\nis_cds: 0\nlambda: \n")


RESPONSE = ["--mask", "singer:m=3", "--M", "2", "--k", "1", "--nu", "0"]
DESIGN_POINT = ["response", "both", "--mask", "singer:m=6", "--M", "50", "--constellation", "qam16"]
PERIOD_BOUND = "period must be at most 2^20 - 1 = 1048575, that of singer:m=20, got N="


def refusal(row_id, argv, error, budget=None, inputs=None):
    """A row of the exit-2 table: $MASKRD_MC_BUDGET is budget (None: unset), and
    each input file {name: text} is written to ../in/name, outside the working
    directory."""
    return pytest.param(argv, error, budget, inputs or {}, id=row_id)


def line_break_in(word):
    return f"a line break in {shlex.quote(word)!r} cannot go on the one-line '# config:' header"


def over_budget(cost, budget=montecarlo.DEFAULT_BUDGET):
    return f"points x trials x MN = {cost} exceeds the budget {budget}"


def line_break_rows():
    # shlex cannot keep a line break on the one '# config:' line: an action
    # that writes a file refuses one in a mask path or in the --out directory
    for brk_id, brk in (("lf", "\n"), ("cr", "\r")):
        mask, out = f"../in/nl{brk}x.mask", f"o{brk}ut"
        for action, argv in (
                ("bounds", ["bounds", "--mask", mask, "--mu4", "1.0"]),
                ("metrics", ["metrics", "--mask", mask, "--M", "2", "--mu4", "1.0"]),
                ("closed", ["response", "closed", "--mask", mask, "--M", "2", "--mu4", "1.0",
                            "--k", "1", "--nu", "0"]),
                ("verify", ["mask", "verify", mask])):
            yield refusal(f"{brk_id}_in_{action}_mask_path", [*argv, "--out", "out"],
                          line_break_in(mask), inputs={f"nl{brk}x.mask": "1101000\n"})
        for action, argv in (
                ("bounds", ["bounds", "--mask", "singer:m=3", "--mu4", "1.0"]),
                ("compare", ["compare", "--mask", "singer:m=3", "--mask", "comb:N=6,d=3",
                             "--M", "2", "--mu4", "1.0"]),
                ("both", ["response", "both", *RESPONSE, "--constellation", "qpsk",
                          "--trials", "10"]),
                ("gen", ["mask", "gen", "singer:m=3"])):
            yield refusal(f"{brk_id}_in_{action}_out", [*argv, "--out", out], line_break_in(out))


# (id, --k, --l, --nu, error) on singer:m=3 at M = 4: delays 1..6, Doppler bins 0..27
OFF_AXIS = [
    ("k0", "0", "2", "0", "k=0 is the blind range"),
    ("lN", "1", "7", "0", "l must be in 1..6, got 7"),
    ("nuMN", "1", "2", "0..3,28", "nu must be in 0..27, got 28"),
    ("k_and_nu", "1,9", "2", "0,99", "k must be in 1..6, got 9"),
]

# Every input the CLI refuses with exit 2 and an error line, before any work.
REFUSALS = [
    # mask arguments and family specs
    refusal("neither_spec_nor_file", ["mask", "verify", "nope.mask"],
            "mask argument 'nope.mask' is neither a family spec nor an existing file"),
    # a directory is no mask file: exit 2, not an I/O error on reading it
    refusal("show_directory", ["mask", "show", "."],
            "mask argument '.' is neither a family spec nor an existing file"),
    refusal("bounds_directory", ["bounds", "--mask", ".", "--mu4", "1"],
            "mask argument '.' is neither a family spec nor an existing file"),
    refusal("verify_corrupted_file", ["mask", "verify", "../in/bad.mask"],
            "illegal character 'a' in mask text", inputs={"bad.mask": "10a100\n"}),
    refusal("spec_without_value", ["mask", "verify", "singer:m"], "malformed mask spec 'singer:m'"),
    refusal("spec_non_integer", ["mask", "show", "comb:N=6,d=x"],
            "non-integer value 'x' in mask spec 'comb:N=6,d=x'"),
    refusal("spec_repeated_key", ["mask", "gen", "singer:m=3,m=4"],
            "mask spec 'singer:m=3,m=4' repeats key 'm'"),
    refusal("gen_unknown_family", ["mask", "gen", "nonsense"],
            "unknown mask family in spec 'nonsense'"),
    refusal("gen_comb_spacing_not_a_divisor", ["mask", "gen", "comb:N=63,d=4"],
            "comb spacing 4 does not divide the period 63"),
    # past the longest Singer period (singer:m=20) or the 128-bit Philox key
    refusal("gen_comb_2^20", ["mask", "gen", "comb:N=1048576,d=2"], PERIOD_BOUND + "1048576"),
    refusal("gen_comb_1e10", ["mask", "gen", "comb:N=10000000000,d=2"],
            PERIOD_BOUND + "10000000000"),
    refusal("gen_random_1e10", ["mask", "gen", "random:N=10000000000,w=5,seed=1"],
            PERIOD_BOUND + "10000000000"),
    refusal("gen_seed_-1", ["mask", "gen", "random:N=63,w=31,seed=-1"],
            "random mask seed must be in 0..2^128 - 1, got seed=-1"),
    refusal("gen_seed_2^128", ["mask", "gen", f"random:N=63,w=31,seed={2 ** 128}"],
            f"random mask seed must be in 0..2^128 - 1, got seed={2 ** 128}"),
    # index sets, checked on their ends: no entry is expanded
    refusal("stride_without_range", ["response", "closed", *RESPONSE, "--mu4", "1.0",
                                     "--k", "1:3", "--out", "out"],
            "index-set entry '1:3' of '1:3' is not 'a', 'a..b' or 'a..b:s'"),
    refusal("empty_entry", ["response", "closed", *RESPONSE, "--mu4", "1.0",
                            "--nu", "1..3,,4", "--out", "out"],
            "index-set entry '' of '1..3,,4' is not 'a', 'a..b' or 'a..b:s'"),
    # an empty --l is an empty index set, not "same as --k"
    refusal("empty_l", ["response", "closed", *RESPONSE, "--mu4", "1.0",
                        "--k", "1,2", "--l", "", "--out", "out"], "empty index set"),
    refusal("closed_blind_range", ["response", "closed", "--mask", "singer:m=3", "--M", "2",
                                   "--mu4", "1.0", "--k", "0..2", "--nu", "0", "--out", "out"],
            "k=0 is the blind range"),
    *(refusal(f"{mode}_index_{row_id}",
              ["response", mode, "--mask", "singer:m=3", "--M", "4", "--constellation", "qam16",
               "--k", k, "--l", l, "--nu", nu, *trials, "--out", "out"], error)
      for mode, trials in (("closed", []), ("both", ["--trials", "20"]))
      for row_id, k, l, nu, error in OFF_AXIS),
    # 3e6 + 1 Doppler bins, of which 14 are on the axis
    *(refusal(f"{mode}_nu_range_off_axis", ["response", mode, *RESPONSE[:-2], *mu4,
                                            "--nu", "0..3000000", "--out", "out"],
              "nu must be in 0..13, got 3000000")
      for mode, *mu4 in (("closed", "--mu4", "1"), ("both", "--constellation", "qam16"))),
    # M past int64, where numpy cannot take it
    refusal("closed_M_past_int64", ["response", "closed", "--mask", "singer:m=3", "--M",
                                    str(2 ** 63), "--mu4", "1.0", "--k", "1", "--nu", "0",
                                    "--out", "out"],
            f"M must be below 2**63, got {2 ** 63}"),
    refusal("metrics_M_past_int64", ["metrics", "--mask", "singer:m=3", "--mu4", "1.0",
                                     "--M", str(2 ** 63), "--out", "out"],
            f"M must be below 2**63, got {2 ** 63}"),
    refusal("compare_M_past_int64", ["compare", "--mask", "singer:m=3", "--mask", "singer:m=4",
                                     "--mu4", "1.0", "--M", str(2 ** 64), "--out", "out"],
            f"M must be below 2**63, got {2 ** 64}"),
    *(refusal(f"mu4_{row_id}", [*argv, "--out", "out"],
              f"mu4 must be a finite number >= 1 for unit-energy symbols, got {value}")
      for row_id, value, argv in (
          ("closed_nan", "nan", ["response", "closed", *RESPONSE, "--mu4", "nan"]),
          ("closed_inf", "inf", ["response", "closed", *RESPONSE, "--mu4", "inf"]),
          ("bounds_nan", "nan", ["bounds", "--mask", "singer:m=3", "--mu4", "nan"]),
          ("metrics_inf", "inf", ["metrics", "--mask", "singer:m=3", "--M", "2",
                                  "--mu4", "inf"]))),
    refusal("compare_one_mask", ["compare", "--mask", "singer:m=3", "--M", "1", "--mu4", "1.0",
                                 "--out", "out"], "compare needs at least two --mask arguments"),
    *line_break_rows(),
    # Monte Carlo runs: trials, seed and budget, before any closed form
    *(refusal(f"both_trials_{trials}", [*DESIGN_POINT, "--k", "1..62", "--nu", "0..199",
                                        "--trials", trials, "--out", "out"],
              f"need at least 2 trials, got {trials}") for trials in ("0", "1")),
    refusal("mc_negative_seed", ["response", "both", *RESPONSE, "--constellation", "qam16",
                                 "--seed", "-3"], "seed must be non-negative"),
    refusal("both_seed_negative", [*DESIGN_POINT, "--k", "1..62", "--nu", "0..19",
                                   "--trials", "2", "--seed", "-1", "--out", "out"],
            "seed must be non-negative"),
    refusal("both_seed_beyond_philox_key", [*DESIGN_POINT, "--k", "1..62", "--nu", "0..19",
                                            "--trials", "2", "--seed", str(2 ** 128),
                                            "--out", "out"], "seed must be below 2**128"),
    # 62 x 62 x 200 = 768800 points at the design point
    refusal("both_over_budget_design_grid", [*DESIGN_POINT, "--k", "1..62", "--l", "1..62",
                                             "--nu", "0..199", "--out", "out"],
            over_budget(24217200000000)),
    # 5e6 Doppler bins, all on the axis of MN = 7e6: counted, never listed
    refusal("both_over_budget_nu_axis", ["response", "both", "--mask", "singer:m=3",
                                         "--M", "1000000", "--constellation", "qpsk",
                                         "--k", "1", "--nu", "0..4999999", "--trials", "100",
                                         "--out", "out"], over_budget(3500000000000000)),
    # one point at MN = 14: one trial more than the default budget allows
    *(refusal(f"both_over_default_budget_{state}",
              ["response", "both", *RESPONSE, "--constellation", "qpsk", "--trials",
               str(montecarlo.DEFAULT_BUDGET // 14 + 1), "--out", "out"],
              over_budget((montecarlo.DEFAULT_BUDGET // 14 + 1) * 14), budget=budget)
      for state, budget in (("unset", None), ("empty", ""))),
    refusal("budget_10_both", ["response", "both", *RESPONSE, "--constellation", "qam16",
                               "--trials", "500", "--out", "out"], over_budget(7000, 10),
            budget="10"),
    refusal("budget_abc_both", ["response", "both", *RESPONSE, "--constellation", "qam16",
                                "--trials", "10", "--out", "out"],
            "MASKRD_MC_BUDGET must be an integer, got 'abc'", budget="abc"),
    # selftest refuses its oracle item's run before any item
    *(refusal(f"selftest_trials_{trials}", ["selftest", "--trials", trials],
              f"need at least 2 trials, got {trials}") for trials in ("0", "1")),
    # the same message as response both, not numpy's Philox key error
    refusal("selftest_seed_negative", ["selftest", "--seed", "-1"], "seed must be non-negative"),
    refusal("selftest_seed_beyond_key", ["selftest", "--seed", str(2 ** 128)],
            "seed must be below 2**128"),
    # 6 points x 1e8 trials x MN = 28
    refusal("selftest_over_budget", ["selftest", "--trials", "100000000"],
            over_budget(16800000000)),
    refusal("budget_10_selftest", ["selftest", "--trials", "200"], over_budget(33600, 10),
            budget="10"),
    refusal("budget_abc_selftest", ["selftest", "--trials", "200"],
            "MASKRD_MC_BUDGET must be an integer, got 'abc'", budget="abc"),
]

# What no refused run may start: the a[k] and R kernels, a closed-form grid,
# a Monte Carlo estimate and a selftest item.
WORK = ((spectra, "autocorr"), (spectra, "cross_term_row"), (response, "build_grid"),
        (montecarlo, "estimate"))


@pytest.mark.parametrize("argv, error, budget, inputs", REFUSALS)
def test_refused_input_exits_2_with_its_error_line(tmp_path, monkeypatch, capsys,
                                                   argv, error, budget, inputs):
    # each row is refused with its one error line, before any work or file
    # and in bounded memory
    (tmp_path / "in").mkdir()
    for name, text in inputs.items():
        (tmp_path / "in" / name).write_text(text)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    if budget is None:
        monkeypatch.delenv(montecarlo.BUDGET_ENV, raising=False)
    else:
        monkeypatch.setenv(montecarlo.BUDGET_ENV, budget)
    called = []
    for module, name in WORK:
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: called.append(name))
    real_items = cli._selftest_items
    monkeypatch.setattr(cli, "_selftest_items", lambda *args: [
        (name, lambda name=name: called.append(name)) for name, _ in real_items(*args)])
    tracemalloc.start()
    try:
        code = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert os.listdir(cwd) == []
    assert called == []
    assert peak < 2 ** 20


# Each action's sub-parser declares only the options the action reads, that
# exactly one of --mu4 and --constellation gives mu4, and that --constellation
# is a name of the built-in table: any other use is an argparse error with the
# action's own usage, raised before anything is read or written.
@pytest.mark.parametrize("argv, flag", [
    (["mask", "show", "singer:m=3", "--out", "out"], "--out"),
    (["response", "closed", *RESPONSE, "--mu4", "1.0", "--trials", "5"], "--trials"),
    (["response", "closed", *RESPONSE, "--mu4", "1.0", "--seed", "9"], "--seed"),
    (["response", "closed", *RESPONSE, "--mu4", "1.0", "--budget", "1"], "--budget"),
    (["response", "both", *RESPONSE, "--constellation", "qam16", "--mu4", "1.3"], "--mu4"),
    (["response", "both", *RESPONSE, "--constellation", "qam16", "--budget", "5"], "--budget"),
    (["response", "both", *RESPONSE], "--constellation"),
    (["response", "closed", *RESPONSE], "--mu4"),
    (["response", "closed", *RESPONSE, "--constellation", "qam16", "--mu4", "1.3"], "--mu4"),
    (["metrics", "--mask", "singer:m=3", "--M", "2", "--constellation", "qam16",
      "--mu4", "1.0"], "--mu4"),
    (["bounds", "--mask", "singer:m=3", "--mu4", "1.0", "--constellation", "qpsk"], "--mu4"),
    (["compare", "--mask", "singer:m=3", "--mask", "comb:N=6,d=3", "--M", "2"], "--mu4"),
    (["bounds", "--mask", "singer:m=3"], "--mu4"),
    (["bounds", "--mask", "singer:m=3", "--constellation", "psk8"], "--constellation"),
], ids=["show_out", "closed_trials", "closed_seed", "closed_budget", "both_mu4",
        "both_budget", "mc_no_constellation", "closed_no_mu4", "closed_mu4", "metrics_mu4",
        "bounds_mu4", "compare_no_mu4", "bounds_no_mu4", "bounds_psk8"])
def test_an_option_the_action_does_not_read_is_refused(tmp_path, monkeypatch, capsys,
                                                       argv, flag):
    monkeypatch.chdir(tmp_path)
    words = argv[:2] if argv[0] in ("mask", "response") else argv[:1]
    if argv[0] == "response":
        argv = [*argv, "--out", "out"]
    assert run_cli(argv) == cli.EXIT_CONFIG
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith(f"usage: maskrd {' '.join(words)} ")
    assert any(line.startswith("maskrd") and "error: " in line and flag in line
               for line in stderr.splitlines())
    assert os.listdir(tmp_path) == []


def test_response_mc_is_refused(tmp_path, monkeypatch, capsys):
    # response both writes every number response mc wrote
    monkeypatch.chdir(tmp_path)
    assert run_cli(["response", "mc", *RESPONSE, "--constellation", "qam16",
                    "--out", "out"]) == cli.EXIT_CONFIG
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("usage: maskrd response ")
    assert "error: argument mode: invalid choice: 'mc'" in stderr.splitlines()[-1]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, usage", [
    (["--bogus", "mask", "gen", "singer:m=3"], "usage: maskrd [-h] "),
    (["mask", "gen", "singer:m=3", "--bogus"], "usage: maskrd mask gen "),
    (["--bogus", "mask", "gen", "singer:m=3", "--other"], "usage: maskrd [-h] "),
], ids=["before_command", "after_action", "before_and_after"])
def test_an_unread_word_is_reported_under_the_usage_where_it_was_given(capsys, argv, usage):
    assert run_cli(argv) == cli.EXIT_CONFIG
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith(usage)
    unread = " ".join(w for w in argv if w.startswith("--"))
    assert stderr.splitlines()[-1].endswith(f"error: unrecognized arguments: {unread}")


def test_mask_show_and_verify_compute_the_autocorrelation_once(tmp_path, monkeypatch, capsys):
    argvs = (["mask", "show", "singer:m=10"], ["mask", "verify", "singer:m=10"],
             ["mask", "verify", "singer:m=10", "--out", str(tmp_path)])
    expected = []
    for argv in argvs:
        assert run_cli(argv) == 0
        expected.append(capsys.readouterr().out)
    table = read(tmp_path / "singer_m_10_autocorr.csv")
    calls = []
    real = spectra.autocorr

    def counting(mask):
        calls.append(mask.label)
        return real(mask)

    monkeypatch.setattr(spectra, "autocorr", counting)
    for argv, out in zip(argvs, expected):
        calls.clear()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == out
        assert len(calls) == 1, argv
    assert read(tmp_path / "singer_m_10_autocorr.csv") == table


def test_mask_verify_table_export(tmp_path):
    out = str(tmp_path)
    assert run_cli(["mask", "verify", "singer:m=3", "--out", out]) == 0
    a_lines = read(os.path.join(out, "singer_m_3_autocorr.csv")).decode().splitlines()
    assert a_lines[3] == "k,a"
    assert a_lines[4] == "0,3"
    assert a_lines[5:] == [f"{k},1" for k in range(1, 7)]
    assert os.listdir(out) == ["singer_m_3_autocorr.csv"]


def test_mask_verify_prints_the_table_it_writes(tmp_path, capsys):
    # N = 8191 rows: two blocks of cli.BLOCK_ROWS and part of a third
    out = tmp_path / "out"
    assert run_cli(["mask", "verify", "singer:m=13", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    table = stdout[stdout.index("k,a\n"):stdout.index("wrote ")].encode()
    assert table == read(out / "singer_m_13_autocorr.csv").split(b"\n", 3)[3]
    a = spectra.autocorr(masks.singer_mask(13)).tolist()
    assert table == ("k,a\n" + "".join(f"{k},{v}\n" for k, v in enumerate(a))).encode()


def test_mask_verify_out_past_the_matrix_limit(tmp_path, capsys):
    # N = 16383 is above spectra.MAX_MATRIX_N, which only an N x N R needs
    out = tmp_path / "out"
    assert run_cli(["mask", "verify", "singer:m=14", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert os.listdir(out) == ["singer_m_14_autocorr.csv"]
    assert len(read(out / "singer_m_14_autocorr.csv").splitlines()) == 4 + 16383


def test_response_closed_csv_and_rerun_bytes(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    argv = ["response", "closed", "--mask", "singer:m=6", "--M", "50",
            "--mu4", "1.32", "--k", "20", "--l", "18..22", "--nu", "0..3"]
    assert run_cli(argv + ["--out", out1]) == 0
    first = read(os.path.join(out1, "response_closed.csv"))
    # identical config: the whole file comes back byte for byte
    assert run_cli(argv + ["--out", out1]) == 0
    assert read(os.path.join(out1, "response_closed.csv")) == first
    # only --out differs: numeric payload still byte-identical
    assert run_cli(argv + ["--out", out2]) == 0
    second = read(os.path.join(out2, "response_closed.csv"))
    assert first.splitlines()[3:] == second.splitlines()[3:]
    text = first.decode()
    assert text.startswith("# tool: maskrd")
    lines = text.splitlines()
    assert lines[3] == "k,l,nu,value"
    assert len(lines) == 4 + 5 * 4
    assert "6.40256000000e+05" in text


def test_response_both_deterministic_and_schema(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    argv = ["response", "both", "--mask", "singer:m=3", "--M", "2",
            "--constellation", "qam16", "--k", "1,2", "--nu", "0,1",
            "--trials", "120", "--seed", "9"]
    assert run_cli(argv + ["--out", out1]) == 0
    a = read(os.path.join(out1, "response_both.csv"))
    assert run_cli(argv + ["--out", out1]) == 0
    assert read(os.path.join(out1, "response_both.csv")) == a
    assert run_cli(argv + ["--out", out2]) == 0
    b = read(os.path.join(out2, "response_both.csv"))
    assert a.splitlines()[3:] == b.splitlines()[3:]
    assert a.decode().splitlines()[3] == "k,l,nu,mc_mean,mc_se,trials,closed_form,z"


def test_response_both_z_column(tmp_path):
    out = str(tmp_path)
    argv = ["response", "both", "--mask", "singer:m=3", "--M", "2",
            "--constellation", "qpsk", "--k", "1", "--nu", "0,1",
            "--trials", "80", "--seed", "3", "--out", out]
    assert run_cli(argv) == 0
    lines = read(os.path.join(out, "response_both.csv")).decode().splitlines()
    assert lines[3] == "k,l,nu,mc_mean,mc_se,trials,closed_form,z"
    # qpsk points are deterministic: z exactly zero
    for row in lines[4:]:
        assert row.endswith("0.00000000000e+00")


def test_metrics_and_compare_csv(tmp_path):
    out = str(tmp_path)
    assert run_cli(["metrics", "--mask", "singer:m=5", "--M", "4",
                    "--constellation", "qam16", "--out", out]) == 0
    lines = read(os.path.join(out, "metrics.csv")).decode().splitlines()
    assert lines[3].startswith("mask_id,N,w,rho,is_cds,lambda")
    assert lines[4].startswith("singer:m=5,31,15,15/31,1,7")

    assert run_cli(["compare", "--mask", "singer:m=6",
                    "--mask", "random:N=63,w=31,seed=7",
                    "--mask", "comb:N=63,d=3",
                    "--M", "50", "--constellation", "qam16",
                    "--out", out]) == 0
    lines = read(os.path.join(out, "compare.csv")).decode().splitlines()
    assert len(lines) == 4 + 3
    rows = list(csv.reader(lines[4:]))  # labels with commas are quoted
    assert [r[0] for r in rows] == [
        "singer:m=6", "random:N=63,w=31,seed=7", "comb:N=63,d=3"]
    assert [r[4] for r in rows] == ["1", "0", "0"]  # CDS flag column
    assert [r[5] for r in rows] == ["15", "", ""]  # no lambda but for the CDS


def test_non_ascii_paths(tmp_path, capsys):
    # the paths land in the files' "# config:" lines, which are UTF-8
    mask_dir = tmp_path / "maskś"
    assert run_cli(["mask", "gen", "random:N=40,w=13,seed=9", "--out", str(mask_dir)]) == 0
    mask_path = mask_dir / "random_N_40_w_13_seed_9.mask"
    assert masks.load_mask(mask_path).bits == masks.random_mask(40, 13, 9).bits
    os.rename(mask_path, tmp_path / "ü.mask")
    argv = ["response", "closed", "--M", "3", "--mu4", "1.32", "--k", "1..39:5",
            "--nu", "0..5"]
    out = tmp_path / "outü"
    assert run_cli(argv + ["--mask", str(tmp_path / "ü.mask"), "--out", str(out)]) == 0
    assert run_cli(argv + ["--mask", "random:N=40,w=13,seed=9",
                           "--out", str(tmp_path / "ref")]) == 0
    got = read(out / "response_closed.csv").decode("utf-8").splitlines()
    assert str(tmp_path / "ü.mask") in got[1]
    assert got[3:] == read(tmp_path / "ref" / "response_closed.csv").decode().splitlines()[3:]
    assert len(got) == 4 + 8 * 8 * 6
    assert run_cli(["mask", "verify", str(tmp_path / "ü.mask"), "--out", str(out)]) == 0
    slug = cli._slug(str(tmp_path / "ü.mask"))
    assert len(read(out / f"{slug}_autocorr.csv").splitlines()) == 4 + 40


def test_mask_verify_long_input_path(tmp_path):
    # a file mask is labelled with its path, and its slug names the outputs:
    # four 60-character directories would push a name past NAME_MAX = 255
    mask_dir = tmp_path.joinpath(*(str(i) * 60 for i in range(4)))
    assert run_cli(["mask", "gen", "singer:m=3", "--out", str(mask_dir)]) == 0
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert run_cli(["mask", "verify", str(mask_dir / "singer_m_3.mask"), "--out", str(out)]) == 0
    assert run_cli(["mask", "verify", "singer:m=3", "--out", str(ref)]) == 0
    (name,), (ref_name,) = os.listdir(out), os.listdir(ref)
    assert name.endswith("_autocorr.csv") and len(name) <= 255
    assert payload_sha256(out / name) == payload_sha256(ref / ref_name)


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["lf", "cr"])
def test_line_break_in_a_mask_path_is_kept_where_no_file_is_written(tmp_path, capsys, brk):
    # no '# config:' line is built, so nothing needs to fit on one
    mask = tmp_path / f"nl{brk}x.mask"
    mask.write_text("1101000\n")
    for argv in (["mask", "show", str(mask)],
                 ["mask", "verify", str(mask)],
                 ["mask", "gen", f"singer:m=3{brk}"],
                 ["bounds", "--mask", str(mask), "--mu4", "1.0"]):
        assert run_cli(argv) == 0, argv
        assert capsys.readouterr().err == ""
    assert os.listdir(tmp_path) == [mask.name]


@pytest.mark.parametrize("name", ["a  b.mask", "a\tb.mask"], ids=["two_spaces", "tab"])
def test_config_header_keeps_whitespace_in_a_mask_path(tmp_path, name):
    mask = tmp_path / name
    mask.write_text("1101000\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(["mask", "verify", str(mask), "--out", str(out1)]) == 0
    names = sorted(os.listdir(out1))
    config_line = read(out1 / names[0]).decode().splitlines()[1]
    tokens = shlex.split(config_line[len("# config: "):])
    assert tokens[2] == str(mask)
    tokens[tokens.index("--out") + 1] = str(out2)
    assert run_cli(tokens) == 0
    assert sorted(os.listdir(out2)) == names
    for n in names:
        assert read(out2 / n) == read(out1 / n).replace(
            shlex.quote(str(out1)).encode(), shlex.quote(str(out2)).encode())


def _dir_of_length(base, length):
    """A path under base of exactly length characters, no component over NAME_MAX."""
    path = str(base)
    while length - len(path) > 256:
        path += "/" + "d" * 200
    return path + "/" + "e" * (length - len(path) - 1)


@pytest.mark.parametrize("argv, name", [
    (["bounds", "--mask", "singer:m=3", "--mu4", "1.0"], "bounds.csv"),
    (["metrics", "--mask", "singer:m=3", "--M", "2", "--mu4", "1.0"], "metrics.csv"),
    (["response", "closed", "--mask", "singer:m=3", "--M", "2", "--mu4", "1.0",
      "--k", "1", "--nu", "0"], "response_closed.csv"),
    (["mask", "gen", "singer:m=3"], "singer_m_3.mask"),
    (["mask", "verify", "singer:m=3"], "singer_m_3_autocorr.csv"),
], ids=["bounds", "metrics", "closed", "gen", "verify"])
def test_out_path_past_path_max_leaves_no_directory(tmp_path, capsys, argv, name):
    path_max = os.pathconf(tmp_path, "PC_PATH_MAX")
    existing = tmp_path / "existing"
    existing.mkdir()
    # the directory fits; the file's path has PATH_MAX characters, one too many
    out = _dir_of_length(existing, path_max - 1 - len(name))
    assert len(out + "/" + name) == path_max
    assert run_cli(argv + ["--out", out]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("I/O error:")
    assert os.listdir(existing) == []


def test_the_longest_comb_and_the_extreme_seeds_are_built():
    assert masks.comb_mask(2 ** 20 - 1, 3).n == 2 ** 20 - 1
    for seed in (0, 2 ** 128 - 1):
        assert masks.random_mask(63, 31, seed).weight == 31


def test_bounds_output(tmp_path, capsys):
    assert run_cli(["bounds", "--mask", "singer:m=5", "--mu4", "1.32"]) == 0
    out = capsys.readouterr().out
    assert "attains_upper: 1" in out
    assert "attains_lower: 0" in out
    assert run_cli(["bounds", "--mask", "comb:N=63,d=3", "--mu4", "1.0",
                    "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "attains_lower: 1" in out
    lines = read(os.path.join(str(tmp_path), "bounds.csv")).decode().splitlines()
    assert lines[3] == "mask_id,I,I_lower,I_upper,attains_upper,attains_lower"
    # the QR mask at p = 40009 (1 mod 4) is no CDS: its sum is below I_upper
    # by a relative 8.3e-10, which a float test at rtol 1e-9 took for equality
    path = tmp_path / "qr40009.mask"
    masks.save_mask(qr_mask(40009), path)
    assert run_cli(["bounds", "--mask", str(path), "--mu4", "1.0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["attains_upper: 0", "attains_lower: 0"]


@pytest.mark.parametrize("spec, mu", [
    ("singer:m=5", ["--mu4", "1.32"]),
    ("comb:N=63,d=3", ["--mu4", "1.32"]),
    ("random:N=40,w=13,seed=9", ["--mu4", "1.32"]),
    ("singer:m=3", ["--constellation", "qam64"]),
], ids=["singer:m=5", "comb:N=63,d=3", "random:N=40,w=13,seed=9", "singer:m=3,qam64"])
def test_bounds_prints_the_row_it_writes(tmp_path, capsys, spec, mu):
    assert run_cli(["bounds", "--mask", spec, *mu, "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    header, row = csv.reader(read(tmp_path / "bounds.csv").decode().splitlines()[3:])
    assert printed[:-1] == [f"mask: {spec}"] + [
        f"{name}: {cell}" for name, cell in zip(header[1:], row[1:])]
    assert row[0] == spec and printed[-1] == f"wrote {tmp_path / 'bounds.csv'}"


def test_selftest_within_the_budget_of_its_oracle_item_runs_every_item(monkeypatch, capsys):
    # 6 points x 2 trials x MN = 28: the determinism item's estimates fit too
    monkeypatch.setenv(montecarlo.BUDGET_ENV, "336")
    run_cli(["selftest", "--trials", "2"])
    out, err = capsys.readouterr()
    assert err == ""
    assert "PASS determinism" in out


def test_selftest_over_its_time_budget_fails(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_selftest_items", lambda trials, seed: [("noop", lambda: None)])
    monkeypatch.setattr(cli, "SELFTEST_TIME_BUDGET", -1.0)
    assert run_cli(["selftest"]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and len(lines) == 3 and lines[0].startswith("PASS noop (")
    assert re.fullmatch(r"FAIL time_budget: \d+\.\ds > -1\.0s", lines[1])
    assert lines[2] == "selftest: 1 failure(s)"


def test_selftest_fails_a_broken_item_under_python_O():
    # python -O strips asserts: each item's check is an explicit raise
    code = ("import sys, numpy as np\n"
            "from maskrd import cli, montecarlo\n"
            "montecarlo.draw_stream = lambda *args, **kwargs: np.zeros(8, complex)\n"
            "sys.exit(cli.main(['selftest', '--trials', '200']))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == cli.EXIT_NUMERIC
    assert "FAIL rng_known_answer: drew []\n" in proc.stdout


def test_selftest_quick(capsys):
    assert run_cli(["selftest", "--trials", "1500"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_canonical_config_round_trip(tmp_path):
    out1, out2 = str(tmp_path / "x"), str(tmp_path / "y")
    argv = ["response", "closed", "--mask", "comb:N=63,d=3", "--M", "5",
            "--mu4", "1.0", "--k", "1..9:2", "--nu", "0,5", "--out", out1]
    assert run_cli(argv) == 0
    first = read(os.path.join(out1, "response_closed.csv")).decode()
    config_line = first.splitlines()[1]
    assert config_line.startswith("# config: ")
    tokens = shlex.split(config_line[len("# config: "):])
    tokens[tokens.index("--out") + 1] = out2
    assert run_cli(tokens) == 0
    second = read(os.path.join(out2, "response_closed.csv")).decode()
    assert first.splitlines()[3:] == second.splitlines()[3:]


# One run per action that writes a file, each giving every option the action
# reads (closed, metrics and bounds take --mu4, compare --constellation: a run
# takes one of the two), and the '# config:' line it writes.
CONFIG_LINES = [
    (["mask", "gen", "singer:m=3", "--out", "out"], "mask gen singer:m=3 --out out"),
    (["mask", "verify", "singer:m=3", "--out", "out"], "mask verify singer:m=3 --out out"),
    (["response", "closed", "--mask", "singer:m=3", "--M", "2", "--mu4", "1.32",
      "--k", "1..3, 5", "--l", "2", "--nu", "0..1", "--out", "out"],
     "response closed --M 2 --k 1..3,5 --l 2 --mask singer:m=3 --mu4 1.32 --nu 0..1 "
     "--out out"),
    (["response", "both", "--mask", "singer:m=3", "--M", "2", "--constellation", "qpsk",
      "--k", "1", "--l", "2..3", "--nu", "0", "--trials", "20", "--seed", "4", "--out", "out"],
     "response both --M 2 --constellation qpsk --k 1 --l 2..3 "
     "--mask singer:m=3 --nu 0 --out out --seed 4 --trials 20"),
    # --l defaults to --k, and --trials and --seed to their defaults
    (["response", "both", "--mask", "singer:m=3", "--M", "2", "--constellation", "qam16",
      "--k", "1,2", "--nu", "0,1", "--out", "out"],
     "response both --M 2 --constellation qam16 --k 1,2 --l 1,2 "
     "--mask singer:m=3 --nu 0,1 --out out --seed 0 --trials 10000"),
    (["metrics", "--mask", "singer:m=3", "--M", "2", "--mu4", "1.0",
      "--normalize", "by_mainlobe", "--out", "out"],
     "metrics --M 2 --mask singer:m=3 --mu4 1.0 --normalize by_mainlobe --out out"),
    (["compare", "--mask", "singer:m=3", "--mask", "comb:N=6,d=3", "--M", "2",
      "--constellation", "qpsk", "--normalize", "by_rho", "--out", "out"],
     "compare --M 2 --constellation qpsk --mask singer:m=3 --mask comb:N=6,d=3 "
     "--normalize by_rho --out out"),
    (["bounds", "--mask", "singer:m=3", "--mu4", "1.0", "--out", "out"],
     "bounds --mask singer:m=3 --mu4 1.0 --out out"),
]


@pytest.mark.parametrize("argv, line", CONFIG_LINES,
                         ids=["mask_gen", "mask_verify", "response_closed", "response_both_seeded",
                              "response_both", "metrics", "compare", "bounds"])
def test_config_line_of_each_action(tmp_path, monkeypatch, capsys, argv, line):
    monkeypatch.chdir(tmp_path)
    words = argv[:2] if argv[0] in ("mask", "response") else argv[:1]
    assert run_cli([*words, "--help"]) == 0
    # the options the action's sub-parser declares, as its help lists them
    declared = set(re.findall(r"^  (--\w+)", capsys.readouterr().out, re.M))
    assert run_cli(argv) == 0
    for name in os.listdir(tmp_path / "out"):
        assert read(tmp_path / "out" / name).decode().splitlines()[1] == f"# config: {line}"
    on_line = {w for w in shlex.split(line) if w.startswith("--")}
    assert {w for w in argv if w.startswith("--")} <= on_line <= declared


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "maskrd", "--version"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, f"maskrd {__version__}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "maskrd", "mask", "gen", "singer:m=4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == masks.serialize_mask(masks.singer_mask(4))
    # a pipe is a mask file: only a directory is refused as none
    proc = subprocess.run([sys.executable, "-m", "maskrd", "mask", "show", "/dev/stdin"],
                          input=proc.stdout, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "\nis_cds: 1\n" in proc.stdout


@pytest.mark.parametrize("argv", [["mask", "verify", "singer:m=16"], ["mask", "show", "singer:m=3"]],
                         ids=["verify_in_the_table", "show_at_the_flush"])
def test_a_closed_stdout_exits_141_and_says_nothing(argv):
    # the reader is gone before the first write; with stdout block-buffered,
    # the long table fails as it is written and the short output only when
    # flushed, which must not wait for the interpreter's exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {key: v for key, v in os.environ.items() if key != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run([sys.executable, "-m", "maskrd", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, b"")


def test_help_exits_zero():
    assert run_cli(["--help"]) == 0
    assert run_cli(["response", "--help"]) == 0


def payload_sha256(path):
    """SHA-256 of a CSV's data lines (column header and rows), '#' lines skipped."""
    lines = read(path).splitlines(keepends=True)
    return hashlib.sha256(b"".join(l for l in lines if not l.startswith(b"#"))).hexdigest()


# Payloads whose values are exact integer arithmetic (counts, M R[k,l] and the
# nu = 0 mainlobe) plus the mu4 floor (mu4 - 1) M (w - a[k]), so their bytes do
# not depend on FFT or BLAS rounding. The metrics and compare rows, too, are
# exact counts (a[k], R, f) taken through IEEE float arithmetic, with no FFT or
# BLAS rounding in any value. Changing any of these hashes changes the tool's
# output.
GOLDEN = [
    (["mask", "verify", "singer:m=6"], {
        "singer_m_6_autocorr.csv": "6a9b4f7a7f8e034cdcba13058d37b4a207cdc5662c2c9ca0ebfde00cb9eebe07"}),
    (["mask", "verify", "comb:N=63,d=3"], {
        "comb_N_63_d_3_autocorr.csv": "baf0aa8d6c27ea3f4be13e9ea182dc4ff9e58ca6966ba28cfad56ffed62903a9"}),
    (["mask", "verify", "random:N=63,w=31,seed=7"], {
        "random_N_63_w_31_seed_7_autocorr.csv":
            "c89d727dab1893623805ac554ab027d12632f0651659e5ff4ca50689eec398e6"}),
    (["response", "closed", "--mask", "singer:m=5", "--M", "4", "--mu4", "1.0",
      "--k", "1..30", "--nu", "0..3"], {
        "response_closed.csv": "98f4178a2363b53e69b0dd6ebd065f6a94a85094bc78e6e87ef93e609a5686f5"}),
    # no grating lobe but nu = 0 in the nu set: S_kN(0) = w - a[k] is an exact count
    (["response", "closed", "--mask", "comb:N=63,d=3", "--M", "5", "--mu4", "1.32",
      "--k", "1..62:3", "--nu", "0..4"], {
        "response_closed.csv": "c9d1ba1610b98eabf1f358dee6dbb52c376c3408ef6fb263ab628a5b28e8be43"}),
    (["response", "closed", "--mask", "random:N=40,w=13,seed=9", "--M", "7", "--mu4", "1.32",
      "--k", "1..39:2", "--l", "1..39:3", "--nu", "0..6"], {
        "response_closed.csv": "571c3b54f698312d74f01aec667ace7a5c7c7f1561b2ba0990651b7f1e7be15a"}),
    # 3 k x 126 l x 61 nu = 23058 rows in 6 blocks of cli.BLOCK_ROWS; with M = 61
    # the only grating lobe in the nu set is nu = 0
    (["response", "closed", "--mask", "singer:m=7", "--M", "61", "--mu4", "1.32",
      "--k", "3,40,90", "--l", "1..126", "--nu", "0..60"], {
        "response_closed.csv": "400654b104bf6bd8566c7ec870ad2eff4b476da62931ec94b11d795a2bb7f21f"}),
    # every k on the diagonal, 63 grating lobes and 2 bins between them: unlike
    # the rows above, these values rest on libm exp and BLAS zdotu rounding
    # (recorded on x86-64 with numpy 2.4.6)
    (["response", "closed", "--mask", "random:N=63,w=31,seed=7", "--M", "5", "--mu4", "1.32",
      "--k", "1..62:6", "--nu", "0..314:5,3,7"], {
        "response_closed.csv": "3ba30b30c99849373c96f973e277cc2f661f555980c91e045598c3f67323601a"}),
    (["compare", "--mask", "singer:m=6", "--mask", "comb:N=63,d=3",
      "--mask", "random:N=63,w=31,seed=7", "--M", "50", "--constellation", "qam16",
      "--normalize", "by_mainlobe"], {
        "compare.csv": "86d12a3fb96920559937a7b9ffb79313097bacdea09b8cde06480c780e892c35"}),
    (["metrics", "--mask", "random:N=40,w=13,seed=9", "--M", "7", "--mu4", "1.32"], {
        "metrics.csv": "84279f6e4f7c46174ae5bb46ebac361c113dccc075ec50cebd4578f3fa2a3568"}),
    (["bounds", "--mask", "singer:m=6", "--constellation", "qam16"], {
        "bounds.csv": "f5730f6c8fd97508757921a8501fd355aa5a4102bcb6ff0bbbe3463c9c24c562"}),
    (["bounds", "--mask", "comb:N=63,d=3", "--mu4", "1.0"], {
        "bounds.csv": "f687d9ceb8064bc6ba25a2aecfa0447db30ad6dbd7552e73bdc50696c39bb473"}),
    (["bounds", "--mask", "random:N=63,w=31,seed=7", "--mu4", "1.32"], {
        "bounds.csv": "aa096b58664c6fe5d3f28f60a73c2a34f0ad8cb42785f1a38baf74d4193a9da6"}),
    # Monte Carlo payloads pin the random-stream layout too; their values rest
    # on libm exp and BLAS dot rounding (recorded on x86-64 with numpy 2.4.6)
    (["response", "both", "--mask", "singer:m=4", "--M", "3", "--constellation", "qam16",
      "--k", "1..14", "--l", "1,2,7", "--nu", "0,1,3,6", "--trials", "50", "--seed", "5"], {
        "response_both.csv": "8d15f832b37dcc61d46b1c7a626c7d610a40b0d9c4a9a5487328f8e42a6300f5"}),
    (["response", "both", "--mask", "singer:m=6", "--M", "50", "--constellation", "qam16",
      "--k", "20", "--l", "20,41", "--nu", "0,7,23,50,100", "--trials", "2000", "--seed", "1"], {
        "response_both.csv": "6ec3dae88f3f65794de9fb19fec5c82e8e883b99050fbae4d4941e4450d349fb"}),
    # a nu set across 2**63 keeps integer labels, and 2**63 + 1 is no lobe of
    # M = 2**62 + 3: both rows hold the mu4 floor (mu4 - 1) M (w - a[1]),
    # 2.95147905179e+18
    (["response", "closed", "--mask", "singer:m=3", "--M", str(2 ** 62 + 3), "--mu4", "1.32",
      "--k", "1", "--nu", f"1,{2 ** 63 + 1}"], {
        "response_closed.csv": "285e152afb2969839eefb331fc783540e30ffae24fa9f328e39003ec3d93d85c"}),
]


@pytest.mark.parametrize("argv, hashes", GOLDEN,
                         ids=["singer6", "comb63", "random63", "closed_singer5",
                              "closed_comb63", "closed_random40", "closed_singer7_blocks",
                              "closed_random63_lobes", "compare63", "metrics40",
                              "bounds_singer6", "bounds_comb63", "bounds_random63",
                              "mc_singer4", "both_design_point", "closed_nu_past_int64"])
def test_golden_payloads(tmp_path, argv, hashes):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(hashes)
    for name, sha in hashes.items():
        assert payload_sha256(tmp_path / name) == sha, name
