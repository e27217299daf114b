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

from maskrd import cli, masks, montecarlo, response, spectra
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


def test_mask_gen_config_error():
    assert run_cli(["mask", "gen", "comb:N=63,d=4"]) == cli.EXIT_CONFIG
    assert run_cli(["mask", "gen", "nonsense"]) == cli.EXIT_CONFIG


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


@pytest.mark.parametrize("argv, error", [
    (["response", "both", *RESPONSE, "--constellation", "qam16", "--seed", "-3"],
     "seed must be non-negative"),
    (["mask", "verify", "nope.mask"],
     "mask argument 'nope.mask' is neither a family spec nor an existing file"),
    # a directory is no mask file: exit 2, not an I/O error on reading it
    (["mask", "show", "."], "mask argument '.' is neither a family spec nor an existing file"),
    (["bounds", "--mask", ".", "--mu4", "1"],
     "mask argument '.' is neither a family spec nor an existing file"),
    (["mask", "verify", "singer:m"], "malformed mask spec 'singer:m'"),
    (["mask", "show", "comb:N=6,d=x"], "non-integer value 'x' in mask spec 'comb:N=6,d=x'"),
    (["mask", "gen", "singer:m=3,m=4"], "mask spec 'singer:m=3,m=4' repeats key 'm'"),
    (["response", "closed", *RESPONSE, "--mu4", "1.0", "--k", "1:3"],
     "index-set entry '1:3' of '1:3' is not 'a', 'a..b' or 'a..b:s'"),
    (["response", "closed", *RESPONSE, "--mu4", "1.0", "--nu", "1..3,,4"],
     "index-set entry '' of '1..3,,4' is not 'a', 'a..b' or 'a..b:s'"),
    # an empty --l is an empty index set, not "same as --k"
    (["response", "closed", *RESPONSE, "--mu4", "1.0", "--k", "1,2", "--l", ""],
     "empty index set"),
    # M past int64, where numpy cannot take it
    (["response", "closed", "--mask", "singer:m=3", "--M", str(2 ** 63), "--mu4", "1.0",
      "--k", "1", "--nu", "0"],
     f"M must be below 2**63, got {2 ** 63}"),
    (["metrics", "--mask", "singer:m=3", "--mu4", "1.0", "--M", str(2 ** 63)],
     f"M must be below 2**63, got {2 ** 63}"),
    (["compare", "--mask", "singer:m=3", "--mask", "singer:m=4", "--mu4", "1.0",
      "--M", str(2 ** 64)], f"M must be below 2**63, got {2 ** 64}"),
], ids=["mc_negative_seed", "neither_spec_nor_file", "show_directory",
        "bounds_directory", "spec_without_value",
        "spec_non_integer", "spec_repeated_key", "stride_without_range",
        "empty_entry", "empty_l", "closed_M_past_int64", "metrics_M_past_int64",
        "compare_M_past_int64"])
def test_refused_input_exits_2_with_its_error_line(tmp_path, monkeypatch, capsys, argv, error):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    if argv[0] == "response":
        trials = ["--trials", "10"] if argv[1] == "both" else []
        argv = [*argv, *trials, "--out", str(out)]
    assert run_cli(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert os.listdir(tmp_path) == []


# Each action's sub-parser declares only the options the action reads, and
# that exactly one of --mu4 and --constellation gives mu4: any other use is an
# argparse error with the action's own usage, raised before anything is read
# or written.
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
], ids=["show_out", "closed_trials", "closed_seed", "closed_budget", "both_mu4",
        "both_budget", "mc_no_constellation", "closed_no_mu4", "closed_mu4", "metrics_mu4",
        "bounds_mu4", "compare_no_mu4", "bounds_no_mu4"])
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


def test_mask_verify_corrupted_file(tmp_path, capsys):
    bad = tmp_path / "bad.mask"
    bad.write_text("10a100\n")
    assert run_cli(["mask", "verify", str(bad)]) == cli.EXIT_CONFIG
    assert "error" in capsys.readouterr().err


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


def test_response_closed_blind_range(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["response", "closed", "--mask", "singer:m=3", "--M", "2",
                    "--mu4", "1.0", "--k", "0..2", "--nu", "0",
                    "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


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


def test_response_budget_exceeded(tmp_path, monkeypatch, capsys):
    argv = ["response", "both", "--mask", "singer:m=3", "--M", "2",
            "--constellation", "qam16", "--k", "1", "--nu", "0",
            "--trials", "500", "--out", str(tmp_path)]
    monkeypatch.setenv(montecarlo.BUDGET_ENV, "10")
    assert run_cli(argv) == cli.EXIT_CONFIG
    # selftest's mc_oracle item reads the same budget, before any item runs
    assert run_cli(["selftest", "--trials", "200"]) == cli.EXIT_CONFIG
    assert "PASS" not in capsys.readouterr().out
    monkeypatch.setenv(montecarlo.BUDGET_ENV, "1000000")
    assert run_cli(argv) == 0


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


def test_compare_needs_two_masks(tmp_path):
    assert run_cli(["compare", "--mask", "singer:m=3", "--M", "1",
                    "--mu4", "1.0", "--out", str(tmp_path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["response", "closed", "--mask", "singer:m=3", "--M", "2", "--mu4", "nan",
     "--k", "1", "--nu", "0"],
    ["response", "closed", "--mask", "singer:m=3", "--M", "2", "--mu4", "inf",
     "--k", "1", "--nu", "0"],
    ["bounds", "--mask", "singer:m=3", "--mu4", "nan"],
    ["metrics", "--mask", "singer:m=3", "--M", "2", "--mu4", "inf"],
], ids=["closed_nan", "closed_inf", "bounds_nan", "metrics_inf"])
def test_non_finite_mu4_refused(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert "mu4 must be a finite number" in capsys.readouterr().err
    assert not out.exists()


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
def test_line_break_in_a_mask_path_is_refused(tmp_path, capsys, brk):
    # shlex cannot keep a line break on the one "# config:" line
    mask = tmp_path / f"nl{brk}x.mask"
    mask.write_text("1101000\n")
    out = tmp_path / "out"
    for argv in (["bounds", "--mask", str(mask), "--mu4", "1.0"],
                 ["metrics", "--mask", str(mask), "--M", "2", "--mu4", "1.0"],
                 ["response", "closed", "--mask", str(mask), "--M", "2",
                  "--mu4", "1.0", "--k", "1", "--nu", "0"],
                 ["mask", "verify", str(mask)]):
        assert run_cli(argv + ["--out", str(out)]) == cli.EXIT_CONFIG, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: a line break in ")
        assert not out.exists()


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


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["lf", "cr"])
def test_line_break_in_an_out_directory_is_refused(tmp_path, capsys, brk):
    out = tmp_path / f"o{brk}ut"
    for argv in (["bounds", "--mask", "singer:m=3", "--mu4", "1.0"],
                 ["compare", "--mask", "singer:m=3", "--mask", "comb:N=6,d=3",
                  "--M", "2", "--mu4", "1.0"],
                 ["response", "both", "--mask", "singer:m=3", "--M", "2",
                  "--constellation", "qpsk", "--k", "1", "--nu", "0", "--trials", "10"],
                 ["mask", "gen", "singer:m=3"]):
        assert run_cli(argv + ["--out", str(out)]) == cli.EXIT_CONFIG, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: a line break in ")
    assert os.listdir(tmp_path) == []


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


def test_a_bad_nu_stops_response_both_before_any_trial(tmp_path, monkeypatch, capsys):
    calls = []
    original = montecarlo.estimate

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "estimate", counted)
    assert run_cli(["response", "both", "--mask", "singer:m=3", "--M", "4",
                    "--constellation", "qam16", "--k", "2", "--nu", "0..3,28",
                    "--trials", "50", "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: nu must be in 0..27, got 28\n"
    assert calls == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("mode", ["both"])
@pytest.mark.parametrize("trials", ["0", "1"])
def test_too_few_trials_are_refused_before_any_closed_form(tmp_path, monkeypatch, capsys,
                                                           mode, trials):
    calls = []
    monkeypatch.setattr(response, "build_grid", lambda *args: calls.append(args))
    assert run_cli(["response", mode, "--mask", "singer:m=6", "--M", "50",
                    "--constellation", "qam16", "--k", "1..62", "--nu", "0..199",
                    "--trials", trials, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: need at least 2 trials, got {trials}\n"
    assert calls == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("mode", ["both"])
@pytest.mark.parametrize("seed, error", [
    ("-1", "seed must be non-negative"),
    (str(2 ** 128), "seed must be below 2**128"),
], ids=["negative", "beyond_philox_key"])
def test_a_bad_seed_is_refused_before_any_closed_form(tmp_path, monkeypatch, capsys,
                                                      mode, seed, error):
    calls = []
    monkeypatch.setattr(response, "build_grid", lambda *args: calls.append(args))
    assert run_cli(["response", mode, "--mask", "singer:m=6", "--M", "50",
                    "--constellation", "qam16", "--k", "1..62", "--nu", "0..19",
                    "--trials", "2", "--seed", seed, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {error}\n"
    assert calls == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("k, l, nu", [("0", "2", "0"), ("1", "7", "0"), ("1", "2", "28"),
                                      ("1,9", "2", "0,99")],
                         ids=["k0", "lN", "nuMN", "k_and_nu"])
def test_closed_and_both_refuse_an_index_alike(tmp_path, capsys, k, l, nu):
    args = ["--mask", "singer:m=3", "--M", "4", "--constellation", "qam16",
            "--k", k, "--l", l, "--nu", nu, "--out", str(tmp_path / "o")]
    errors = []
    for mode in (["closed"], ["both", "--trials", "20"]):
        assert run_cli(["response", *mode, *args]) == cli.EXIT_CONFIG
        errors.append(capsys.readouterr().err)
    assert len(errors[0].splitlines()) == 1 and errors[0].startswith("error: ")
    assert errors[0] == errors[1]
    assert not (tmp_path / "o").exists()


def _traced_run(argv):
    """Exit code and tracemalloc peak of one CLI run."""
    tracemalloc.start()
    try:
        code = run_cli(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", [["closed", "--mu4", "1"], ["both", "--constellation", "qam16"]],
                         ids=["closed", "mc"])
def test_an_index_range_off_its_axis_is_refused_before_it_is_expanded(tmp_path, capsys, mode):
    # 3e6 + 1 Doppler bins, of which 14 are on the axis
    code, peak = _traced_run(["response", mode[0], "--mask", "singer:m=3", "--M", "2",
                              *mode[1:], "--k", "1", "--nu", "0..3000000",
                              "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: nu must be in 0..13, got 3000000\n"
    assert peak < 2 ** 20
    assert os.listdir(tmp_path) == []


# Family specs past the longest Singer period (singer:m=20) or the 128-bit Philox key.
OVERSIZED_SPECS = [
    ("comb:N=1048576,d=2", "period must be at most 2^20 - 1 = 1048575, that of "
                           "singer:m=20, got N=1048576"),
    ("comb:N=10000000000,d=2", "period must be at most 2^20 - 1 = 1048575, that of "
                               "singer:m=20, got N=10000000000"),
    ("random:N=10000000000,w=5,seed=1", "period must be at most 2^20 - 1 = 1048575, that of "
                                        "singer:m=20, got N=10000000000"),
    ("random:N=63,w=31,seed=-1", "random mask seed must be in 0..2^128 - 1, got seed=-1"),
    (f"random:N=63,w=31,seed={2 ** 128}",
     f"random mask seed must be in 0..2^128 - 1, got seed={2 ** 128}"),
]


@pytest.mark.parametrize("spec, error", OVERSIZED_SPECS,
                         ids=["comb_2^20", "comb_1e10", "random_1e10", "seed_-1", "seed_2^128"])
def test_a_family_spec_past_its_bound_is_refused_before_any_bit(capsys, spec, error):
    code, peak = _traced_run(["mask", "gen", spec])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert peak < 2 ** 20


def test_the_longest_comb_and_the_extreme_seeds_are_built():
    assert masks.comb_mask(2 ** 20 - 1, 3).n == 2 ** 20 - 1
    for seed in (0, 2 ** 128 - 1):
        assert masks.random_mask(63, 31, seed).weight == 31


def test_monte_carlo_work_over_budget_is_refused_before_its_triples_are_built(
        tmp_path, monkeypatch, capsys):
    # 62 x 62 x 200 = 768800 points at the design point
    monkeypatch.delenv(montecarlo.BUDGET_ENV, raising=False)
    code, peak = _traced_run(["response", "both", "--mask", "singer:m=6", "--M", "50",
                              "--constellation", "qam16", "--k", "1..62", "--l", "1..62",
                              "--nu", "0..199", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: points x trials x MN = 24217200000000 exceeds the budget 2000000000\n")
    assert peak < 2 ** 20
    assert os.listdir(tmp_path) == []


def test_monte_carlo_work_over_budget_is_refused_before_its_index_sets_are_expanded(
        tmp_path, monkeypatch, capsys):
    # 5e6 Doppler bins, all on the axis of MN = 7e6: counted, never listed
    monkeypatch.delenv(montecarlo.BUDGET_ENV, raising=False)
    code, peak = _traced_run(["response", "both", "--mask", "singer:m=3", "--M", "1000000",
                              "--constellation", "qpsk", "--k", "1", "--nu", "0..4999999",
                              "--trials", "100", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: points x trials x MN = 3500000000000000 exceeds the budget 2000000000\n")
    assert peak < 2 ** 20
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["response", "both", *RESPONSE, "--constellation", "qam16", "--trials", "10", "--out", "out"],
    ["selftest", "--trials", "200"],
], ids=["response_both", "selftest"])
def test_a_non_integer_budget_is_refused_by_its_name_before_any_work(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(montecarlo.BUDGET_ENV, "abc")
    calls = []
    monkeypatch.setattr(response, "build_grid", lambda *args: calls.append(args))
    called = _record_selftest_items(monkeypatch)
    assert run_cli(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: MASKRD_MC_BUDGET must be an integer, got 'abc'\n")
    assert calls == called == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
def test_an_unset_or_empty_budget_is_the_default(tmp_path, monkeypatch, capsys, value):
    if value is None:
        monkeypatch.delenv(montecarlo.BUDGET_ENV, raising=False)
    else:
        monkeypatch.setenv(montecarlo.BUDGET_ENV, value)
    # one point at MN = 14: one trial more than the default budget allows
    trials = montecarlo.DEFAULT_BUDGET // 14 + 1
    assert run_cli(["response", "both", *RESPONSE, "--constellation", "qpsk",
                    "--trials", str(trials), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: points x trials x MN = {trials * 14} exceeds "
                                       f"the budget {montecarlo.DEFAULT_BUDGET}\n")
    assert os.listdir(tmp_path) == []


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


@pytest.mark.parametrize("spec", ["singer:m=5", "comb:N=63,d=3", "random:N=40,w=13,seed=9"])
def test_bounds_prints_the_row_it_writes(tmp_path, capsys, spec):
    assert run_cli(["bounds", "--mask", spec, "--mu4", "1.32", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    header, row = csv.reader(read(tmp_path / "bounds.csv").decode().splitlines()[3:])
    assert printed[:-1] == [f"mask: {spec}"] + [
        f"{name}: {cell}" for name, cell in zip(header[1:], row[1:])]
    assert row[0] == spec and printed[-1] == f"wrote {tmp_path / 'bounds.csv'}"


def _record_selftest_items(monkeypatch):
    """Replace each selftest item by one that records its name; return the record."""
    called = []
    real = cli._selftest_items

    def recorded(*args):
        return [(name, lambda name=name: called.append(name)) for name, _ in real(*args)]

    monkeypatch.setattr(cli, "_selftest_items", recorded)
    return called


@pytest.mark.parametrize("trials", ["0", "1"])
def test_selftest_refuses_too_few_trials_before_any_item(monkeypatch, capsys, trials):
    called = _record_selftest_items(monkeypatch)
    assert run_cli(["selftest", "--trials", trials]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: need at least 2 trials, got {trials}\n")
    assert called == []


@pytest.mark.parametrize("seed, error", [
    (-1, "seed must be non-negative"),
    (2 ** 128, "seed must be below 2**128"),
], ids=["negative", "beyond_key"])
def test_selftest_refuses_bad_seed_before_any_item(monkeypatch, capsys, seed, error):
    # the same message as response both, not numpy's Philox key error
    called = _record_selftest_items(monkeypatch)
    assert run_cli(["selftest", "--seed", str(seed)]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert called == []


def test_selftest_refuses_work_over_budget_before_any_item(monkeypatch, capsys):
    # 6 points x 1e8 trials x MN = 28 is above montecarlo.DEFAULT_BUDGET
    called = _record_selftest_items(monkeypatch)
    assert run_cli(["selftest", "--trials", "100000000"]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: points x trials x MN = 16800000000 exceeds "
                                       f"the budget {montecarlo.DEFAULT_BUDGET}\n")
    assert called == []


def test_selftest_within_the_budget_of_its_oracle_item_runs_every_item(monkeypatch, capsys):
    # 6 points x 2 trials x MN = 28: the determinism item's estimates fit too
    monkeypatch.setenv(montecarlo.BUDGET_ENV, "336")
    run_cli(["selftest", "--trials", "2"])
    out, err = capsys.readouterr()
    assert err == ""
    assert "PASS determinism" in out


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
]


@pytest.mark.parametrize("argv, hashes", GOLDEN,
                         ids=["singer6", "comb63", "random63", "closed_singer5",
                              "closed_comb63", "closed_random40", "closed_singer7_blocks",
                              "closed_random63_lobes", "compare63", "metrics40",
                              "bounds_singer6", "bounds_comb63", "bounds_random63",
                              "mc_singer4", "both_design_point"])
def test_golden_payloads(tmp_path, argv, hashes):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(hashes)
    for name, sha in hashes.items():
        assert payload_sha256(tmp_path / name) == sha, name
