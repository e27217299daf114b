import csv
import hashlib
import os
import shlex
import subprocess
import sys
import tracemalloc

import pytest

from maskrd import cli, masks, montecarlo


def run_cli(argv):
    return cli.main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_parse_index_set():
    assert cli.parse_index_set("1..5") == (1, 2, 3, 4, 5)
    assert cli.parse_index_set("0,5,7") == (0, 5, 7)
    assert cli.parse_index_set("0..10:5") == (0, 5, 10)
    assert cli.parse_index_set("1..3, 9") == (1, 2, 3, 9)
    with pytest.raises(ValueError):
        cli.parse_index_set("")
    with pytest.raises(ValueError):
        cli.parse_index_set("5..1")
    with pytest.raises(ValueError):
        cli.parse_index_set("1..9:0")
    with pytest.raises(ValueError):
        cli.parse_index_set("a..b")


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


def test_mask_show_output(capsys):
    assert run_cli(["mask", "show", "random:N=12,w=5,seed=3"]) == 0
    assert capsys.readouterr().out == (
        "010110100100\n"
        "label: random:N=12,w=5,seed=3\n"
        "N: 12\nweight: 5\nrho: 5/12\nis_cds: 0\nlambda: \n")


RESPONSE = ["--mask", "singer:m=3", "--M", "2", "--k", "1", "--nu", "0"]


@pytest.mark.parametrize("argv, error", [
    (["response", "closed", *RESPONSE], "supply --mu4 or --constellation"),
    (["response", "mc", *RESPONSE, "--constellation", "qam16", "--mu4", "1.3"],
     "Monte Carlo runs take mu4 from the constellation; drop --mu4"),
    (["response", "mc", *RESPONSE, "--constellation", "qam16", "--seed", "-3"],
     "seed must be non-negative"),
    (["mask", "verify", "nope.mask"],
     "mask argument 'nope.mask' is neither a family spec nor an existing file"),
    (["mask", "verify", "singer:m"], "malformed mask spec 'singer:m'"),
    (["mask", "show", "comb:N=6,d=x"], "non-integer value 'x' in mask spec 'comb:N=6,d=x'"),
], ids=["closed_no_mu4", "mc_mu4", "mc_negative_seed", "neither_spec_nor_file",
        "spec_without_value", "spec_non_integer"])
def test_refused_input_exits_2_with_its_error_line(tmp_path, monkeypatch, capsys, argv, error):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    if argv[0] == "response":
        argv = [*argv, "--trials", "10", "--out", str(out)]
    assert run_cli(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert os.listdir(tmp_path) == []


def test_mask_verify_table_export(tmp_path):
    out = str(tmp_path)
    assert run_cli(["mask", "verify", "singer:m=3", "--out", out]) == 0
    a_lines = read(os.path.join(out, "singer_m_3_autocorr.csv")).decode().splitlines()
    assert a_lines[3] == "k,a"
    assert a_lines[4] == "0,3"
    assert a_lines[5:] == [f"{k},1" for k in range(1, 7)]
    r_lines = read(os.path.join(out, "singer_m_3_crossterms.csv")).decode().splitlines()
    assert r_lines[3] == "k,l,R"
    assert len(r_lines) == 4 + 36
    assert "1,2,1" in r_lines


def test_mask_verify_streams_crossterm_rows(tmp_path):
    # singer:m=8 has 254^2 = 64516 R rows; as a list of tuples they took ~4 MB
    tracemalloc.start()
    try:
        code = run_cli(["mask", "verify", "singer:m=8", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    lines = read(tmp_path / "singer_m_8_crossterms.csv").splitlines()
    assert len(lines) == 4 + 254 ** 2
    assert lines[4] == b"1,1,64" and lines[5] == b"1,2,32"  # w - a[k], then R[1,2]
    assert peak < 2 * 2 ** 20  # R itself is 255^2 int64 = 0.5 MB


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


def test_response_mc_deterministic_and_schema(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    argv = ["response", "mc", "--mask", "singer:m=3", "--M", "2",
            "--constellation", "qam16", "--k", "1,2", "--nu", "0,1",
            "--trials", "120", "--seed", "9"]
    assert run_cli(argv + ["--out", out1]) == 0
    a = read(os.path.join(out1, "response_mc.csv"))
    assert run_cli(argv + ["--out", out1]) == 0
    assert read(os.path.join(out1, "response_mc.csv")) == a
    assert run_cli(argv + ["--out", out2]) == 0
    b = read(os.path.join(out2, "response_mc.csv"))
    assert a.splitlines()[3:] == b.splitlines()[3:]
    assert a.decode().splitlines()[3] == "k,l,nu,value,se,trials"


def test_response_mc_is_first_six_columns_of_both(tmp_path):
    args = ["--mask", "singer:m=3", "--M", "4", "--constellation", "qam16",
            "--k", "1,2", "--l", "1", "--nu", "0,1,3", "--trials", "800",
            "--seed", "12"]
    assert run_cli(["response", "mc", *args, "--out", str(tmp_path)]) == 0
    assert run_cli(["response", "both", *args, "--out", str(tmp_path)]) == 0
    mc_lines = read(tmp_path / "response_mc.csv").decode().splitlines()
    both_lines = read(tmp_path / "response_both.csv").decode().splitlines()
    assert mc_lines[3] == "k,l,nu,value,se,trials"
    assert len(mc_lines) == len(both_lines) == 4 + 2 * 1 * 3
    assert mc_lines[4:] == [",".join(r.split(",")[:6]) for r in both_lines[4:]]
    rows = [r.split(",") for r in mc_lines[4:]]
    assert [tuple(r[:3]) for r in rows][:2] == [("1", "1", "0"), ("1", "1", "1")]
    assert all(float(r[3]) >= 0 and float(r[4]) >= 0 and r[5] == "800" for r in rows)


def test_response_mc_needs_constellation(tmp_path):
    argv = ["response", "mc", "--mask", "singer:m=3", "--M", "2",
            "--mu4", "1.32", "--k", "1", "--nu", "0", "--trials", "50",
            "--out", str(tmp_path / "out")]
    assert run_cli(argv) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


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


def test_response_budget_exceeded(tmp_path, monkeypatch):
    argv = ["response", "mc", "--mask", "singer:m=3", "--M", "2",
            "--constellation", "qam16", "--k", "1", "--nu", "0",
            "--trials", "500", "--out", str(tmp_path)]
    assert run_cli(argv + ["--budget", "10"]) == cli.EXIT_CONFIG
    monkeypatch.setenv(cli.BUDGET_ENV, "10")
    assert run_cli(argv) == cli.EXIT_CONFIG
    monkeypatch.setenv(cli.BUDGET_ENV, "1000000")
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
    assert len(read(out / f"{slug}_crossterms.csv").splitlines()) == 4 + 39 ** 2


def test_mask_verify_long_input_path(tmp_path):
    # a file mask is labelled with its path, and its slug names the outputs:
    # four 60-character directories would push a name past NAME_MAX = 255
    mask_dir = tmp_path.joinpath(*(str(i) * 60 for i in range(4)))
    assert run_cli(["mask", "gen", "singer:m=3", "--out", str(mask_dir)]) == 0
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert run_cli(["mask", "verify", str(mask_dir / "singer_m_3.mask"), "--out", str(out)]) == 0
    assert run_cli(["mask", "verify", "singer:m=3", "--out", str(ref)]) == 0
    names, ref_names = sorted(os.listdir(out)), sorted(os.listdir(ref))
    assert names[0].endswith("_autocorr.csv") and names[1].endswith("_crossterms.csv")
    assert all(len(n) <= 255 for n in names)
    for name, ref_name in zip(names, ref_names):
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
def test_line_break_in_an_out_directory_is_refused(tmp_path, capsys, brk):
    out = tmp_path / f"o{brk}ut"
    for argv in (["bounds", "--mask", "singer:m=3", "--mu4", "1.0"],
                 ["compare", "--mask", "singer:m=3", "--mask", "comb:N=6,d=3",
                  "--M", "2", "--mu4", "1.0"],
                 ["response", "mc", "--mask", "singer:m=3", "--M", "2",
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
    # the autocorrelation file fits and is written; the longer name fails after it
    (["mask", "verify", "singer:m=3"], "singer_m_3_crossterms.csv"),
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


@pytest.mark.parametrize("k, l, nu", [("0", "2", "0"), ("1", "7", "0"), ("1", "2", "28")],
                         ids=["k0", "lN", "nuMN"])
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


def test_selftest_quick(capsys):
    assert run_cli(["selftest", "--trials", "1500"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
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


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "maskrd", "mask", "gen", "singer:m=4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == masks.serialize_mask(masks.singer_mask(4))


def test_help_exits_zero():
    assert run_cli(["--help"]) == 0
    assert run_cli(["response", "--help"]) == 0


def payload_sha256(path):
    """SHA-256 of a CSV's data lines (column header and rows), '#' lines skipped."""
    lines = read(path).splitlines(keepends=True)
    return hashlib.sha256(b"".join(l for l in lines if not l.startswith(b"#"))).hexdigest()


# Payloads whose values are exact integer arithmetic (counts, M R[k,l] and the
# nu = 0 mainlobe) plus the mu4 floor (mu4 - 1) M (w - a[k]), so their bytes do
# not depend on FFT or BLAS rounding. Changing any of these hashes changes the
# tool's output.
GOLDEN = [
    (["mask", "verify", "singer:m=6"], {
        "singer_m_6_autocorr.csv": "6a9b4f7a7f8e034cdcba13058d37b4a207cdc5662c2c9ca0ebfde00cb9eebe07",
        "singer_m_6_crossterms.csv": "2aba5fe4adb69b888a9e7b383ec695ed0b3c33c8dbb36f43b094af253a5277d9"}),
    (["mask", "verify", "comb:N=63,d=3"], {
        "comb_N_63_d_3_autocorr.csv": "baf0aa8d6c27ea3f4be13e9ea182dc4ff9e58ca6966ba28cfad56ffed62903a9",
        "comb_N_63_d_3_crossterms.csv": "2abc660c90c74e57352f0224ea0eaabe10d80106f5d8cf94874ef973a70fca49"}),
    (["mask", "verify", "random:N=63,w=31,seed=7"], {
        "random_N_63_w_31_seed_7_autocorr.csv":
            "c89d727dab1893623805ac554ab027d12632f0651659e5ff4ca50689eec398e6",
        "random_N_63_w_31_seed_7_crossterms.csv":
            "bd7b2133c9fefc72eb54d3c783dc79cae09d2bdb7ebb828c4097b115e8462db1"}),
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
]


@pytest.mark.parametrize("argv, hashes", GOLDEN,
                         ids=["singer6", "comb63", "random63", "closed_singer5",
                              "closed_comb63", "closed_random40"])
def test_golden_payloads(tmp_path, argv, hashes):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(hashes)
    for name, sha in hashes.items():
        assert payload_sha256(tmp_path / name) == sha, name
