import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mjtheta import cli
from mjtheta.catalog import get_lambency, ingest_hdata
from mjtheta.cli import DATA_ENV, main
from mjtheta.jacobi import CoeffTable
from relation_records import synthesize, write_records


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_expand_eta(capsys):
    rc, out, _ = run(capsys, "expand", "--eta", "1^24/2^24", "--order", "3")
    assert rc == 0
    assert out.splitlines()[:3] == ["-1 1", "0 -24", "1 276"]


def test_expand_eulerian(capsys):
    rc, out, _ = run(capsys, "expand", "--eulerian", "3:psi",
                     "--order", "5")
    assert rc == 0
    assert out.splitlines() == ["1 1", "2 1", "3 1", "4 2"]


def test_expand_empty_eta(capsys):
    rc, out, _ = run(capsys, "expand", "--eta", "", "--order", "3")
    assert rc == 0
    assert out.splitlines() == ["0 1"]


def test_expand_names_an_empty_window(capsys):
    # q^(999999999999/24) and 3:psi = q + ... lie above their windows
    for argv in (["--eta", "1^999999999999", "--order", "3"],
                 ["--eulerian", "3:psi", "--order", "1"]):
        rc, out, err = run(capsys, "expand", *argv)
        window = argv[-1]
        assert (rc, out) == (0, "")
        assert err == ("mjtheta expand: no nonzero coefficient below the "
                       f"window q^{window}\n")
    rc, out, err = run(capsys, "expand", "--eta", "1^24", "--order", "2")
    assert (rc, out, err) == (0, "1 1\n", "")


def test_expand_lambency_matches_eta(capsys):
    rc, out, _ = run(capsys, "expand", "--lambency", "2", "--order", "3")
    rc2, out2, _ = run(capsys, "expand", "--eta", "1^24/2^24",
                       "--order", "3")
    assert rc == rc2 == 0 and out == out2


def test_expand_unknown_name(capsys):
    rc, _out, err = run(capsys, "expand", "--eulerian", "9:zeta")
    assert rc == 1 and "UnknownName" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["expand"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["verify", "nonsense"])
    assert e.value.code == 2


@pytest.mark.parametrize("order", [cli.ORDER_MAX + 1, 10 ** 19],
                         ids=["ceiling+1", "1e19"])
@pytest.mark.parametrize("argv", [
    ["expand", "--eta", "1^24/2^24"],
    ["expand", "--eulerian", "3:f"],
    ["verify", "fricke"],
], ids=["expand-eta", "expand-eulerian", "verify-fricke"])
def test_order_above_ceiling_is_a_usage_error(capsys, monkeypatch, argv,
                                              order):
    # the parser rejects the value before any command allocates a window
    def never(_args):
        raise AssertionError("the command ran")
    monkeypatch.setattr(cli, "cmd_expand", never)
    monkeypatch.setattr(cli, "cmd_verify", never)
    with pytest.raises(SystemExit) as e:
        main([*argv, "--order", str(order)])
    err = capsys.readouterr().err
    assert e.value.code == 2
    assert f"argument --order: must be at most {cli.ORDER_MAX}" in err
    assert "Traceback" not in err


def test_order_ceiling_itself_parses():
    for argv in (["expand", "--eulerian", "3:f"], ["verify", "fricke"]):
        args = cli.build_parser().parse_args(
            [*argv, "--order", str(cli.ORDER_MAX)])
        assert args.order == cli.ORDER_MAX


def test_verify_fixtures(capsys):
    rc, out, _ = run(capsys, "verify", "fixtures")
    assert rc == 0
    assert sum(1 for l in out.splitlines() if l.startswith("PASS")) == 16


def test_verify_mocktheta_skips_without_data(capsys):
    rc, out, _ = run(capsys, "verify", "mocktheta", "--order", "4")
    assert rc == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("SKIPPED")) == 25
    # 12 internal rows + watson + andrews-hickerson
    assert sum(1 for l in lines if l.startswith("PASS")) == 14


def test_verify_records_deterministic(capsys):
    rc, out1, _ = run(capsys, "verify", "positivity", "--format", "records")
    rc2, out2, _ = run(capsys, "verify", "positivity", "--format",
                       "records")
    assert rc == rc2 == 0 and out1 == out2
    recs = [json.loads(l) for l in out1.splitlines()]
    assert len(recs) == 39
    assert all(r["status"] == "pass" for r in recs)


def test_verify_all_records_are_pinned(capsys, monkeypatch):
    # the full `verify all --format records` output, byte for byte
    monkeypatch.delenv(DATA_ENV, raising=False)
    rc, out, err = run(capsys, "verify", "all", "--format", "records")
    golden = Path(__file__).parent / "data" / "verify_all_records.txt"
    assert rc == 0 and err == ""
    assert out == golden.read_text()


# the nine fits of the borcherds-fit benchmark
BENCH_FITS = [("10+2", -4, 6), ("6+2", -8, 4), ("18+2", -8, 8),
              ("33+11", -8, 28), ("15+5", -11, 7), ("15+5", -11, 13),
              ("28+7", -7, 21), ("33+11", -8, 16), ("33+11", -11, 11)]


def test_fit_outputs_are_pinned(capsys, monkeypatch):
    # `fit` in both formats on each benchmark case, byte for byte
    monkeypatch.delenv(DATA_ENV, raising=False)
    out = []
    for sym, D, r in BENCH_FITS:
        for fmt in ("human", "records"):
            rc, text, err = run(capsys, "fit", "--lambency", sym, f"--D={D}",
                                f"--r={r}", "--format", fmt)
            assert rc == 0 and err == ""
            out.append(text)
    golden = Path(__file__).parent / "data" / "fit_outputs.txt"
    assert "".join(out) == golden.read_text()


def child_env():
    """The environment of a `python -m mjtheta.cli` child: src on its path
    and no data file."""
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop(DATA_ENV, None)
    return env


def test_verify_all_records_do_not_depend_on_asserts():
    # python -O strips asserts: the records must not change without them
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mjtheta.cli", "verify", "all",
         "--format", "records"],
        capture_output=True, text=True, env=child_env(), timeout=300)
    golden = Path(__file__).parent / "data" / "verify_all_records.txt"
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == golden.read_text()


@pytest.mark.parametrize("argv", [
    ["fit", "--lambency", "99", "--D", "-3", "--r", "1"],
    ["expand", "--eta", "1^2^3"],
    ["fit", "--lambency", "6+2", "--D", "-12", "--r", "6"],
    ["verify", "fricke", "--order", "0"],
    ["verify", "positivity", "--data", "/nonexistent.csv"],
], ids=["unknown-lambency", "bad-eta", "non-fundamental-D", "order-0",
        "unreadable-data"])
def test_bad_input_without_asserts_is_one_error_line(argv):
    # python -O strips asserts: the exit code and the one line must not
    # rest on them
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mjtheta.cli", *argv],
        capture_output=True, text=True, env=child_env(), timeout=300)
    assert proc.returncode in (1, 2) and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def first_line_then_close(*argv):
    """(line, rc, stderr) of `mjtheta argv | head -1`: read one line of the
    child's stdout, then close the pipe.  Where Linux allows it the pipe
    holds one page, so the output left after that line cannot all fit in
    it and meets the closed reader."""
    fcntl = pytest.importorskip("fcntl")
    r, w = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        fcntl.fcntl(r, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "mjtheta.cli", *argv], stdout=w,
        stderr=subprocess.PIPE, text=True, env=child_env())
    os.close(w)
    with os.fdopen(r, "rb", buffering=0) as reader:
        line = reader.readline()  # unbuffered: one byte at a time
    _, err = proc.communicate(timeout=300)
    return line, proc.returncode, err


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--format", "records"],
    ["expand", "--eta", "1^24/2^24", "--order", "3000"],
], ids=["verify-records", "expand"])
def test_closed_pipe_exits_1_quietly(argv):
    line, rc, err = first_line_then_close(*argv)
    assert line.endswith(b"\n")
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert rc == 1


def bumped(t, key):
    """t with the one entry at key raised by 1."""
    entries = dict(t.entries)
    entries[key] += 1
    return CoeffTable(t.m, t.parity, entries, t.ranges)


def test_reports_name_an_entry_the_group_moves(monkeypatch):
    # K of 6+2 is {1, 7}; 7 carries residue 1 to -5, so C(D, 1) = -C(D, 5)
    # holds no longer once one side is changed
    lam = get_lambency("6+2")
    monkeypatch.setattr(lam, "fixture", bumped(lam.fixture, (-23, 1)))
    assert cli.fixture_report("6+2", None, None) == {
        "status": "fail", "detail": "ez_apply(7) moved C(-23, 1)"}
    kernel = cli.shadow_kernel
    monkeypatch.setattr(cli, "shadow_kernel", lambda *args: bumped(
        kernel(*args), (25, 1)))
    assert cli.invariance_report("6+2", 50, None) == {
        "status": "fail", "detail": "ez_apply(7) moved C(25, 1)"}


def test_shallow_data_reaches_no_coefficient(capsys, tmp_path):
    # lambency 6 data at n = 0 only: the rows over it reach no coefficient
    p = tmp_path / "h6.csv"
    p.write_text("lambency,class,r,D,coeff\n6,1A,1,1,-2\n6,1A,2,4,0\n"
                 "6,1A,4,16,0\n6,1A,5,25,0\n")
    rc, out, _ = run(capsys, "verify", "mocktheta", "--data", str(p),
                     "--format", "records")
    recs = [json.loads(l) for l in out.splitlines()]
    failed = {r["case"]: r["detail"] for r in recs if r["status"] == "fail"}
    assert rc == 1 and sorted(failed) == ["3:f", "3:omega"]
    assert all(d.startswith("InsufficientDepth") for d in failed.values())


@pytest.fixture
def data_file(tmp_path):
    p = tmp_path / "h.csv"
    write_records(p, synthesize("60+12,15,20:2A", 5))
    return str(p)


def test_verify_mult_relations_with_data(capsys, data_file):
    rc, out, _ = run(capsys, "verify", "mult-relations", "--data",
                     data_file, "--order", "5")
    assert rc == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("PASS")) == 1
    assert sum(1 for l in lines if l.startswith("SKIPPED")) == 8


def test_verify_mult_relations_default_order_follows_data(capsys,
                                                         data_file):
    rc, out, _ = run(capsys, "verify", "mult-relations", "--data",
                     data_file)
    assert rc == 0
    assert sum(1 for l in out.splitlines() if l.startswith("PASS")) == 1


def test_verify_mult_relations_order_past_the_data(capsys, data_file):
    # the data reaches q^5: --order 12 checks to the data's window
    rc, out, _ = run(capsys, "verify", "mult-relations", "--data",
                     data_file, "--order", "12", "--format", "records")
    [rec] = [json.loads(l) for l in out.splitlines()
             if json.loads(l)["case"] == "60+12,15,20:2A"]
    assert rc == 0 and rec["status"] == "pass"
    assert 5 <= Fraction(rec["depth"]) < 12


def test_verify_mult_relations_data_without_depth_fails(capsys, tmp_path):
    # only the n = 0 rows (D = r^2): no window reaches a coefficient past
    # the polar terms, so there is nothing to check
    p = tmp_path / "h0.csv"
    write_records(p, (rec for rec in synthesize("60+12,15,20:2A", 5)
                      if rec[3] == rec[2] ** 2))
    rc, out, _ = run(capsys, "verify", "mult-relations", "--data", str(p),
                     "--format", "records")
    [rec] = [json.loads(l) for l in out.splitlines()
             if json.loads(l)["case"] == "60+12,15,20:2A"]
    assert rc == 1 and rec["status"] == "fail"
    assert "InsufficientDepth" in rec["detail"]


def test_data_env_var(capsys, data_file, monkeypatch):
    monkeypatch.setenv("MJTHETA_DATA", data_file)
    rc, out, _ = run(capsys, "verify", "mult-relations", "--order", "5")
    assert rc == 0
    assert sum(1 for l in out.splitlines() if l.startswith("PASS")) == 1


def test_fit_command(capsys):
    rc, out, _ = run(capsys, "fit", "--lambency", "10+2", "--D", "-4",
                     "--r", "6")
    assert rc == 0
    assert "P: (3 + 4*z4), 1" in out
    assert "residual: 0" in out


def test_fit_underdetermined_names_the_window(capsys):
    # the divisor of (20+4, -119, 11) has degree 20; the table's window is 2
    rc, out, err = run(capsys, "fit", "--lambency", "20+4", "--D", "-119",
                       "--r", "11")
    assert rc == 1 and out == "" and err.splitlines() == [err.strip()]
    assert err.startswith("error: Underdetermined: ")
    assert "window of 2 coefficients" in err


def test_fit_excluded(capsys):
    rc, _out, err = run(capsys, "fit", "--lambency", "7", "--D", "-3",
                        "--r", "1")
    assert rc == 1 and "ExcludedDiscriminant" in err


def test_fit_missing_source(capsys):
    rc, _out, err = run(capsys, "fit", "--lambency", "2", "--D", "-7",
                        "--r", "1")
    assert rc == 1 and "MissingSource" in err


@pytest.mark.parametrize("argv", [
    ["expand", "--eta", "1^24/2^x"],
    ["expand", "--eta", "1^2^3"],
    ["expand", "--eta", "0^2"],
    ["expand", "--eta", "1^24/2^24", "--order", "-5"],
    ["expand", "--eta", "1^24/2^24", "--order", "0"],
    ["expand", "--eulerian", "3:psi", "--order", "x"],
    ["verify", "fricke", "--order", "-5"],
    ["verify", "fricke", "--jobs", "2"],
    ["expand", "--eta", "1^24/2^24", "--format", "records"],
    ["fit", "--lambency", "10+2", "--D", "-4", "--r", "6", "--order", "5"],
    # the degree of a fit is the Heegner divisor's, not an option
    ["fit", "--lambency", "6+2", "--D", "-8", "--r", "4", "--max-deg", "2"],
    ["fit", "--lambency", "6+2", "--D", "-8", "--r", "4", "--max-deg", "-1"],
    ["fit", "--lambency", "6+2", "--D", "-8", "--r", "4", "--max-deg", "x"],
])
def test_bad_input_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    err = capsys.readouterr().err
    assert e.value.code == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith("mjtheta") and ": error: " in err


@pytest.mark.parametrize("suite", ["fricke", "shadow-lift"])
def test_order_one_fails_without_traceback(capsys, suite):
    rc, out, err = run(capsys, "verify", suite, "--order", "1",
                       "--format", "records")
    recs = [json.loads(l) for l in out.splitlines()]
    assert rc == 1 and err == "" and len(recs) == 39
    assert all("InsufficientDepth" in r["detail"] for r in recs)


@pytest.mark.parametrize("lam, D, r", [("6+2", -15, 3), ("10+2", -15, 5)])
def test_fit_structural_zero_orbit_stops(capsys, lam, D, r):
    rc, _out, err = run(capsys, "fit", "--lambency", lam, "--D", str(D),
                        "--r", str(r))
    assert rc == 1
    assert err.startswith("error: ExcludedDiscriminant")
    assert f"{lam} D={D} r={r}" in err


def test_value_at_structural_zero_is_one_error_line(capsys, tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("lambency,class,r,D,coeff\n6+2,1A,1,1,-2\n6+2,1A,0,-24,5\n")
    rc, out, err = run(capsys, "verify", "positivity", "--data", str(p))
    assert rc == 1 and out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ParseError: line 3")


def test_data_file_is_parsed_once_per_run(capsys, data_file, monkeypatch):
    from mjtheta import cli
    calls = []

    def counting(path):
        calls.append(path)
        return ingest_hdata(path)

    monkeypatch.setattr(cli, "ingest_hdata", counting)
    rc, out, _ = run(capsys, "verify", "all", "--data", data_file,
                     "--format", "records")
    recs = [json.loads(l) for l in out.splitlines()]
    assert calls == [data_file]
    assert len(recs) == 181
    # the parsed tables reach the cases: the one relation with data is run
    [rec] = [r for r in recs if r["case"] == "60+12,15,20:2A"]
    assert rec["status"] != "skipped"


def test_fricke_expands_each_quotient_once(capsys, monkeypatch):
    from mjtheta import cli, eta
    calls = []
    real = eta.eta_expand

    def counting(e, order):
        calls.append(e)
        return real(e, order)

    monkeypatch.setattr(eta, "eta_expand", counting)
    monkeypatch.setattr(cli, "eta_expand", counting)
    rc, out, _ = run(capsys, "verify", "fricke", "--order", "10",
                     "--format", "records")
    assert rc == 0 and len(out.splitlines()) == 39
    # T and its Fricke image, once each
    assert len(calls) == 78


@pytest.mark.parametrize("how", ["flag", "env"])
def test_unreadable_data_file_is_one_error_line(capsys, monkeypatch, how):
    # fit reads the file although 10+2 ships a fixture
    for argv in (["verify", "mult-relations"],
                 ["fit", "--lambency", "10+2", "--D", "-4", "--r", "6"]):
        if how == "flag":
            argv += ["--data", "/nonexistent.csv"]
        else:
            monkeypatch.setenv("MJTHETA_DATA", "/nonexistent.csv")
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: UnreadableSource: /nonexistent.csv")


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    from mjtheta import cli

    def exhausted(e, order):
        raise MemoryError

    monkeypatch.setattr(cli, "eta_expand", exhausted)
    rc, out, err = run(capsys, "expand", "--eta", "1^24/2^24",
                       "--order", str(cli.ORDER_MAX))
    assert rc == 1 and out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: MemoryError")


# -- argv drawn from the parser's grammar ---------------------------------

GOOD_DATA = "lambency,class,r,D,coeff\n6+2,1A,1,1,-2\n6+2,1A,0,-24,5\n"

# small valid orders, and the invalid ones argparse must reject
ORDERS = st.one_of(st.integers(1, 12).map(str), st.sampled_from(
    ["0", "-3", "x", "1/0", "nan", "1e400", str(cli.ORDER_MAX + 1), ""]))
SYMBOLS = st.sampled_from(["6+2", "10+2", "2", "99", "6+5", "+", ""])
TARGETS = {
    "--eta": st.sampled_from(["1^24/2^24", "1^2 2^-2", "", "1^x", "0^1"]),
    "--lambency": SYMBOLS,
    "--eulerian": st.sampled_from(["3:psi", "8:U1", "3:nope", ""]),
}


@pytest.fixture(scope="module")
def data_paths(tmp_path_factory):
    """--data values: a missing file, an empty one, a binary one, every
    truncation of a good one, and a directory."""
    d = tmp_path_factory.mktemp("data")
    (d / "empty.csv").write_text("")
    (d / "binary.csv").write_bytes(bytes(range(256)))
    for cut in range(len(GOOD_DATA)):
        (d / f"cut{cut}.csv").write_text(GOOD_DATA[:cut])
    (d / "dir").mkdir()
    return [str(d / name) for name in
            ["missing.csv", "empty.csv", "binary.csv", "dir"]
            + [f"cut{cut}.csv" for cut in range(len(GOOD_DATA))]]


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def argvs(draw, data_paths):
    command = draw(st.sampled_from(["expand", "verify", "fit", "nope", ""]))
    head, opts = [command], []
    data = optional("--data", st.sampled_from(data_paths))
    fmt = optional("--format", st.sampled_from(["human", "records", "x"]))
    if command == "expand":
        target = draw(st.sampled_from(sorted(TARGETS)))
        opts += [[target, draw(TARGETS[target])],
                 draw(optional("--order", ORDERS))]
    elif command == "verify":
        head.append(draw(st.sampled_from([*cli.SUITES, "all", "nope", ""])))
        opts += [draw(optional("--order", ORDERS)), draw(data), draw(fmt)]
    elif command == "fit":
        opts += [["--lambency", draw(SYMBOLS)],
                 ["--D", draw(st.sampled_from(["-8", "-4", "-3", "0", "x"]))],
                 ["--r", draw(st.sampled_from(["4", "6", "1", "-1", ""]))],
                 draw(data), draw(fmt)]
    opts.append(draw(st.sampled_from([[]] * 6 + [["--nope"], [""]])))
    return head + [a for opt in draw(st.permutations(opts)) for a in opt]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_argv_exits_0_1_or_2_with_one_line(data_paths, data):
    argv = data.draw(argvs(data_paths))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), \
            redirect_stderr(err):
        os.environ.pop(DATA_ENV, None)
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    err = err.getvalue()
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err, argv
    assert len(err.splitlines()) <= 1, (argv, err)
