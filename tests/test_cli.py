"""Command-line contract: subcommands, exit codes, deterministic output."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from fields import orbit_count
from hypothesis import given, settings, strategies as st

from nctorus import cli
from nctorus.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFICATION,
    farey_fractions,
    main,
    worker_count,
)


def run(*argv):
    return main(list(argv))


def test_farey_enumeration():
    f3 = [(t.M, t.N) for t in farey_fractions(3)]
    assert f3 == [(0, 1), (1, 3), (1, 2), (2, 3), (1, 1)]
    assert [(t.M, t.N) for t in farey_fractions(1)] == [(0, 1), (1, 1)]


def test_labels_classical_table(tmp_path):
    out = tmp_path / "o"
    assert run("labels", "--theta", "1/3", "--grid", "24", "--out", str(out)) == EXIT_OK
    rows = json.loads((out / "labels_1_3_q1r0.json").read_text())
    assert [(r["g"], r["d"], r["t"], r["s"]) for r in rows] == [
        (0, 0, 0, 0), (1, 1, 0, 1), (2, 2, 1, -1), (3, 3, 1, 0)]


@pytest.mark.parametrize("command", ["labels", "chern"])
def test_labels_merged_below_gap_tol_are_named_on_stderr(tmp_path, capsys, command):
    # two slots of 2/21 are 2.5e-9 wide, below GAP_TOL: the exact report merges
    # their bands, so d = 1 and d = 20 get no certificate; files, stdout and the
    # exit code are those of the other gaps
    status = run(command, "--theta", "2/21", "--grid", "32", "--out", str(tmp_path))
    out, err = capsys.readouterr()
    assert err == ("note: theta=2/21 rep=(1,0): no certificate for d=1, 20: "
                   "slots narrower than GAP_TOL=1e-08 merge their bands\n")
    assert status == EXIT_OK
    assert out.count(" g=") == 20                       # one line per certificate
    assert run(command, "--theta", "1/3", "--theta", "1/4", "--grid", "16",
               "--out", str(tmp_path)) == EXIT_OK
    assert capsys.readouterr().err == ""     # 1/4: the closed central slot is no note


def test_labels_even_denominator_has_no_internal_gaps(tmp_path):
    out = tmp_path / "o"
    assert run("labels", "--theta", "1/2", "--grid", "24", "--out", str(out)) == EXIT_OK
    rows = json.loads((out / "labels_1_2_q1r0.json").read_text())
    assert [(r["d"], r["t"], r["s"]) for r in rows] == [(0, 0, 0), (2, 1, 0)]


def test_labels_generalized_rep(tmp_path):
    out = tmp_path / "o"
    assert run("labels", "--theta", "1/3", "--rep", "2,1",
               "--grid", "24", "--out", str(out)) == EXIT_OK
    rows = json.loads((out / "labels_1_3_q2r1.json").read_text())
    assert [(r["d"], r["t"], r["s"]) for r in rows] == [
        (0, 0, 0), (1, 1, 1), (2, 1, -1), (3, 2, 0)]


def test_butterfly_csv_thetas(tmp_path):
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "3", "--grid", "4", "--out", str(out)) == EXIT_OK
    lines = (out / "spectrum_q1r0.csv").read_text().strip().splitlines()
    assert lines[0] == "theta_num,theta_den,k1,k2,band,energy"
    seen = {tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]}
    assert seen == {(0, 1), (1, 3), (1, 2), (2, 3), (1, 1)}


def test_butterfly_trivial_farey(tmp_path):
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "1", "--grid", "4", "--out", str(out)) == EXIT_OK
    lines = (out / "spectrum_q1r0.csv").read_text().strip().splitlines()
    assert {ln.split(",")[1] for ln in lines[1:]} == {"1"}


def test_butterfly_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ("butterfly", "--farey", "2", "--grid", "4")
    assert run(*args, "--out", str(out1)) == EXIT_OK
    assert run(*args, "--out", str(out2)) == EXIT_OK
    assert (out1 / "spectrum_q1r0.csv").read_bytes() == (out2 / "spectrum_q1r0.csv").read_bytes()


def test_butterfly_skips_incompatible_farey_theta(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "2", "--rep", "2,1", "--grid", "4",
               "--out", str(out)) == EXIT_OK
    assert "skipping theta=1/2" in capsys.readouterr().err
    lines = (out / "spectrum_q2r1.csv").read_text().strip().splitlines()
    assert {tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]} == {(0, 1), (1, 1)}


def test_butterfly_explicit_invalid_theta_fails(tmp_path):
    assert run("butterfly", "--theta", "1/2", "--rep", "2,1",
               "--out", str(tmp_path)) == EXIT_CONFIG


def test_butterfly_svg(tmp_path):
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "2", "--grid", "8", "--format", "csv",
               "--format", "svg", "--out", str(out)) == EXIT_OK
    svg = (out / "butterfly_q1r0.svg").read_text()
    assert 'viewBox="0 0 1000 800"' in svg
    assert "<path" in svg


@pytest.mark.parametrize("grid", [5, 12, 16])
def test_butterfly_csv_rows_per_theta(tmp_path, grid, eigh_matrices):
    # at G = 16 the CSV bands come from the gap refinement's fine grid; the
    # uncolored butterfly reads energies only, so it computes no eigenvectors
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "3", "--grid", str(grid), "--format", "csv",
               "--format", "svg", "--out", str(out)) == EXIT_OK
    assert eigh_matrices == []
    lines = (out / "spectrum_q1r0.csv").read_text().strip().splitlines()
    rows = Counter(tuple(map(int, ln.split(",")[:2])) for ln in lines[1:])
    assert rows == {(M, N): grid * grid * N for (M, N) in
                    [(0, 1), (1, 3), (1, 2), (2, 3), (1, 1)]}


@pytest.mark.parametrize("fmt, written", [("csv", "spectrum_q1r0.csv"),
                                         ("svg", "butterfly_q1r0.svg")])
def test_butterfly_writes_only_the_requested_format(tmp_path, fmt, written):
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "3", "--grid", "8", "--format", fmt,
               "--out", str(out)) == EXIT_OK
    assert [p.name for p in out.iterdir()] == [written]


def test_butterfly_failing_job_writes_no_file(tmp_path):
    # 2/5 at G = 4 fails its certificate: N*t + M0*s = 5 != q*d = 1
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "5", "--grid", "4", "--format", "csv", "--format", "svg",
               "--color-gaps", "--out", str(out)) == EXIT_VERIFICATION
    assert list(out.glob("*")) == []


def test_butterfly_failure_keeps_an_earlier_csv(tmp_path):
    # 2/5 fails after the four thetas before it were streamed to the .part file
    out = tmp_path / "o"
    out.mkdir()
    earlier = out / "spectrum_q1r0.csv"
    earlier.write_bytes(b"theta_num,theta_den,k1,k2,band,energy\n0,1,0,0,0,4\n")
    assert run("butterfly", "--farey", "5", "--grid", "4", "--format", "csv", "--format", "svg",
               "--color-gaps", "--out", str(out)) == EXIT_VERIFICATION
    assert earlier.read_bytes() == b"theta_num,theta_den,k1,k2,band,energy\n0,1,0,0,0,4\n"
    assert [p.name for p in out.iterdir()] == ["spectrum_q1r0.csv"]


def test_butterfly_into_a_regular_file_is_io_error_before_any_job(tmp_path, band_passes):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    assert run("butterfly", "--farey", "2", "--grid", "4", "--out", str(blocker)) == EXIT_IO
    assert band_passes == []


def test_butterfly_streams_its_csv(tmp_path, monkeypatch):
    # the main thread holds one k1 row of text at a time, not the file: the traced
    # peak was 1.13x the CSV size when the whole text was kept until the last job
    monkeypatch.setenv("NCTORUS_THREADS", "2")
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        assert run("butterfly", "--farey", "10", "--grid", "24", "--format", "csv",
                   "--out", str(out)) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (out / "spectrum_q1r0.csv").stat().st_size / 2


def test_butterfly_formats_its_csv_on_the_main_thread(tmp_path, monkeypatch):
    # jobs hand back spectra: band_rows is called, and each row of text formed, on
    # the thread that writes the CSV
    monkeypatch.setenv("NCTORUS_THREADS", "2")
    threads = []
    format_rows = cli.band_rows

    def recorded(*args):
        threads.append(threading.current_thread())

        def rows():
            for row in format_rows(*args):
                threads.append(threading.current_thread())
                yield row
        return rows()

    monkeypatch.setattr(cli, "band_rows", recorded)
    assert run("butterfly", "--farey", "4", "--grid", "8", "--format", "csv", "--format", "svg",
               "--out", str(tmp_path / "o")) == EXIT_OK
    assert len(threads) == len(farey_fractions(4)) * (1 + 8)
    assert set(threads) == {threading.main_thread()}


def test_butterfly_pool_runs_at_most_twice_its_workers_ahead(tmp_path, monkeypatch):
    # the first theta's job is held back until the other worker has started every
    # job the window allows (2 x 2), and then for as long as none past it starts:
    # with a bounded window no job past it can start before the first rows are
    # written, so this holds on any schedule; a pool that submits every job at
    # once starts the fifth within milliseconds
    monkeypatch.setenv("NCTORUS_THREADS", "2")
    window = 4
    job = cli._butterfly_job
    started, lock = [], threading.Lock()
    full, past = threading.Event(), threading.Event()
    at_release = []

    def held(ctx, cfg):
        with lock:
            started.append(ctx)
            n = len(started)
        if n == window:
            full.set()
        elif n > window:
            past.set()
        if (ctx.M, ctx.N) == (0, 1):
            assert full.wait(timeout=60)
            past.wait(timeout=0.5)
            at_release.append(len(started))
        return job(ctx, cfg)

    monkeypatch.setattr(cli, "_butterfly_job", held)
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "5", "--grid", "8", "--format", "csv",
               "--out", str(out)) == EXIT_OK
    assert at_release == [window]
    assert len(started) == len(farey_fractions(5)) == 11
    rows = (out / "spectrum_q1r0.csv").read_text().splitlines()[1:]
    thetas = dict.fromkeys(tuple(map(int, row.split(",")[:2])) for row in rows)
    assert list(thetas) == [(t.M, t.N) for t in farey_fractions(5)]


@pytest.mark.parametrize("colored", [(), ("--color-gaps",)], ids=["plain", "color-gaps"])
def test_butterfly_bytes_do_not_depend_on_the_thread_count(tmp_path, monkeypatch, colored):
    written = []
    for threads in ("1", "2"):
        monkeypatch.setenv("NCTORUS_THREADS", threads)
        out = tmp_path / threads
        assert run("butterfly", "--farey", "4", "--grid", "12", "--format", "csv",
                   "--format", "svg", *colored, "--out", str(out)) == EXIT_OK
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(written[0]) == ["butterfly_q1r0.svg", "spectrum_q1r0.csv"]
    assert written[0] == written[1]


# sha256 of spectrum_q1r0.csv from `butterfly --farey 6 --grid 16 --format csv`;
# any change to a CSV byte moves it.  The colored sweep writes the same bytes
# (test_butterfly_csv_does_not_depend_on_color_gaps)
@pytest.mark.parametrize("farey, grid, digest", [
    ("6", "16", "c5e4d002932544c7b02c74f23209b1c3654646da358b260bf0100ac42bb65c51"),
], ids=["plain"])
def test_butterfly_csv_bytes_are_pinned(tmp_path, farey, grid, digest):
    out = tmp_path / "o"
    assert run("butterfly", "--farey", farey, "--grid", grid, "--format", "csv",
               "--out", str(out)) == EXIT_OK
    assert hashlib.sha256((out / "spectrum_q1r0.csv").read_bytes()).hexdigest() == digest


# an odd grid, and two reps away from (1, 0); every Farey sweep holds theta = 0/1
# and 1/1, where M0 = 0 at rep (1, 0)
@pytest.mark.parametrize("sweep", [("--farey", "6", "--grid", "16"),
                                   ("--farey", "5", "--grid", "15"),
                                   ("--farey", "4", "--grid", "12", "--rep", "2,1"),
                                   ("--farey", "5", "--grid", "10", "--rep", "3,2")],
                         ids=["6-16", "5-15-odd-grid", "4-12-rep-2,1", "5-10-rep-3,2"])
def test_butterfly_csv_does_not_depend_on_color_gaps(tmp_path, sweep):
    written = []
    for colored in ((), ("--format", "svg", "--color-gaps")):
        out = tmp_path / str(len(colored))
        assert run("butterfly", *sweep, "--format", "csv", *colored,
                   "--out", str(out)) == EXIT_OK
        written.append([p.read_bytes() for p in out.glob("spectrum_*.csv")])
    assert len(written[0]) == 1 and written[0] == written[1]


def test_every_written_file_has_lf_line_ends(tmp_path, monkeypatch):
    # text mode without newline="\n" writes os.linesep, CRLF on Windows
    opened = []

    def recording_open(path, mode="r", *args, **kwargs):
        opened.append((Path(path).name, mode, kwargs.get("newline")))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    out = tmp_path / "o"
    for argv in (("butterfly", "--farey", "3", "--grid", "8", "--format", "csv", "--format", "svg"),
                 ("gaps", "--theta", "1/3", "--grid", "8", "--format", "json", "--format", "csv"),
                 ("chern", "--theta", "1/3", "--grid", "24")):
        assert run(*argv, "--out", str(out)) == EXIT_OK
    written = [(name, newline) for name, mode, newline in opened if "w" in mode]
    assert sorted(written) == [(name, "\n") for name in (
        "butterfly_q1r0.svg", "chern_1_3_q1r0.json", "gaps_1_3_q1r0.csv",
        "gaps_1_3_q1r0.json", "spectrum_q1r0.csv.part")]


def test_butterfly_svg_gap_colors(tmp_path):
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "3", "--grid", "12", "--format", "svg",
               "--color-gaps", "--out", str(out)) == EXIT_OK
    svg = (out / "butterfly_q1r0.svg").read_text()
    assert "data-t=" in svg


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, fmt, accepted", [("butterfly", "json", "csv or svg"),
                                                    ("gaps", "svg", "json or csv"),
                                                    ("labels", "csv", "json"),
                                                    ("chern", "svg", "json"),
                                                    ("verify", "csv", "json")])
def test_a_format_the_command_cannot_write_is_a_config_error(tmp_path, capsys, band_passes,
                                                             source, command, fmt, accepted):
    out = tmp_path / "o"
    ok = accepted.split()[0]        # a format the command writes, requested alongside
    if source == "flag":
        argv = ("--theta", "1/3", "--format", ok, "--format", fmt, "--out", str(out))
    else:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"theta = 1/3\nformat = {ok}, {fmt}\nout = {out}\n")
        argv = ("--config", str(cfgfile))
    assert run(command, *argv) == EXIT_CONFIG
    assert f"{command} cannot write {fmt!r}: it writes {accepted}" in capsys.readouterr().err
    assert not out.exists()
    assert band_passes == []


def test_gaps_json(tmp_path):
    out = tmp_path / "o"
    assert run("gaps", "--theta", "1/3", "--grid", "16", "--format", "json",
               "--format", "csv", "--out", str(out)) == EXIT_OK
    d = json.loads((out / "gaps_1_3_q1r0.json").read_text())
    assert d["bands"] == 3
    assert [g["d"] for g in d["gaps"]] == [0, 1, 2, 3]
    assert d["gaps"][0]["lower"] is None
    csv_lines = (out / "gaps_1_3_q1r0.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "g,lower,upper,d,fermi"
    assert len(csv_lines) == 5


def test_gaps_reports_every_band_of_eight_ninths(tmp_path):
    # the d = 4 gap of 8/9 is 0.204 wide but 0.313 on a 24^2 grid; the exact
    # corner edges keep it open whatever --grid is
    out = tmp_path / "o"
    assert run("gaps", "--theta", "8/9", "--grid", "24", "--out", str(out)) == EXIT_OK
    d = json.loads((out / "gaps_8_9_q1r0.json").read_text())
    assert d["bands"] == 9
    internal = [g["d"] for g in d["gaps"] if g["lower"] is not None and g["upper"] is not None]
    assert internal == list(range(1, 9))


def test_chern_certificates(tmp_path):
    out = tmp_path / "o"
    assert run("chern", "--theta", "1/3", "--rep", "2,1", "--grid", "24",
               "--out", str(out)) == EXIT_OK
    d = json.loads((out / "chern_1_3_q2r1.json").read_text())
    gap1 = d["certificates"][1]
    assert gap1["t"]["value"] == 1
    assert gap1["cc"]["value"] == -1
    assert gap1["diophantine_ok"] and gap1["duality_ok"] and gap1["solver_match"]


def test_chern_too_coarse_grid_is_caught_by_the_identity(tmp_path, capsys):
    # at G = 24 the d = 1 lattice sums give wrong integers, which N t + M0 s = q d rejects
    out = tmp_path / "o"
    args = ("chern", "--theta", "5/8", "--rep", "3,-2", "--out", str(out))
    assert run(*args, "--grid", "24") == EXIT_VERIFICATION
    assert "gap d=1: N*t + M0*s = -61 != q*d = 3" in capsys.readouterr().out
    assert not (out / "chern_5_8_q3r-2.json").exists()
    assert run(*args, "--grid", "32") == EXIT_OK
    d = json.loads((out / "chern_5_8_q3r-2.json").read_text())
    assert [c["d"] for c in d["certificates"]] == [0, 1, 2, 3, 5, 6, 7, 8]


def test_a_plaquette_on_the_branch_cut_is_a_typed_failure(tmp_path, capsys):
    # at q/G = 1/2 the weyl seam plaquettes are -1 up to round-off, so np.angle reads
    # +-pi by the frames' last digits: without the guard this run certifies t = 3
    out = tmp_path / "o"
    assert run("chern", "--theta", "1/5", "--rep", "3,1", "--grid", "6",
               "--out", str(out)) == EXIT_VERIFICATION
    assert capsys.readouterr().out == (
        "FAIL theta=1/5 rep=(3,1): weyl: plaquette angle 3.141592653589793 is within "
        "1e-06 of the +-pi branch cut\n")
    assert not out.exists()


def test_the_branch_cut_at_r_over_q_is_a_typed_failure(tmp_path, capsys):
    # theta = 0/1 measures t on the weyl seam as every context does, so at q/G = 1/2
    # its seam plaquette sits on the branch cut, like every q/G = 1/2 run
    out = tmp_path / "o"
    assert run("chern", "--theta", "0/1", "--grid", "2", "--out", str(out)) == EXIT_VERIFICATION
    assert capsys.readouterr().out == (
        "FAIL theta=0/1 rep=(1,0): weyl: plaquette angle 3.141592653589793 is within "
        "1e-06 of the +-pi branch cut\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["chern", "labels"])
def test_solver_mismatch_exits_1(tmp_path, shifted_solver, command):
    code = run(command, "--theta", "1/3", "--grid", "16", "--out", str(tmp_path))
    assert code == EXIT_VERIFICATION


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "nctorus", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: nctorus")


def test_verify_passes(tmp_path):
    out = tmp_path / "o"
    assert run("verify", "--theta", "1/3", "--grid", "16", "--out", str(out)) == EXIT_OK
    rows = json.loads((out / "verify_1_3_q1r0.json").read_text())
    assert all(r["ok"] for r in rows)
    names = {r["name"] for r in rows}
    assert {"commutation", "pseudo-periodicity", "ambient-anchor",
            "tknn-gaps", "pullback-lemma", "symbolic-numeric"} <= names


def test_verify_counts_the_bands_of_an_even_denominator(tmp_path):
    # N = 8 has 7 bands; grid detection at 24 -> 48 closed two edge slots and counted 5
    out = tmp_path / "o"
    assert run("verify", "--theta", "5/8", "--rep", "3,1", "--grid", "24",
               "--out", str(out)) == EXIT_OK
    rows = {r["name"]: r for r in json.loads((out / "verify_5_8_q3r1.json").read_text())}
    assert rows["band-count"]["ok"]
    assert rows["band-count"]["detail"] == "7 merged bands (expected 7)"
    assert rows["tknn-gaps"]["detail"] == "8 gaps verified"


def test_integer_theta_flows(tmp_path):
    # theta = 0/1: the weyl family is constant in k2; labels and verify still work
    out = tmp_path / "o"
    assert run("labels", "--theta", "0/1", "--grid", "12", "--out", str(out)) == EXIT_OK
    rows = json.loads((out / "labels_0_1_q1r0.json").read_text())
    assert [(r["d"], r["t"], r["s"]) for r in rows] == [(0, 0, 0), (1, 1, 0)]
    assert run("verify", "--theta", "0/1", "--grid", "12", "--out", str(out)) == EXIT_OK
    assert run("gaps", "--theta", "0/1", "--grid", "12", "--out", str(out)) == EXIT_OK
    assert json.loads((out / "gaps_0_1_q1r0.json").read_text())["bands"] == 1
    assert run("gaps", "--farey", "3", "--grid", "12", "--out", str(out)) == EXIT_OK
    assert (out / "gaps_2_3_q1r0.json").exists()


@pytest.mark.parametrize("command, work", [
    ("gaps", "hofstadter_gap_report"), ("labels", "gap_certificates"),
    ("chern", "gap_certificates"), ("verify", "run_invariant_suite"),
    ("butterfly", "_butterfly_job"),
])
def test_repeated_thetas_and_reps_run_each_context_once(tmp_path, monkeypatch, command, work):
    ran = []
    real = getattr(cli, work)

    def recorded(ctx, *args):
        ran.append(ctx.label())
        return real(ctx, *args)

    monkeypatch.setattr(cli, work, recorded)
    assert run(command, "--theta", "2/7", "--theta", "1/5", "--theta", "2/7",
               "--rep", "2,1", "--rep", "3,1", "--rep", "2,1", "--grid", "8",
               "--out", str(tmp_path)) in (EXIT_OK, EXIT_VERIFICATION)
    assert sorted(ran) == [f"theta={th} rep={rep}" for th in ("1/5", "2/7")
                           for rep in ("(2,1)", "(3,1)")]


def test_verify_rejects_degenerate_context(tmp_path):
    assert run("verify", "--theta", "1/2", "--rep", "2,1",
               "--out", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["chern", "verify", "butterfly"])
def test_an_invalid_explicit_context_stops_before_any_work(tmp_path, capsys, command):
    # 1/2 with rep (2,1) has gcd(N, q) = 2: the valid 1/3 listed first is not computed
    out = tmp_path / "o"
    assert run(command, "--theta", "1/3", "--theta", "1/2", "--rep", "2,1", "--grid", "8",
               "--out", str(out)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gcd(N,q) must be 1" in captured.err
    assert not out.exists()


def _float_literals(path):
    """Every float of a JSON file as written, and the parsed document."""
    literals = []
    doc = json.loads(path.read_text(), parse_float=lambda text: literals.append(text) or 0.0)
    return literals, doc


def test_report_json_floats_have_at_most_12_significant_digits(tmp_path):
    out = tmp_path / "o"
    for command in ("gaps", "labels", "chern"):
        assert run(command, "--theta", "1/3", "--rep", "2,1", "--grid", "16",
                   "--out", str(out)) == EXIT_OK
    assert run("verify", "--theta", "3/7", "--rep", "3,2", "--grid", "6",
               "--out", str(out)) == EXIT_VERIFICATION
    names = sorted(p.name for p in out.iterdir())
    assert names == ["chern_1_3_q2r1.json", "gaps_1_3_q2r1.json", "labels_1_3_q2r1.json",
                     "verify_3_7_q3r2.json"]
    for name in names:
        literals, _ = _float_literals(out / name)
        assert literals, name
        for text in literals:
            mantissa = text.lower().split("e")[0].lstrip("-").replace(".", "")
            assert len(mantissa.strip("0")) <= 12, (name, text)
    # the failing tknn-gaps check measured an infinite value: JSON has no inf
    rows = {r["name"]: r for r in json.loads((out / "verify_3_7_q3r2.json").read_text())}
    assert rows["tknn-gaps"]["ok"] is False
    assert rows["tknn-gaps"]["value"] is None


def test_bad_configuration_values(tmp_path):
    assert run("verify", "--theta", "1/3", "--grid", "1",
               "--out", str(tmp_path)) == EXIT_CONFIG
    assert run("labels", "--theta", "nonsense", "--out", str(tmp_path)) == EXIT_CONFIG
    assert run("labels", "--out", str(tmp_path)) == EXIT_CONFIG
    assert run("butterfly", "--farey", "0", "--out", str(tmp_path)) == EXIT_CONFIG
    assert run("labels", "--theta", "1/3", "--rep", "2;1",
               "--out", str(tmp_path)) == EXIT_CONFIG


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# sweep configuration\n"
        "theta = 1/3\n"
        "rep = 1,0\n"
        "grid = 24\n"
        "out = {}\n".format(tmp_path / "from_file")
    )
    assert run("labels", "--config", str(cfgfile)) == EXIT_OK
    assert (tmp_path / "from_file" / "labels_1_3_q1r0.json").exists()
    # flags override the file
    assert run("labels", "--config", str(cfgfile), "--out", str(tmp_path / "flag")) == EXIT_OK
    assert (tmp_path / "flag" / "labels_1_3_q1r0.json").exists()


@pytest.mark.parametrize("word, colored", [
    ("true", True), ("True", True), ("YES", True), ("On", True), ("1", True),
    ("false", False), ("FALSE", False), ("No", False), ("off", False), ("0", False),
])
def test_config_file_color_gaps_switch(tmp_path, word, colored):
    cfgfile = tmp_path / "run.cfg"
    out = tmp_path / "o"
    cfgfile.write_text(f"theta = 1/3\ngrid = 12\nformat = svg\ncolor_gaps = {word}\n"
                       f"out = {out}\n")
    assert run("butterfly", "--config", str(cfgfile)) == EXIT_OK
    assert ("data-t=" in (out / "butterfly_q1r0.svg").read_text()) == colored


@pytest.mark.parametrize("word", ["maybe", "truee", "2", ""])
def test_config_file_color_gaps_rejects_other_words(tmp_path, word):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"theta = 1/3\nformat = svg\ncolor_gaps = {word}\n"
                       f"out = {tmp_path / 'o'}\n")
    assert run("butterfly", "--config", str(cfgfile)) == EXIT_CONFIG


@pytest.mark.parametrize("key, value", [("grid", "abc"), ("grid", "16.0"), ("farey", "five"),
                                        ("farey", "")])
def test_config_file_integers_name_their_key(tmp_path, capsys, key, value):
    # like theta, rep and color_gaps, a value that is not an integer names its key
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"theta = 1/3\n{key} = {value}\n")
    assert run("gaps", "--config", str(cfgfile), "--out", str(tmp_path)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: bad {key} {value!r}: expected an integer\n"


def test_unwritable_output_is_io_error(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    assert run("labels", "--theta", "1/3", "--grid", "16",
               "--out", str(blocker)) == EXIT_IO


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("thetas = 1/3\n")
    assert run("labels", "--config", str(cfgfile)) == EXIT_CONFIG


def test_the_gap_tolerance_is_not_an_option(tmp_path, capsys):
    # the gap tolerance is the constant spectral.GAP_TOL: argparse rejects the
    # flag with exit 2, and the config file rejects the key as unknown
    with pytest.raises(SystemExit) as exc:
        run("gaps", "--theta", "1/3", "--tol", "1e-8", "--out", str(tmp_path))
    assert exc.value.code == EXIT_CONFIG
    cfgfile = tmp_path / "tol.cfg"
    cfgfile.write_text("theta = 1/3\ntol = 1e-8\n")
    assert run("gaps", "--config", str(cfgfile), "--out", str(tmp_path)) == EXIT_CONFIG
    assert "unknown key 'tol'" in capsys.readouterr().err
    assert not list(tmp_path.glob("gaps_*"))


def test_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NCTORUS_THREADS", "2")
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "2", "--grid", "4", "--out", str(out)) == EXIT_OK
    monkeypatch.setenv("NCTORUS_THREADS", "zero")
    assert run("butterfly", "--farey", "2", "--grid", "4", "--out", str(out)) == EXIT_CONFIG


def test_default_worker_count_follows_the_affinity_mask(monkeypatch):
    # taskset or a cpuset narrows the CPUs this process may use below the host count
    monkeypatch.delenv("NCTORUS_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5, 7}, raising=False)
    assert worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")          # platforms without it
    assert worker_count() == 64
    monkeypatch.setenv("NCTORUS_THREADS", "2")
    assert worker_count() == 2


def test_labels_deterministic_json(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ("labels", "--theta", "1/3", "--rep", "2,1", "--grid", "16")
    assert run(*args, "--out", str(out1)) == EXIT_OK
    assert run(*args, "--out", str(out2)) == EXIT_OK
    name = "labels_1_3_q2r1.json"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("theta,rep,grid,failing", [
    ("3/7", "3,2", "6", "tknn-gaps"),        # N*t + M0*s = 16 != q*d = 6
    ("1/3", "1,0", "3", "pullback-lemma"),   # a link determinant vanishes
])
def test_verify_numerical_failure_still_writes_report(tmp_path, theta, rep, grid, failing):
    # grids too coarse to certify: exit 1 with a FAIL row, never an abort
    out = tmp_path / "o"
    assert run("verify", "--theta", theta, "--rep", rep, "--grid", grid,
               "--out", str(out)) == EXIT_VERIFICATION
    M, N = theta.split("/")
    q, r = rep.split(",")
    rows = json.loads((out / f"verify_{M}_{N}_q{q}r{r}.json").read_text())
    assert [row["ok"] for row in rows if row["name"] == failing] == [False]


def test_verify_with_a_wide_gap_tolerance_writes_its_report(tmp_path, capsys):
    # the gap tolerance is the width threshold of the report, not the Fermi
    # levels' distance from the spectrum: every projector check runs and passes
    out = tmp_path / "o"
    assert run("verify", "--theta", "1/3", "--rep", "2,1", "--grid", "32",
               "--out", str(out)) == EXIT_OK
    rows = json.loads((out / "verify_1_3_q2r1.json").read_text())
    assert len(rows) == 17 and all(row["ok"] for row in rows)
    assert capsys.readouterr().err == ""


def _svg_columns(svg):
    """Per column x: black band segments and gap rectangles, as (low, high) in y."""
    segs, rects = {}, {}
    for x, y0, y1 in re.findall(r'<path d="M (\S+) (\S+) L \S+ (\S+)" stroke="black"', svg):
        segs.setdefault(float(x), []).append(tuple(sorted((float(y0), float(y1)))))
    for x, y, h in re.findall(r'<rect x="(\S+)" y="(\S+)" width="4" height="(\S+)" [^>]*data-t=',
                              svg):
        rects.setdefault(float(x) + 2, []).append((float(y), float(y) + float(h)))
    return segs, rects


def test_butterfly_colored_bands_do_not_cross_certified_gaps(tmp_path):
    # at 8/9 the weyl G/2 -> G refinement of the uncolored path merges the
    # d=4 gap; the colored path draws bands and gaps from one exact report
    out = tmp_path / "o"
    assert run("butterfly", "--theta", "8/9", "--grid", "48", "--format", "svg",
               "--color-gaps", "--out", str(out)) == EXIT_OK
    segs, rects = _svg_columns((out / "butterfly_q1r0.svg").read_text())
    assert rects and segs.keys() == rects.keys()
    for x, boxes in rects.items():
        for (a0, a1) in segs[x]:
            for (b0, b1) in boxes:
                assert min(a1, b1) - max(a0, b0) < 1e-6, (x, (a0, a1), (b0, b1))


def test_butterfly_color_gaps_one_spectral_pass_per_theta(tmp_path, band_passes,
                                                         eigh_matrices):
    # one band pass per theta for the certificates: both families read off one
    # orbit table, the 9 orbits of the 8 x 8 character grid, at 1/3 (M0 = 1)
    # and at 2/5 (M0 = 2) alike.  The CSV reads its energies off the central
    # characters, as without --color-gaps, with no eigenvectors
    out = tmp_path / "o"
    assert run("butterfly", "--theta", "1/3", "--theta", "2/5", "--grid", "8", "--format", "csv",
               "--format", "svg", "--color-gaps", "--out", str(out)) == EXIT_OK
    assert sorted(band_passes) == [(1, 3, "character", 8), (1, 3, "dual", 8),
                                   (2, 5, "character", 8), (2, 5, "dual", 8)]
    assert eigh_matrices == [orbit_count(8)] * 2 == [9, 9]


def test_butterfly_svg_only_diagonalizes_no_csv_grid(tmp_path, band_passes):
    # 7 thetas, each refined at 8 -> 16 from one pass at 16; the CSV grid 15 is
    # never computed
    assert run("butterfly", "--farey", "4", "--grid", "15", "--format", "svg",
               "--out", str(tmp_path / "o")) == EXIT_OK
    assert len(band_passes) == 7
    assert Counter((kind, G) for *_, kind, G in band_passes) == {("character", 16): 7}


@st.composite
def _verify_args(draw):
    N = draw(st.integers(1, 9))
    M = draw(st.sampled_from([M for M in range(N + 1) if math.gcd(M, N) == 1]))
    q, r = draw(st.sampled_from([(q, r) for q in (1, 2, 3) for r in range(1 - q, q)
                                 if math.gcd(q, abs(r)) == 1 and math.gcd(N, q) == 1]))
    return M, N, q, r, draw(st.integers(2, 12))


@settings(max_examples=25, deadline=None)
@given(_verify_args())
def test_verify_exits_0_or_1_and_always_writes_its_report(args):
    M, N, q, r, G = args
    with tempfile.TemporaryDirectory() as out:
        code = run("verify", "--theta", f"{M}/{N}", "--rep", f"{q},{r}", "--grid", str(G),
                   "--out", out)
        assert code in (EXIT_OK, EXIT_VERIFICATION)
        rows = json.loads((Path(out) / f"verify_{M}_{N}_q{q}r{r}.json").read_text())
        assert (code == EXIT_OK) == all(row["ok"] for row in rows)
