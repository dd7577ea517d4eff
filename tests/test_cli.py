"""Command-line contract: subcommands, exit codes, deterministic output."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    # theta = 0/1 collapses the twisted family; labels and verify still work
    out = tmp_path / "o"
    assert run("labels", "--theta", "0/1", "--grid", "12", "--out", str(out)) == EXIT_OK
    rows = json.loads((out / "labels_0_1_q1r0.json").read_text())
    assert [(r["d"], r["t"], r["s"]) for r in rows] == [(0, 0, 0), (1, 1, 0)]
    assert run("verify", "--theta", "0/1", "--grid", "12", "--out", str(out)) == EXIT_OK
    assert run("gaps", "--theta", "0/1", "--grid", "12", "--out", str(out)) == EXIT_OK
    assert json.loads((out / "gaps_0_1_q1r0.json").read_text())["bands"] == 1
    assert run("gaps", "--farey", "3", "--grid", "12", "--out", str(out)) == EXIT_OK
    assert (out / "gaps_2_3_q1r0.json").exists()


def test_verify_rejects_degenerate_context(tmp_path):
    assert run("verify", "--theta", "1/2", "--rep", "2,1",
               "--out", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["chern", "verify"])
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
    # the weyl bands at G, which the CSV reuses, diagonalized on the quarter grid
    # (k1 rows and k2 columns 0 .. 4); the reference bands are read off them, all
    # columns at 1/3 (M0 = 1), the even ones at 2/5 (M0 = 2), whose odd columns
    # 1 and 3 are diagonalized on the 5 stored k1 rows; columns 5 .. 7 are filled
    out = tmp_path / "o"
    assert run("butterfly", "--theta", "1/3", "--theta", "2/5", "--grid", "8", "--format", "csv",
               "--format", "svg", "--color-gaps", "--out", str(out)) == EXIT_OK
    assert sorted(band_passes) == [(1, 3, "weyl", 8), (2, 5, "weyl", 8)]
    assert sorted(eigh_matrices) == [5 * 2, 5 * 5, 5 * 5]


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
