"""Command-line contract: subcommands, exit codes, deterministic output."""

import json
import math
import re
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
def test_butterfly_csv_rows_per_theta(tmp_path, grid):
    # at G = 16 the CSV bands come from the gap refinement's fine grid
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "3", "--grid", str(grid), "--format", "csv",
               "--format", "svg", "--out", str(out)) == EXIT_OK
    lines = (out / "spectrum_q1r0.csv").read_text().strip().splitlines()
    rows = Counter(tuple(map(int, ln.split(",")[:2])) for ln in lines[1:])
    assert rows == {(M, N): grid * grid * N for (M, N) in
                    [(0, 1), (1, 3), (1, 2), (2, 3), (1, 1)]}


def test_butterfly_svg_gap_colors(tmp_path):
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "3", "--grid", "12", "--format", "svg",
               "--color-gaps", "--out", str(out)) == EXIT_OK
    svg = (out / "butterfly_q1r0.svg").read_text()
    assert "data-t=" in svg


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


def test_chern_certificates(tmp_path):
    out = tmp_path / "o"
    assert run("chern", "--theta", "1/3", "--rep", "2,1", "--grid", "24",
               "--out", str(out)) == EXIT_OK
    d = json.loads((out / "chern_1_3_q2r1.json").read_text())
    gap1 = d["certificates"][1]
    assert gap1["t"]["value"] == 1
    assert gap1["cc"]["value"] == -1
    assert gap1["diophantine_ok"] and gap1["duality_ok"] and gap1["solver_match"]


def test_verify_passes(tmp_path):
    out = tmp_path / "o"
    assert run("verify", "--theta", "1/3", "--grid", "16", "--out", str(out)) == EXIT_OK
    rows = json.loads((out / "verify_1_3_q1r0.json").read_text())
    assert all(r["ok"] for r in rows)
    names = {r["name"] for r in rows}
    assert {"commutation", "pseudo-periodicity", "ambient-anchor",
            "tknn-gaps", "pullback-lemma", "symbolic-numeric"} <= names


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


def test_bad_configuration_values(tmp_path):
    assert run("verify", "--theta", "1/3", "--tol", "0",
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


def test_unwritable_output_is_io_error(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    assert run("labels", "--theta", "1/3", "--grid", "16",
               "--out", str(blocker)) == EXIT_IO


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("thetas = 1/3\n")
    assert run("labels", "--config", str(cfgfile)) == EXIT_CONFIG


def test_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NCTORUS_THREADS", "2")
    out = tmp_path / "o"
    assert run("butterfly", "--farey", "2", "--grid", "4", "--out", str(out)) == EXIT_OK
    monkeypatch.setenv("NCTORUS_THREADS", "zero")
    assert run("butterfly", "--farey", "2", "--grid", "4", "--out", str(out)) == EXIT_CONFIG


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
    # at 8/9 the weyl G/2 -> G refinement merges the d=4 gap that the
    # certificates' reference G -> 2G refinement keeps open
    out = tmp_path / "o"
    assert run("butterfly", "--theta", "8/9", "--grid", "48", "--format", "svg",
               "--color-gaps", "--out", str(out)) == EXIT_OK
    segs, rects = _svg_columns((out / "butterfly_q1r0.svg").read_text())
    assert rects and segs.keys() == rects.keys()
    for x, boxes in rects.items():
        for (a0, a1) in segs[x]:
            for (b0, b1) in boxes:
                assert min(a1, b1) - max(a0, b0) < 1e-6, (x, (a0, a1), (b0, b1))


def test_butterfly_color_gaps_three_spectral_passes_per_theta(tmp_path, band_passes):
    # reference at G and 2G and weyl at G; the CSV reuses the weyl bands
    out = tmp_path / "o"
    assert run("butterfly", "--theta", "1/3", "--theta", "2/5", "--grid", "8", "--format", "csv",
               "--format", "svg", "--color-gaps", "--out", str(out)) == EXIT_OK
    assert len(band_passes) == len(set(band_passes)) == 6
    assert Counter((M, N) for M, N, _, _ in band_passes) == {(1, 3): 3, (2, 5): 3}


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
