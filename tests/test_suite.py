"""Invariant suite: one spectral pass per context, failures as FAIL rows."""

import dataclasses

import pytest

from conftest import ctx_of, full_grid_bands

from nctorus import spectral, suite
from nctorus.spectral import GapInfo
from nctorus.suite import run_invariant_suite


def test_suite_one_spectral_pass_per_rep_and_grid(band_passes, monkeypatch):
    # isospectral_grid(1/3 (2,1), 32) == 32: isospectrality reads energies alone,
    # one pass of each family at 32.  The one whole-frame pass is the reference
    # family's at 2G, whose Fermi field feeds the projector rows and the
    # pullback lemma.  The certificates stream a weyl pass at 32 in row blocks:
    # they run gap_certificates, the one certificate path every command runs
    whole = []
    bands = suite.bands_on_grid

    def recorded(rep, a, G):
        whole.append((rep.kind, G))
        return bands(rep, a, G)

    monkeypatch.setattr(suite, "bands_on_grid", recorded)
    rows = run_invariant_suite(ctx_of(1, 3, 2, 1), 32)
    assert all(r.ok for r in rows)
    assert whole == [("reference", 64)]
    assert band_passes == [(1, 3, "weyl", 32), (1, 3, "reference", 32),
                           (1, 3, "reference", 64), (1, 3, "weyl", 32)]
    iso = next(r for r in rows if r.name == "isospectrality")
    assert 0.0 < iso.value < 1e-12


def test_suite_records_numerical_failures_as_rows():
    rows = {r.name: r for r in run_invariant_suite(ctx_of(3, 7, 3, 2), 6)}
    # the twisted Chern number is an integer, but a wrong one at G = 6:
    # the diophantine identity catches it
    assert not rows["tknn-gaps"].ok
    assert rows["tknn-gaps"].value == float("inf")
    assert "N*t + M0*s" in rows["tknn-gaps"].detail


def test_projector_rows_on_mirrored_bands_match_the_full_grid(monkeypatch):
    # the k1-mirrored reference Fermi field at 2G serves the field and
    # seam-transport checks as the directly diagonalized grid does: the Gram
    # defects on the stored rows, and P(k1, 0) on the expanded column 0
    ctx = ctx_of(2, 5, 3, 1)
    mirrored = {r.name: r for r in run_invariant_suite(ctx, 16)}
    for mod in (spectral, suite):
        monkeypatch.setattr(mod, "bands_on_grid", full_grid_bands)
    full = {r.name: r for r in run_invariant_suite(ctx, 16)}
    assert {n: r.ok for n, r in mirrored.items()} == {n: r.ok for n, r in full.items()}
    assert all(r.ok for r in mirrored.values())
    for name in ("projector-field", "projector-seam-transport"):
        assert mirrored[name].value == pytest.approx(full[name].value, abs=1e-12), name


@pytest.mark.parametrize("spec,labels", [((1, 3, 1, 0), [0, 2, 3]),         # a gap missing
                                         ((1, 4, 1, 0), [0, 1, 2, 3, 4])])  # a centre gap
def test_gap_label_row_fails_on_a_wrong_report(spec, labels, monkeypatch):
    # both label lists increase, but neither is gap_label_d's; the band count
    # is left as it is, so only the label row can see it
    exact = suite.hofstadter_gap_report

    def relabeled(ctx):
        report = exact(ctx)
        by_d = {gap.d: gap for gap in report.gaps}
        gaps = [dataclasses.replace(by_d.get(d, GapInfo(0, 0.0, 0.0, d, 0.0)), g=g)
                for g, d in enumerate(labels)]
        return dataclasses.replace(report, gaps=gaps)

    monkeypatch.setattr(suite, "hofstadter_gap_report", relabeled)
    rows = {r.name: r for r in run_invariant_suite(ctx_of(*spec), 16)}
    assert rows["band-count"].ok
    assert not rows["gap-labels-increasing"].ok
    assert rows["gap-labels-increasing"].detail == str(labels)


def test_symbolic_numeric_row_samples_a_fixed_grid():
    # the crosscheck is exact once the grid exceeds 6 * deg = 24, so G = 32
    # serves every suite grid, coarser or finer
    rows = {r.name: r for r in run_invariant_suite(ctx_of(1, 3, 1, 0), 40)}
    assert rows["symbolic-numeric"].ok
    assert rows["symbolic-numeric"].detail == "5 random degree-4 elements at G=32"
