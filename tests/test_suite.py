"""Invariant suite: one spectral pass per context, failures as FAIL rows."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import ctx_of
from fields import bands_on_grid, fermi_projector_field, fhs_chern, orbit_count, pullback_field

from nctorus import _kernels, chern, representations, spectral, suite
from nctorus.algebra import (
    TWO_PI,
    derivation,
    element_mul,
    hofstadter_element,
    nc_integral_symbolic,
)
from nctorus.representations import reference_fibered_rep
from nctorus.spectral import GapInfo, NumericalFailure, hofstadter_gap_report
from nctorus.suite import run_invariant_suite


def _recorded_blocks(monkeypatch, blocks):
    """Makes the suite's `band_blocks` append (kind, G, start, rows) of every block it yields."""
    passes = suite.band_blocks

    def recorded(rep, a, G):
        for start, energies, frames in passes(rep, a, G):
            blocks.append((rep.kind, G, start, len(frames)))
            yield start, energies, frames

    monkeypatch.setattr(suite, "band_blocks", recorded)


def test_suite_one_spectral_pass_per_rep_and_grid(band_passes, monkeypatch):
    # isospectral_grid(1/3 (2,1), 32) == 32: isospectrality reads energies alone,
    # one pass of each family at 32.  The reference family's block pass at 2G
    # feeds the projector rows and the pullback lemma: one block of its 33
    # stored rows at N = 3.  The certificates stream both families at 32 in row
    # blocks off one orbit table: they run gap_certificates, the one
    # certificate path every command runs
    blocks = []
    _recorded_blocks(monkeypatch, blocks)
    rows = run_invariant_suite(ctx_of(1, 3, 2, 1), 32)
    assert all(r.ok for r in rows)
    assert blocks == [("reference", 64, 0, 33)]
    assert band_passes == [(1, 3, "weyl", 32), (1, 3, "reference", 32),
                           (1, 3, "reference", 64), (1, 3, "dual", 32)]
    iso = next(r for r in rows if r.name == "isospectrality")
    assert 0.0 < iso.value < 1e-12


def test_suite_holds_no_whole_frame_array(eigh_matrices, monkeypatch):
    # every frame the suite reads comes from a pass in blocks of stored rows,
    # read off an orbit table that diagonalizes its representatives a quarter
    # block at a time: no eigh call takes more than 48 matrices at N = 13.
    # The tables take 289 matrices at 2G = 64 and 81 at G = 32, and the seam
    # row 8 more.  A whole 2G field hands all 33 x 33 = 1,089 matrices to one call
    blocks = []
    _recorded_blocks(monkeypatch, blocks)
    rows = {r.name: r for r in run_invariant_suite(ctx_of(8, 13, 2, 1), 32)}
    for name in ("projector-field", "projector-seam-transport", "pullback-lemma"):
        assert rows[name].ok, name
    assert [b[3] for b in blocks] == [3] * 11
    assert max(eigh_matrices) == _kernels.block_rows(4 * 13 * 13 * 16) == 48
    assert sum(eigh_matrices) == orbit_count(64) + orbit_count(32) + 8 == 289 + 81 + 8


def test_the_suite_at_r_over_q_runs_the_weyl_rows(band_passes, monkeypatch):
    # theta = r/q: the weyl family is constant in k2, a representation all the
    # same, so its gluing row and the ambient anchor run as at any context.  No
    # grid makes it isospectral to the reference family, so isospectral_grid
    # refuses, and the pair is the reference family and its conjugated form at G
    ctx = ctx_of(0, 1, 1, 0)
    with pytest.raises(ValueError, match=r"theta=0/1 rep=\(1,0\): theta = r/q"):
        suite.isospectral_grid(ctx, 12)
    glued = set()
    pp = suite.check_pseudoperiodicity
    monkeypatch.setattr(suite, "check_pseudoperiodicity",
                        lambda rep, a, k: glued.add(rep.kind) or pp(rep, a, k))
    rows = {r.name: r for r in run_invariant_suite(ctx, 12)}
    assert all(r.ok for r in rows.values())
    assert glued == {"weyl", "reference"}
    assert rows["ambient-anchor"].detail == "t(identity) = 1, expected 1"
    assert rows["isospectrality"].detail == "Hausdorff at grid 12^2"
    assert band_passes == [(0, 1, "reference", 12)] * 2 + [(0, 1, "dual", 12)]


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
    full_passes = []

    def full_grid_blocks(rep, a, G):
        full_passes.append((rep.kind, G))
        bd = bands_on_grid(rep, a, G)
        yield 0, bd.energies, bd.frames

    monkeypatch.setattr(suite, "band_blocks", full_grid_blocks)
    full = {r.name: r for r in run_invariant_suite(ctx, 16)}
    assert full_passes == [("reference", 32)]
    assert {n: r.ok for n, r in mirrored.items()} == {n: r.ok for n, r in full.items()}
    assert all(r.ok for r in mirrored.values())
    for name in ("projector-field", "projector-seam-transport"):
        assert mirrored[name].value == pytest.approx(full[name].value, abs=1e-12), name
    assert mirrored["pullback-lemma"].detail == full["pullback-lemma"].detail


def _whole_field_pullbacks(ctx, G):
    """fhs_chern (value, raw) of the 2G field and its (2,1), (1,3) pullbacks, to the first failure."""
    gap = max(hofstadter_gap_report(ctx).internal(), key=lambda g: g.upper - g.lower)
    bd = bands_on_grid(reference_fibered_rep(ctx), hofstadter_element(ctx.theta), 2 * G)
    field = fermi_projector_field(bd, gap.fermi)
    out = []
    try:
        for f in (field, pullback_field(field, 2, 1), pullback_field(field, 1, 3)):
            res = fhs_chern(f)
            out.append((res.value, res.raw))
    except NumericalFailure as exc:
        out.append(str(exc))
    return out


def _vanishing_links_alike(message: str) -> str:
    """A failure message with a link determinant below 1e-12, rounding noise of an exact zero, masked.

    Frames read off the orbit table and frames from eigh differ by a gauge,
    so such a determinant's digits differ between them.
    """
    match = re.fullmatch(r"link determinant magnitude (\S+) < (.*)", message)
    if match and float(match[1]) < 1e-12:
        return f"link determinant magnitude ~0 < {match[2]}"
    return message


@pytest.mark.parametrize("spec, G", [
    pytest.param((2, 5, 3, 2), 12, id="even"),
    pytest.param((2, 5, 3, 1), 9, id="odd"),
    pytest.param((1, 3, 2, 1), 15, id="odd-1/3"),
    pytest.param((1, 3, 1, 0), 3, id="too-coarse"),
    pytest.param((3, 8, 3, 1), 4, id="lemma-fails"),
])
def test_streamed_pullback_rows_match_the_whole_field(spec, G, monkeypatch):
    # the base field, the even rows fed as a G-row grid and doubled, and the
    # columns 3j mod 2G: the integers and the first failure message of fhs_chern
    # on the whole 2G field and its pullbacks, raw to 1e-12
    seen = []
    rounded = suite._rounded

    def recorded(total, min_abs, max_angle, grid, kind):
        try:
            res = rounded(total, min_abs, max_angle, grid, kind)
        except NumericalFailure as exc:
            seen.append(str(exc))
            raise
        if kind == "reference":
            seen.append((res.value, res.raw))
        return res

    monkeypatch.setattr(suite, "_rounded", recorded)
    ctx = ctx_of(*spec)
    rows = {r.name: r for r in run_invariant_suite(ctx, G)}
    oracle = _whole_field_pullbacks(ctx, G)
    assert len(seen) == len(oracle)
    for got, want in zip(seen, oracle):
        if isinstance(want, str):
            assert _vanishing_links_alike(got) == _vanishing_links_alike(want)
        else:
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], abs=1e-12)
    pb = rows["pullback-lemma"]
    if isinstance(oracle[-1], str):
        assert pb.value == float("inf")
        assert _vanishing_links_alike(pb.detail) == _vanishing_links_alike(oracle[-1])
    else:
        (c, _), (c21, _), (c13, _) = oracle
        assert pb.value == max(abs(c21 - 2 * c), abs(c13 - 3 * c))
        assert pb.detail == f"base Chern {c}"
    if spec == (1, 3, 1, 0):
        assert oracle[-1].startswith("link determinant magnitude")
    if spec == (3, 8, 3, 1):
        assert pb.value == 8 and not pb.ok


@pytest.mark.parametrize("module, row, value, failed", [
    pytest.param(suite, "projector-seam-transport", 1.56,
                 {"twist-layout", "projector-seam-transport", "ambient-anchor"}, id="seam"),
    pytest.param(representations, "pseudo-periodicity", 7.2, {"pseudo-periodicity"},
                 id="gluing"),
])
def test_a_reversed_transport_fails_its_row(module, row, value, failed, monkeypatch):
    # T(k1) -> T(k1)^-1 = T(k1)^dagger: the seam row compares the weyl projector
    # at k2 = 1 with the reversed transport of P(k1, 0), and the gluing row the
    # operator fields.  The suite's transport also lays out the twist and closes
    # the ambient anchor's seam, so those rows fail with it
    transport = module.twist_transport
    monkeypatch.setattr(module, "twist_transport",
                        lambda ctx, k1: transport(ctx, k1).conj().swapaxes(-1, -2))
    rows = {r.name: r for r in run_invariant_suite(ctx_of(2, 5, 3, 1), 16)}
    assert {name for name, r in rows.items() if not r.ok} == failed
    assert rows[row].value == pytest.approx(value, abs=0.01)


def test_a_wrong_high_v_power_fails_only_the_homomorphism_row(monkeypatch):
    # S^p -> S^(p+1) for |p| >= 2.  At 1/3 (1,0), d_r = 1 and h holds v^{+-1}
    # only, so the band passes, certificates, seam and generator rows never
    # raise S past |p| = 1; the homomorphism row evaluates random degree-4
    # elements through the certificates' own evaluator
    power = representations.shift_matrix_power
    monkeypatch.setattr(representations, "shift_matrix_power",
                        lambda q, lam, p: power(q, lam, p + 1 if abs(p) >= 2 else p))
    rows = {r.name: r for r in run_invariant_suite(ctx_of(1, 3, 1, 0), 16)}
    assert {name for name, r in rows.items() if not r.ok} == {"homomorphism"}
    assert rows["homomorphism"].value == pytest.approx(13.8, abs=0.01)


def _failed(spec, G=16):
    """{row name: value} of the suite's FAIL rows at `spec`, a context or (M, N, q, r)."""
    ctx = ctx_of(*spec) if isinstance(spec, tuple) else spec
    return {r.name: r.value for r in run_invariant_suite(ctx, G) if not r.ok}


def test_a_clock_on_the_wrong_residue_fails_the_commutation_row(monkeypatch):
    # C^{(qM + 1) n} for C^{qM n}: U V = e^{i2pi (M + d_r)/N} V U, so at 1/3 (1,0),
    # d_r = 1, the commutator is off by sqrt(3) |e^{i2pi/3} - 1| = 3.  The
    # generators stay unitary and C^N = I still.  Every row that evaluates u
    # past the generators' own identities reads the wrong clock too
    def wrong_residue(rep, n=1):
        N, j = rep.ctx.N, np.arange(rep.ctx.N)
        return np.exp(1j * TWO_PI * (((rep.ctx.q * rep.ctx.M + 1) * n % N) * j % N) / N)

    monkeypatch.setattr(representations.FiberedRep, "_u_const_diag", wrong_residue)
    failed = _failed((1, 3, 1, 0))
    assert set(failed) == {"commutation", "pseudo-periodicity", "homomorphism",
                           "projector-seam-transport", "tknn-gaps"}
    assert failed["commutation"] == pytest.approx(3.0, abs=1e-12)


def test_a_conjugated_phase_without_i_fails_the_unitarity_row(monkeypatch):
    # the conjugated form's e^{i2pi m k1} formed as e^{2pi m k1}: V grows by a
    # real factor, so V V^dagger - I reads sqrt(N) (e^{4pi k1} - 1) and V^N the
    # factor's N-th power.  It is a grading of v, so pi_k stays multiplicative,
    # but the homomorphism row's degree-8 products reach magnitudes near
    # e^{16pi k1}, whose rounding exceeds its bound, and the symbolic-numeric
    # row averages the conjugated form over k1, where the factor breaks the
    # period
    v_power = representations.FiberedRep._v_power

    def real_phase(rep, k1s, lam, m):
        if not rep.conjugated:
            return v_power(rep, k1s, lam, m)
        base = representations.shift_matrix_power(rep.ctx.N, 1.0 + 0j, rep.ctx.d_r * m)
        return np.exp(TWO_PI * m * np.asarray(k1s))[..., None, None] * base

    monkeypatch.setattr(representations.FiberedRep, "_v_power", real_phase)
    failed = _failed((1, 3, 1, 0))
    assert set(failed) == {"unitarity", "power-identity-v", "homomorphism", "symbolic-numeric"}
    assert failed["unitarity"] == pytest.approx(4.568e5, rel=1e-3)


@pytest.mark.parametrize("axis, row, failed", [
    pytest.param(0, "power-identity-v", {"power-identity-v", "projector-seam-transport",
                                          "tknn-gaps", "pullback-lemma"}, id="v"),
    pytest.param(1, "power-identity-u", {"power-identity-u", "projector-seam-transport"},
                 id="u"),
])
def test_a_character_one_cell_off_fails_its_power_identity_row(axis, row, failed, monkeypatch):
    # central_character one cell off on one axis, in the suite and in the orbit
    # table's read.  On the suite's grid of 2^20 cells the power row reads
    # sqrt(3) |e^{i2pi/2^20} - 1| = 1.04e-5 at N = 3.  The table reads every
    # point off the neighbouring cell: the seam row compares the weyl projector
    # at k2 = 1 with the moved field.  The certificates still hold when every
    # U^N character moves by one cell, and fail when V^N's does
    exact = representations.central_character

    def one_off(ctx, turns, G):
        cells = list(exact(ctx, turns, G))
        cells[axis] = (cells[axis] + 1) % G
        return tuple(cells)

    for module in (spectral, suite):
        monkeypatch.setattr(module, "central_character", one_off)
    rows = _failed((1, 3, 1, 0))
    assert set(rows) == failed
    assert rows[row] == pytest.approx(np.sqrt(3) * abs(np.exp(2j * np.pi / 2 ** 20) - 1),
                                      rel=1e-6)


def test_a_gap_tolerance_wider_than_the_gaps_fails_the_band_count_row(monkeypatch):
    # GAP_TOL = 10 closes every slot of the exact report: one band of three at
    # 1/3, and only the two outer gaps, so the label row fails with it.  With no
    # internal gap the projector rows read nothing, and the certificates
    # certify the outer gaps alone
    monkeypatch.setattr(spectral, "GAP_TOL", 10.0)
    failed = _failed((1, 3, 1, 0))
    assert set(failed) == {"band-count", "gap-labels-increasing"}
    assert failed["band-count"] == 2


def test_frames_off_orthonormality_fail_only_the_projector_field_row(monkeypatch):
    # the 2G pass's frames scaled by 1 + 1e-7 off k2 = 0: the Gram defects read
    # |(1 + 1e-7)^2 - 1| ~ 2e-7 per frame column, 4e-7 at 1/3 (1,0), against 1e-8.
    # Column k2 = 0, which the seam row reads, and the flux sums, which read
    # only phases of link determinants, are unmoved
    passes = suite.band_blocks

    def scaled(rep, a, G):
        for start, energies, frames in passes(rep, a, G):
            frames = frames.copy()
            frames[:, 1:] *= 1 + 1e-7
            yield start, energies, frames

    monkeypatch.setattr(suite, "band_blocks", scaled)
    failed = _failed((1, 3, 1, 0))
    assert set(failed) == {"projector-field"}
    assert failed["projector-field"] == pytest.approx(4e-7, rel=1e-3)


def test_a_gluing_unitary_on_conjugate_lambda_fails_only_the_twist_layout_row(monkeypatch):
    # shift_matrix(N, conj lam)^T: G^N = conj(lam) I, not lam I, and the
    # transport is no longer conj(G).  The suite's shift_matrix lays out the
    # twist and nothing else; the seam rows read twist_transport
    shift = suite.shift_matrix
    monkeypatch.setattr(suite, "shift_matrix", lambda N, lam: shift(N, np.conj(lam)))
    failed = _failed((1, 3, 1, 0))
    assert set(failed) == {"twist-layout"}
    assert failed["twist-layout"] == pytest.approx(2.936, abs=1e-3)


def test_a_context_off_its_diophantine_identity_fails_the_context_constants_row():
    # d_r + 1 breaks q d_r + n_r N = 1, which make_weyl_context asserts but
    # python -O strips: then this row alone states the identity.  The families
    # are built on V = S^{d_r + 1}, which no longer commutes with C^{qM} as
    # e^{i2pi M/N}, so the rows that multiply u and v fail with it
    ctx = ctx_of(1, 3, 1, 0)
    failed = _failed(dataclasses.replace(ctx, d_r=ctx.d_r + 1))
    assert set(failed) == {"context-constants", "commutation", "homomorphism", "tknn-gaps"}
    assert failed["context-constants"] == 1.0


def test_a_symmetrized_cocycle_fails_only_the_symbolic_numeric_row(monkeypatch):
    # the cocycle with d1 p d2 p + d2 p d1 p for its commutator.  At 1/3 every
    # character of the row's five elements is 0: each triple of their monomials
    # that sums to 0 spans an area A divisible by 3, and its two orders carry
    # e^{+-i pi theta A}, which cancel in the commutator and add up in the mutant.
    # No other row reads the symbolic character
    def symmetrized(p):
        d1, d2 = derivation(p, 1), derivation(p, 2)
        anti = element_mul(d1, d2) + element_mul(d2, d1)
        return nc_integral_symbolic(element_mul(p, anti)) / (1j * TWO_PI)

    monkeypatch.setattr(chern, "connes_chern_symbolic", symmetrized)
    rows = {r.name: r for r in run_invariant_suite(ctx_of(1, 3, 1, 0), 16)}
    assert {name for name, r in rows.items() if not r.ok} == {"symbolic-numeric"}
    assert rows["symbolic-numeric"].value == pytest.approx(16.43, abs=0.01)


def test_a_seamless_anchor_fails_only_the_ambient_anchor_row(monkeypatch):
    # plaquette_flux_sum drops its seam: the identity field of the weyl family
    # then closes periodically and reads t = 0, not q.  The anchor is that
    # function's one caller in the package; the certificates feed LinkMinors
    kernel = _kernels.plaquette_flux_sum

    def seamless(frames, ranks, seam=None, rows=None):
        return kernel(frames, ranks, None, rows)

    monkeypatch.setattr(_kernels, "plaquette_flux_sum", seamless)
    rows = {r.name: r for r in run_invariant_suite(ctx_of(1, 3, 1, 0), 16)}
    assert {name for name, r in rows.items() if not r.ok} == {"ambient-anchor"}
    assert rows["ambient-anchor"].detail == "t(identity) = 0, expected 1"


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
