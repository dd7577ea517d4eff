"""Topological layer: lattice Chern numbers, duality, conductance triples."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import bands_of, certs_of, ctx_of, dense_projector, package_bands, report_of
from fields import (
    ProjectorField,
    bands_on_grid,
    connes_chern_via_derivatives,
    constant_projector_field,
    fermi_projector_field,
    fhs_chern,
    identity_field,
    orbit_count,
    pullback_field,
)

from nctorus import _kernels, chern, spectral
from nctorus.algebra import TWO_PI, hofstadter_element, monomial, random_element, unit
from nctorus.arithmetic import tknn_rhs_value, tknn_solve
from nctorus.chern import (
    ChernResidualError,
    GridTooCoarseError,
    VerificationError,
    gap_certificates,
    symbolic_numeric_crosscheck,
)
from nctorus.cli import farey_fractions
from nctorus.representations import reference_fibered_rep, shift_matrix_power, weyl_fibered_rep
from nctorus.spectral import GapViolationError, hofstadter_gap_report


def ref_gap_field(M, N, q, r, gap_index, G=32, conjugated=False):
    gap = report_of(M, N, q, r).internal()[gap_index]
    if conjugated:
        ctx = ctx_of(M, N, q, r)
        from nctorus.algebra import hofstadter_element
        bd = package_bands(reference_fibered_rep(ctx, conjugated=True),
                           hofstadter_element(ctx.theta), G)
    else:
        bd = bands_of(M, N, q, r, "reference", G)
    return fermi_projector_field(bd, gap.fermi)


def weyl_gap_field(M, N, q, r, gap_index, G=32):
    gap = report_of(M, N, q, r).internal()[gap_index]
    return fermi_projector_field(bands_of(M, N, q, r, "weyl", G), gap.fermi)


def test_fhs_chern_trivial_fields():
    rep = reference_fibered_rep(ctx_of(1, 3, 1, 0))
    flat = constant_projector_field(rep, 16, np.diag([1.0, 0, 0]).astype(complex))
    assert fhs_chern(flat).value == 0
    assert fhs_chern(identity_field(rep, 16)).value == 0
    zero_field = constant_projector_field(rep, 16, np.zeros((3, 3), complex))
    assert fhs_chern(zero_field).value == 0


def test_reference_gap_one_chern_is_minus_one():
    res = fhs_chern(ref_gap_field(1, 3, 1, 0, 0))
    assert res.value == -1
    assert res.residual < 1e-10


def test_derivative_formula_orientation_oracle():
    # independent of the plaquette path: pins the global sign convention
    f = ref_gap_field(1, 3, 1, 0, 0, G=48, conjugated=True)
    assert connes_chern_via_derivatives(f) == pytest.approx(-1.0, abs=1e-4)


def test_conjugated_field_carries_n_times_character():
    f = ref_gap_field(1, 3, 1, 0, 0, conjugated=True)
    assert fhs_chern(f).value == -3 == 3 * round(connes_chern_via_derivatives(f))


@pytest.mark.parametrize("spec", [(1, 3, 1, 0), (1, 3, 2, 1), (1, 5, 2, 1),
                                  (2, 5, 3, 2), (1, 7, 3, 1)])
def test_twisted_identity_anchor(spec):
    M, N, q, r = spec
    ctx = ctx_of(M, N, q, r)
    res = fhs_chern(identity_field(weyl_fibered_rep(ctx), 24))
    assert res.value == q
    assert res.residual < 1e-10


def test_twisted_chern_kernel_input_is_the_field(monkeypatch):
    # the seam closes the base lattice: no copies of the frames along k2, and
    # the k1-mirrored field hands over its diagonalized rows 0 .. G/2 only
    shapes = []
    kernel = chern._kernels.plaquette_flux_sum

    def recorded(frames, ranks, seam=None, rows=None):
        shapes.append((frames.shape, seam.shape, rows))
        return kernel(frames, ranks, seam, rows)

    monkeypatch.setattr(chern._kernels, "plaquette_flux_sum", recorded)
    res = fhs_chern(weyl_gap_field(2, 5, 3, 1, 1, G=24))
    assert (res.value, res.grid) == (1, 24)
    assert shapes == [((13, 24, 5, 2), (13, 5, 5), 24)]


def test_certificates_make_one_kernel_call_per_family(monkeypatch):
    # every gap's rank reads blocks of one family's shared link overlaps: the
    # streamed pass feeds each family's LinkMinors every stored row once, in
    # blocks of 3 rows here, the weyl block before the reference block read
    # off it, tells both kernels that the grid is k1-mirrored, and never calls
    # the whole-array kernel
    made, fed, calls = [], [], []
    minors, kernel = chern._kernels.LinkMinors, chern._kernels.plaquette_flux_sum

    class Recorded(minors):
        def __init__(self, ranks, rows, mirrored=False):
            made.append((list(ranks), rows, mirrored))
            self.family = len(made) - 1
            super().__init__(ranks, rows, mirrored)

        def add(self, F, seam=None):
            fed.append((self.family, F.shape, None if seam is None else seam.shape))
            super().add(F, seam)

    def recorded(frames, ranks, seam=None, rows=None):
        calls.append((frames.shape, list(ranks), None if seam is None else seam.shape, rows))
        return kernel(frames, ranks, seam, rows)

    monkeypatch.setattr(chern._kernels, "LinkMinors", Recorded)
    monkeypatch.setattr(chern._kernels, "plaquette_flux_sum", recorded)
    monkeypatch.setattr(chern._kernels, "BLOCK_BYTES", 3 * 16 * 5 * 5 * 16)
    ctx = ctx_of(2, 5, 3, 1)
    certs = gap_certificates(ctx, 16)
    ranks = [c["record"].d for c in certs[1:]]
    assert ranks == [1, 2, 3, 4, 5]
    # the k1-mirrored bands hand over their diagonalized rows 0 .. G/2 in blocks
    assert made == [([0] + ranks, 16, True)] * 2                # weyl, reference
    assert fed == [(0, (3, 16, 5, 5), (3, 5, 5)), (1, (3, 16, 5, 5), None)] * 3
    assert calls == []
    assert {c["cc"].grid for c in certs} == {c["t"].grid for c in certs} == {16}
    made.clear()
    gap_certificates(ctx_of(0, 1, 1, 0), 12)      # theta = r/q: the weyl family is constant in k2
    assert made == [([0, 1], 12, True)] * 2                     # weyl, reference


def test_orthogonal_neighbour_frames_are_too_coarse():
    # the frame turns from e0 to e1 between k1 = 2/8 and 3/8: those links vanish
    rep = reference_fibered_rep(ctx_of(1, 3, 1, 0))
    frames = np.zeros((8, 8, 3, 1), complex)
    frames[:3, :, 0, 0] = 1.0
    frames[3:, :, 1, 0] = 1.0
    with pytest.raises(GridTooCoarseError, match="magnitude 0 < 1e-06"):
        fhs_chern(ProjectorField(rep, frames))


def test_link_guard_on_the_certificate_path(monkeypatch):
    # |det| <= 1 for every link, so no grid clears this threshold
    monkeypatch.setattr(chern, "MIN_LINK_DET", 1.5)
    with pytest.raises(GridTooCoarseError, match="< 1.5"):
        gap_certificates(ctx_of(1, 3, 2, 1), 16)


def test_branch_cut_guard_reads_the_largest_angle():
    # pi - 2.5e-4 is the largest angle off the cut in the golden sweep (6/7 (5,2), G = 6);
    # the q/G = 1/2 seam plaquettes read pi to 12 digits
    assert chern._rounded(TWO_PI, 1.0, np.pi - 2.5e-4, 6, "weyl").value == 1
    with pytest.raises(GridTooCoarseError, match="of the \\+-pi branch cut"):
        chern._rounded(TWO_PI, 1.0, np.pi - 1e-7, 6, "weyl")


def _fermi_in_a_band(monkeypatch):
    exact = chern.hofstadter_gap_report

    def spoiled(ctx):
        report = exact(ctx)
        gaps = list(report.gaps)
        gaps[1] = dataclasses.replace(gaps[1], fermi=0.0)
        return dataclasses.replace(report, gaps=gaps)

    monkeypatch.setattr(chern, "hofstadter_gap_report", spoiled)


def _weyl_bands_shifted(monkeypatch):
    blocks = chern.dual_band_blocks

    def spoiled(ctx, a, G):
        for kind, start, E, F in blocks(ctx, a, G):
            yield kind, start, E + 2.0 if kind == "weyl" else E, F

    monkeypatch.setattr(chern, "dual_band_blocks", spoiled)


def _gap_one_sum_offset(family, turns):
    """A spoil that adds `turns` to gap 1's kernel sum of one family before it is checked."""
    def spoil(monkeypatch):
        certificates = chern._certificates

        def offset(ctx, report, G, E_r, cc_sums, E_w, t_sums):
            sums = {"reference": list(cc_sums), "weyl": list(t_sums)}
            total, *guards = sums[family][1]
            sums[family][1] = (total + turns * TWO_PI, *guards)
            return certificates(ctx, report, G, E_r, sums["reference"], E_w, sums["weyl"])

        monkeypatch.setattr(chern, "_certificates", offset)
    return spoil


def _no_rounding_slack(monkeypatch):
    # on 1/4 (3,1) rank 0's sums are exactly 0 and both rank-1 sums of gap 1
    # are off an integer, so the weyl one, rounded first, fails
    monkeypatch.setattr(chern, "ROUND_TOL", 1e-300)


@pytest.mark.parametrize("spec,spoil,error,match", [
    pytest.param((1, 3, 2, 1), _fermi_in_a_band, GapViolationError,
                 "fermi level 0.0 is within 2.5e-09 of the spectrum", id="fermi-in-a-band"),
    pytest.param((1, 3, 2, 1), _weyl_bands_shifted, VerificationError,
                 "rank mismatch weyl=0 reference=1", id="weyl-bands-shifted"),
    pytest.param((1, 4, 3, 1), _no_rounding_slack, ChernResidualError,
                 "weyl: lattice sum", id="no-rounding-slack"),
    # planted defects for the rounding guard (ROUND_TOL) and the rhs guard (RHS_TOL)
    pytest.param((1, 3, 2, 1), _gap_one_sum_offset("reference", 0.05), ChernResidualError,
                 r"^reference: lattice sum .* is 0\.05 from an integer$", id="reference-off-0.05"),
    pytest.param((1, 3, 2, 1), _gap_one_sum_offset("weyl", 0.005), VerificationError,
                 r"\|t_raw - q\[integral \+ eps\*cc\]\| = 0\.005$", id="weyl-off-0.005"),
])
def test_gap_certificates_raise_typed_failures(spec, spoil, error, match, monkeypatch):
    spoil(monkeypatch)
    with pytest.raises(error, match=match):
        gap_certificates(ctx_of(*spec), 16)


@pytest.mark.parametrize("M", [2, 23])
@pytest.mark.parametrize("G", [32, 64])
def test_gap_certificates_at_the_narrowest_open_slots(M, G):
    # gaps 2 and 21 of 2/25 and 23/25 are 1.86e-8 wide, open under GAP_TOL; their
    # midpoints lie 9.3e-9 from the spectrum, which FERMI_TOL < GAP_TOL / 2 clears
    assert spectral.FERMI_TOL < spectral.GAP_TOL / 2
    report = report_of(M, 25, 1, 0)
    assert min(g.upper - g.lower for g in report.internal()) < 2 * spectral.GAP_TOL
    certs = gap_certificates(ctx_of(M, 25, 1, 0), G)
    assert [c["gap"] for c in certs] == report.gaps and len(certs) == 24


@pytest.mark.parametrize("kind", ["reference", "weyl"])
def test_fhs_chern_names_the_family_in_a_residual_error(kind, monkeypatch):
    # one function for both kinds; its rounding failure says which family failed
    # (on 1/4 (3,1) at G = 16 both rank-1 sums are off an integer)
    monkeypatch.setattr(chern, "ROUND_TOL", 1e-300)
    field = (ref_gap_field if kind == "reference" else weyl_gap_field)(1, 4, 3, 1, 0, G=16)
    with pytest.raises(ChernResidualError, match=f"^{kind}: lattice sum"):
        fhs_chern(field)


def test_twisted_gap_one_values():
    assert fhs_chern(weyl_gap_field(1, 3, 1, 0, 0)).value == 0
    assert fhs_chern(weyl_gap_field(1, 3, 2, 1, 0)).value == 1


def test_twisted_matches_rhs_formula():
    # 2*(1/3 + (1/3 - 1/2)*(-1)) = 1, cross-checked against the lattice value
    res = fhs_chern(weyl_gap_field(1, 3, 2, 1, 0))
    rhs = tknn_rhs_value(1 / 3, -1, 1 / 3, 2, 1)
    assert res.raw == pytest.approx(rhs, abs=1e-3)


def test_pullback_scaling():
    base = ref_gap_field(1, 3, 1, 0, 0)
    c0 = fhs_chern(base).value
    assert c0 == -1
    assert fhs_chern(pullback_field(base, 1, 1)).value == c0
    assert fhs_chern(pullback_field(base, 2, 1)).value == 2 * c0
    assert fhs_chern(pullback_field(base, 1, 3)).value == 3 * c0
    assert fhs_chern(pullback_field(base, 2, 3)).value == 6 * c0
    assert fhs_chern(pullback_field(base, -1, 1)).value == -c0
    with pytest.raises(ValueError):
        pullback_field(base, 0, 1)


def _mirrored_and_full(rep, G):
    """(k1-mirrored bands, directly diagonalized bands) of h on the G x G grid."""
    h = hofstadter_element(rep.ctx.theta)
    bd, full = package_bands(rep, h, G), bands_on_grid(rep, h, G)
    assert (len(bd.frames), len(full.frames)) == (G // 2 + 1, G)
    return bd, full


@pytest.mark.parametrize("kind", ["reference", "weyl"])
@pytest.mark.parametrize("G", [15, 16])
def test_mirrored_fields_match_the_full_grid(kind, G):
    # dense projectors, their defects and the Chern numbers read off the half
    # rows equal those of eigh at every grid point
    ctx = ctx_of(2, 5, 3, 1)
    rep = reference_fibered_rep(ctx) if kind == "reference" else weyl_fibered_rep(ctx)
    bd, full = _mirrored_and_full(rep, G)
    for gap in hofstadter_gap_report(ctx).internal():
        f, g = fermi_projector_field(bd, gap.fermi), fermi_projector_field(full, gap.fermi)
        assert f.frames.shape[:2] == (G // 2 + 1, G) and g.frames.shape[:2] == (G, G)
        assert np.abs(dense_projector(f) - dense_projector(g)).max() < 1e-10
        defects = g.defects()
        for key, value in f.defects().items():
            assert value == pytest.approx(defects[key], abs=1e-12), key
        res, res_full = fhs_chern(f), fhs_chern(g)
        assert (res.value, res.grid) == (res_full.value, res_full.grid)
        assert res.grid == G
        assert res.raw == pytest.approx(res_full.raw, abs=1e-10)


@pytest.mark.parametrize("n1, n2", [(2, 1), (1, 3), (-1, 1), (3, 1)])
def test_pullback_of_a_mirrored_field(n1, n2):
    # the pullback keeps the stored rows; source rows n1 i mod G past G/2
    # (n1 = -1, 3) are read off the mirror
    rep = reference_fibered_rep(ctx_of(1, 3, 1, 0))
    gap = report_of(1, 3, 1, 0).internal()[0]
    for G in (31, 32):
        bd, full = _mirrored_and_full(rep, G)
        f = pullback_field(fermi_projector_field(bd, gap.fermi), n1, n2)
        g = pullback_field(fermi_projector_field(full, gap.fermi), n1, n2)
        assert f.frames.shape == (G // 2 + 1, G, 3, 1)
        assert g.frames.shape == (G, G, 3, 1)
        assert np.abs(dense_projector(f) - dense_projector(g)).max() < 1e-10
        res, res_full = fhs_chern(f), fhs_chern(g)
        assert res.value == res_full.value == -n1 * n2
        assert res.raw == pytest.approx(res_full.raw, abs=1e-10)


@pytest.mark.parametrize("G", [47, 48])
def test_numeric_trace_and_character_of_a_mirrored_field(G):
    # row 0 (and row G/2 at even G) counts once, every other stored row twice
    rep = reference_fibered_rep(ctx_of(1, 3, 1, 0), conjugated=True)
    bd, full = _mirrored_and_full(rep, G)
    gap = report_of(1, 3, 1, 0).internal()[0]
    f, g = fermi_projector_field(bd, gap.fermi), fermi_projector_field(full, gap.fermi)
    trace = np.trace(dense_projector(f), axis1=-2, axis2=-1)
    assert trace.real.mean() == pytest.approx(1.0, abs=1e-12)
    assert connes_chern_via_derivatives(f) == pytest.approx(
        connes_chern_via_derivatives(g), abs=1e-10)
    assert round(connes_chern_via_derivatives(f)) == -1
    res, res_full = fhs_chern(f), fhs_chern(g)
    assert (res.value, res.grid) == (res_full.value, res_full.grid) == (-3, G)


def test_certificates_from_mirrored_bands_match_the_full_grid(monkeypatch, eigh_matrices):
    # the streamed pass read off the orbit table of the mirror, the flip, sigma
    # and chi, against the same pass with the trivial group, which diagonalizes
    # every cell of the character grid
    ctx = ctx_of(3, 7, 3, 2)
    certs = gap_certificates(ctx, 16)
    symmetries = spectral._symmetries

    def trivial(ctx, a, G):
        symmetries(ctx, a, G)           # keeps the self-adjointness check
        return G, (False,) * 4

    monkeypatch.setattr(spectral, "_symmetries", trivial)
    full = gap_certificates(ctx, 16)
    assert sum(eigh_matrices) == orbit_count(16) + orbit_count(16, False, False, False, False)
    assert orbit_count(16, False, False, False, False) == 16 * 16
    for c, c_full in zip(certs, full, strict=True):
        assert c["record"] == dataclasses.replace(c_full["record"], residual=c["record"].residual)
        assert c["ncint"] == pytest.approx(c_full["ncint"], abs=1e-12)
        for key in ("t", "cc"):
            assert (c[key].value, c[key].grid) == (c_full[key].value, 16)
            assert c[key].raw == pytest.approx(c_full[key].raw, abs=1e-10)


def test_verify_full_projector_anchor():
    # the sup-gap certificate carries the whole field: t = q, s = 0, d = N
    rec = gap_certificates(ctx_of(2, 5, 3, 1), 16)[-1]["record"]
    assert (rec.t, rec.s, rec.d) == (3, 0, 5)


def test_gap_records_classical_table():
    recs = [c["record"] for c in certs_of(1, 3, 1, 0, 24)]
    assert [(r.t, r.s, r.d) for r in recs] == [(0, 0, 0), (0, 1, 1), (1, -1, 2), (1, 0, 3)]
    assert all(r.residual < 1e-6 for r in recs)


def test_gap_records_even_denominator():
    recs = [c["record"] for c in certs_of(1, 2, 1, 0, 24)]
    assert [(r.t, r.s, r.d) for r in recs] == [(0, 0, 0), (1, 0, 2)]


def test_gap_records_generalized_context():
    recs = [c["record"] for c in certs_of(1, 3, 2, 1, 24)]
    assert [(r.t, r.s, r.d) for r in recs] == [(0, 0, 0), (1, 1, 1), (1, -1, 2), (2, 0, 3)]


def test_band_chern_sum_rule():
    for spec in [(1, 3, 1, 0), (2, 5, 3, 1)]:
        certs = certs_of(*spec, 24)
        q = ctx_of(*spec).q
        ts = [c["record"].t for c in certs]
        ccs = [c["cc"].value for c in certs]
        assert sum(b - a for a, b in zip(ts[:-1], ts[1:])) == q
        assert sum(b - a for a, b in zip(ccs[:-1], ccs[1:])) == 0


def test_duality_and_solver_consistency():
    for spec in [(1, 3, 1, 0), (1, 3, 2, 1), (2, 5, 3, 2), (1, 5, 2, 1)]:
        ctx = ctx_of(*spec)
        for cert in certs_of(*spec, 24):
            rec = cert["record"]
            cc = cert["cc"].value
            assert ctx.N * rec.t == ctx.M0 * cc + rec.d * ctx.q
            assert cert["solver_match"] is True
            # exact trace d/N: the rhs is t, and its residual is t's rounding
            assert cert["ncint"] == rec.d / ctx.N
            assert abs(cert["rhs"] - rec.t) <= 1e-12
            assert cert["rhs_residual"] == pytest.approx(abs(cert["t"].raw - rec.t), abs=1e-12)
            assert tknn_solve(ctx, rec.d) == (rec.t, rec.s)


def test_solver_mismatch_is_a_verification_failure(shifted_solver):
    with pytest.raises(VerificationError, match="tknn_solve gives"):
        gap_certificates(ctx_of(1, 3, 1, 0), 16)


def test_window_constraint_for_untwisted_contexts():
    for spec in [(1, 3, 1, 0), (1, 5, 1, 0), (2, 5, 1, 0)]:
        for cert in certs_of(*spec, 24):
            rec = cert["record"]
            assert 2 * abs(rec.s) < ctx_of(*spec).N or rec.s == 0
    # a certificate's (t, s) is tknn_solve's wherever that solves, so at q = 1 it
    # keeps 2|s| < N on every gap that tknn_solve solves: every gap of the exact
    # report, as the one residue it excludes, s = N/2, is d = N/2, the even-N
    # central slot that the report closes
    for th in farey_fractions(20):
        ctx = ctx_of(th.M, th.N, 1, 0)
        for gap in hofstadter_gap_report(ctx).gaps:
            t, s = tknn_solve(ctx, gap.d)
            assert 2 * abs(s) < ctx.N


def test_crosscheck_trivial_and_monomials():
    ctx = ctx_of(1, 3, 1, 0)
    assert symbolic_numeric_crosscheck(unit(ctx.theta), ctx, 32) < 1e-12
    assert symbolic_numeric_crosscheck(monomial(ctx.theta, 2, -1), ctx, 32) < 1e-12
    assert symbolic_numeric_crosscheck(monomial(ctx.theta, 3, 0), ctx, 32) < 1e-12


def test_crosscheck_random_elements(rng):
    ctx = ctx_of(2, 5, 3, 1)
    for _ in range(10):
        a = random_element(ctx.theta, 4, rng)
        assert symbolic_numeric_crosscheck(a, ctx, 32) < 1e-10


def test_crosscheck_grid_precondition(rng):
    ctx = ctx_of(1, 3, 1, 0)
    a = random_element(ctx.theta, 4, rng)
    with pytest.raises(ValueError):
        symbolic_numeric_crosscheck(a, ctx, 16)


def test_grid_stability_24_vs_48():
    for spec in [(1, 3, 1, 0), (1, 3, 2, 1)]:
        r24 = [(c["record"].t, c["record"].s) for c in certs_of(*spec, 24)]
        r48 = [(c["record"].t, c["record"].s) for c in certs_of(*spec, 48)]
        assert r24 == r48


@pytest.mark.parametrize("spec,passes", [((1, 3, 2, 1), 1), ((0, 1, 1, 0), 1),
                                         ((2, 5, 3, 2), 1)])
def test_gap_certificates_one_spectral_pass_per_rep_and_grid(band_passes, eigh_matrices,
                                                             spec, passes):
    # one orbit table per (context, grid) feeds both families: 16 cells of the
    # 12 x 12 character grid at M0 = -1, 0 and -4 alike, whatever gcd(M0, 12)
    # and at theta = r/q, where the weyl family is constant in k2
    ctx = ctx_of(*spec)
    gap_certificates(ctx, 12)
    assert band_passes == [(ctx.M, ctx.N, "dual", 12)] * passes
    assert eigh_matrices == [orbit_count(12)] == [16]


CERTIFY_SMALL = [(M, N, q, r) for M, N in [(1, 3), (1, 5), (2, 5), (3, 7)]
                 for q, r in [(1, 0), (2, 1), (3, 1), (3, 2)] if math.gcd(N, q) == 1]


def test_orbit_tables_take_289_matrices_per_context_at_64(eigh_matrices):
    # the D4 x chi orbits of the 64 x 64 character grid: 289 for odd N, and
    # 561 for even N, where chi is no symmetry; a pass diagonalized 1,089
    # points per context before, and more where gcd(M0, 64) > 1
    counts = []
    for spec in CERTIFY_SMALL + [(8, 13, 2, 1), (5, 8, 3, -2)]:
        ctx = ctx_of(*spec)
        done = sum(eigh_matrices)
        next(spectral.dual_band_blocks(ctx, hofstadter_element(ctx.theta), 64))
        counts.append(sum(eigh_matrices) - done)
    assert len(CERTIFY_SMALL) == 14
    assert counts == [289] * 15 + [561]
    assert sum(counts[:14]) == 4046
    assert (orbit_count(64), orbit_count(64, chi=False)) == (289, 561)


@pytest.mark.parametrize("spec, G", [
    pytest.param((0, 1, 1, 0), 9, id="M0=0"),
    pytest.param((2, 5, 3, 2), 12, id="gcd(M0,G)=4"),
    pytest.param((8, 13, 2, 1), 15, id="odd-G"),
    pytest.param((1, 3, 2, 1), 16, id="1/3"),
    pytest.param((3, 7, 3, 2), 6, id="failing"),
])
@pytest.mark.parametrize("one_row", [False, True])
def test_streamed_certificates_equal_the_band_data_ones(spec, G, one_row, monkeypatch):
    # one band pass in row blocks feeds both families' multi-rank kernels; each
    # certificate's Chern numbers equal fhs_chern of its own Fermi field, one
    # rank at a time, on whole bands of each family diagonalized on their own
    if one_row:
        monkeypatch.setattr(chern._kernels, "BLOCK_BYTES", 1)
    ctx = ctx_of(*spec)
    if spec == (3, 7, 3, 2):
        # the twisted Chern number is an integer, but a wrong one at G = 6
        with pytest.raises(VerificationError) as failure:
            gap_certificates(ctx, G)
        assert str(failure.value) == "theta=3/7 rep=(3,2) gap d=2: N*t + M0*s = 16 != q*d = 6"
        return
    certs = gap_certificates(ctx, G)
    report = report_of(*spec)
    assert [c["gap"] for c in certs] == report.gaps
    h = hofstadter_element(ctx.theta)
    families = {"cc": package_bands(reference_fibered_rep(ctx), h, G),
                "t": package_bands(weyl_fibered_rep(ctx), h, G)}
    for c, gap in zip(certs, report.gaps):
        for key, bd in families.items():
            field = fermi_projector_field(bd, gap.fermi)
            res = fhs_chern(field)
            assert field.rank == c["record"].d
            assert (c[key].value, c[key].grid) == (res.value, G), key
            assert c[key].raw == pytest.approx(res.raw, abs=1e-10), key


def test_band_edges_are_taken_once_per_family(monkeypatch):
    # every gap's Fermi rank reads its family's [lo, hi] per band, not the grid
    calls = []
    edges = chern.band_edges
    monkeypatch.setattr(chern, "band_edges", lambda E: calls.append(E.shape) or edges(E))
    assert len(gap_certificates(ctx_of(2, 5, 3, 1), 16)) == 6
    assert calls == [(9, 9, 5)] * 2                # the diagonalized quarter grid
    calls.clear()
    gap_certificates(ctx_of(0, 1, 1, 0), 8)
    assert calls == [(5, 5, 1)] * 2


def test_the_certificate_at_r_over_q_reads_the_seam(monkeypatch):
    # theta = r/q: t is the weyl kernel's seam-closed sum, not q d asserted, so a
    # transport that winds twice makes the certificate fail
    monkeypatch.setattr(chern, "twist_transport", lambda ctx, k1: shift_matrix_power(
        ctx.N, np.exp(2j * np.pi * ctx.q * np.asarray(k1)), -2))
    with pytest.raises(VerificationError) as failure:
        gap_certificates(ctx_of(0, 1, 1, 0), 8)
    assert str(failure.value) == "theta=0/1 rep=(1,0) gap d=1: N*t + M0*s = 2 != q*d = 1"


def test_certificates_carry_the_exact_report_gaps():
    # the colored butterfly draws its bands and gap rectangles from these gaps
    for spec in ((2, 5, 3, 2), (0, 1, 1, 0)):
        certs = gap_certificates(ctx_of(*spec), 12)
        assert [c["gap"] for c in certs] == report_of(*spec).gaps


def test_streamed_certificates_hold_no_whole_frames():
    # one family's block of frames is in flight at a time: 8/13 at G = 64 takes
    # blocks of 3 rows, and its traced peak stays within 6 of them (3.1 MB), the
    # block a kernel sums, that kernel's link buffer of two blocks, and room for
    # the carried rows, the energies and the elimination's temporaries, beside
    # the orbit table's 289 frames (0.78 MB).  Both families' stored frames are
    # 11.4 MB; holding both families' blocks and a row-0 copy per kernel peaked
    # at 3.3 MB
    ctx = ctx_of(8, 13, 2, 1)
    row = 64 * 13 * 13 * 16
    block = _kernels.block_rows(row) * row
    table = orbit_count(64) * 13 * 13 * 16
    tracemalloc.start()
    try:
        certs = gap_certificates(ctx, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(certs) == 14
    assert peak < 6 * block + table
