"""Topological layer: lattice Chern numbers, duality, conductance triples."""

import dataclasses

import numpy as np
import pytest

from conftest import bands_of, certs_of, ctx_of, full_grid_bands, report_of

from nctorus import chern
from nctorus.algebra import hofstadter_element, monomial, random_element, unit
from nctorus.arithmetic import tknn_rhs_value, tknn_solve
from nctorus.chern import (
    ChernResidualError,
    GridTooCoarseError,
    VerificationError,
    ambient_chern_analytic,
    certify_gaps,
    connes_chern_via_derivatives,
    fhs_chern,
    gap_bands,
    gap_certificates,
    pullback_field,
    symbolic_numeric_crosscheck,
)
from nctorus.representations import reference_fibered_rep, weyl_fibered_rep
from nctorus.spectral import (
    GapViolationError,
    ProjectorField,
    bands_on_grid,
    constant_projector_field,
    fermi_projector_field,
    hofstadter_gap_report,
    identity_field,
)


def ref_gap_field(M, N, q, r, gap_index, G=32, conjugated=False):
    gap = report_of(M, N, q, r).internal()[gap_index]
    if conjugated:
        ctx = ctx_of(M, N, q, r)
        from nctorus.algebra import hofstadter_element
        bd = bands_on_grid(reference_fibered_rep(ctx, conjugated=True),
                           hofstadter_element(ctx.theta), G)
    else:
        bd = bands_of(M, N, q, r, "reference", G)
    return fermi_projector_field(bd, gap.fermi)


def weyl_gap_field(M, N, q, r, gap_index, G=32):
    gap = report_of(M, N, q, r).internal()[gap_index]
    return fermi_projector_field(bands_of(M, N, q, r, "weyl", G), gap.fermi)


def test_ambient_chern_analytic():
    assert ambient_chern_analytic(3, 1) == 1
    assert ambient_chern_analytic(5, 3) == 3
    assert ambient_chern_analytic(1, 1) == 1
    with pytest.raises(ValueError):
        ambient_chern_analytic(6, 3)
    with pytest.raises(ValueError):
        ambient_chern_analytic(5, 0)


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
    assert res.value == ambient_chern_analytic(N, q) == q
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
    # every gap's rank reads blocks of one family's shared link overlaps
    calls = []
    kernel = chern._kernels.plaquette_flux_sum

    def recorded(frames, ranks, seam=None, rows=None):
        calls.append((frames.shape, list(ranks), None if seam is None else seam.shape, rows))
        return kernel(frames, ranks, seam, rows)

    monkeypatch.setattr(chern._kernels, "plaquette_flux_sum", recorded)
    certs = gap_certificates(ctx_of(2, 5, 3, 1), 16)
    ranks = [c["record"].d for c in certs[1:]]
    assert ranks == [1, 2, 3, 4, 5]
    # the k1-mirrored bands hand over their diagonalized rows 0 .. G/2
    assert calls == [((9, 16, 5, 5), [0] + ranks, (9, 5, 5), 16),    # weyl, through its seam
                     ((9, 16, 5, 5), [0] + ranks, None, 16)]         # reference
    assert {c["cc"].grid for c in certs} == {c["t"].grid for c in certs} == {16}
    calls.clear()
    gap_certificates(ctx_of(0, 1, 1, 0), 12)      # theta = r/q: no twisted family
    assert calls == [((7, 12, 1, 1), [0, 1], None, 12)]


def test_orthogonal_neighbour_frames_are_too_coarse():
    # the frame turns from e0 to e1 between k1 = 2/8 and 3/8: those links vanish
    rep = reference_fibered_rep(ctx_of(1, 3, 1, 0))
    k = np.arange(8) / 8
    frames = np.zeros((8, 8, 3, 1), complex)
    frames[:3, :, 0, 0] = 1.0
    frames[3:, :, 1, 0] = 1.0
    with pytest.raises(GridTooCoarseError, match="magnitude 0 < 1e-06"):
        fhs_chern(ProjectorField(rep, k, k, frames))


def test_link_guard_on_the_certificate_path(monkeypatch):
    # |det| <= 1 for every link, so no grid clears this threshold
    monkeypatch.setattr(chern, "MIN_LINK_DET", 1.5)
    with pytest.raises(GridTooCoarseError, match="< 1.5"):
        gap_certificates(ctx_of(1, 3, 2, 1), 16)


def _fermi_in_a_band(report, bd_r, bd_w, monkeypatch):
    gaps = list(report.gaps)
    gaps[1] = dataclasses.replace(gaps[1], fermi=0.0)
    return dataclasses.replace(report, gaps=gaps), bd_r, bd_w


def _weyl_bands_shifted(report, bd_r, bd_w, monkeypatch):
    return report, bd_r, dataclasses.replace(bd_w, energies=bd_w.energies + 2.0)


def _no_rounding_slack(report, bd_r, bd_w, monkeypatch):
    # on 1/4 (3,1) rank 0's sums are exactly 0 and both rank-1 sums of gap 1
    # are off an integer, so the weyl one, rounded first, fails
    monkeypatch.setattr(chern, "ROUND_TOL", 1e-300)
    return report, bd_r, bd_w


@pytest.mark.parametrize("spec,spoil,error,match", [
    pytest.param((1, 3, 2, 1), _fermi_in_a_band, GapViolationError,
                 "fermi level 0.0 is within 1e-08 of the spectrum", id="fermi-in-a-band"),
    pytest.param((1, 3, 2, 1), _weyl_bands_shifted, VerificationError,
                 "rank mismatch weyl=0 reference=1", id="weyl-bands-shifted"),
    pytest.param((1, 4, 3, 1), _no_rounding_slack, ChernResidualError,
                 "weyl: lattice sum", id="no-rounding-slack"),
])
def test_certify_gaps_raises_typed_failures(spec, spoil, error, match, monkeypatch):
    ctx = ctx_of(*spec)
    args = spoil(*gap_bands(ctx, 16), monkeypatch)
    with pytest.raises(error, match=match):
        certify_gaps(ctx, *args)


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
    bd, full = bands_on_grid(rep, h, G), full_grid_bands(rep, h, G)
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
        assert f.shape == g.shape == (G, G)
        assert np.abs(f.P - g.P).max() < 1e-10
        defects = g.defects()
        for key, value in f.defects().items():
            assert value == pytest.approx(defects[key], abs=1e-12), key
        res, res_full = fhs_chern(f), fhs_chern(g)
        assert (res.value, res.grid) == (res_full.value, res_full.grid)
        assert res.grid == G
        assert res.raw == pytest.approx(res_full.raw, abs=1e-10)


@pytest.mark.parametrize("n1, n2", [(2, 1), (1, 3), (-1, 1)])
def test_pullback_of_a_mirrored_field(n1, n2):
    rep = reference_fibered_rep(ctx_of(1, 3, 1, 0))
    bd, full = _mirrored_and_full(rep, 32)
    gap = report_of(1, 3, 1, 0).internal()[0]
    f = pullback_field(fermi_projector_field(bd, gap.fermi), n1, n2)
    g = pullback_field(fermi_projector_field(full, gap.fermi), n1, n2)
    assert f.frames.shape == g.frames.shape == (32, 32, 3, 1)
    assert np.abs(f.P - g.P).max() < 1e-10
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
    assert np.trace(f.P, axis1=-2, axis2=-1).real.mean() == pytest.approx(1.0, abs=1e-12)
    assert connes_chern_via_derivatives(f) == pytest.approx(
        connes_chern_via_derivatives(g), abs=1e-10)
    assert round(connes_chern_via_derivatives(f)) == -1
    res, res_full = fhs_chern(f), fhs_chern(g)
    assert (res.value, res.grid) == (res_full.value, res_full.grid) == (-3, G)


def test_certificates_from_mirrored_bands_match_the_full_grid():
    ctx = ctx_of(3, 7, 3, 2)
    report = hofstadter_gap_report(ctx)
    bd_r, full_r = _mirrored_and_full(reference_fibered_rep(ctx), 16)
    bd_w, full_w = _mirrored_and_full(weyl_fibered_rep(ctx), 16)
    certs = certify_gaps(ctx, report, bd_r, bd_w)
    for c, c_full in zip(certs, certify_gaps(ctx, report, full_r, full_w), strict=True):
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
    # the weyl pass on the quarter grid (k1 rows and k2 columns 0 .. 6), and
    # reference eigh only on the columns k2 = j/12, j <= 6, that no weyl column
    # reaches: none at M0 = -1, the 5 with 4 not dividing j at M0 = -4; theta =
    # r/q has no weyl family and takes the reference pass
    ctx = ctx_of(*spec)
    gap_certificates(ctx, 12)
    kind = "reference" if ctx.M0 == 0 else "weyl"
    assert band_passes == [(ctx.M, ctx.N, kind, 12)] * passes
    own = {0: 0, -1: 0, -4: 5}[ctx.M0]
    assert eigh_matrices == [7 * 7] + ([7 * own] if own else [])
