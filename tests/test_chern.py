"""Topological layer: lattice Chern numbers, duality, conductance triples."""

import dataclasses

import numpy as np
import pytest

from conftest import bands_of, certs_of, ctx_of, report_of

from nctorus import chern
from nctorus.algebra import monomial, random_element, unit
from nctorus.arithmetic import tknn_rhs_value, tknn_solve
from nctorus.chern import (
    ChernResidualError,
    GridTooCoarseError,
    VerificationError,
    ambient_chern_analytic,
    certify_gaps,
    connes_chern_numeric,
    connes_chern_via_derivatives,
    fhs_chern,
    fhs_chern_twisted,
    gap_bands,
    gap_certificates,
    nc_integral_numeric,
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
    identity_field,
)


def ref_gap_field(M, N, q, r, gap_index, G=32, conjugated=False):
    gap = report_of(M, N, q, r, G).internal()[gap_index]
    if conjugated:
        ctx = ctx_of(M, N, q, r)
        from nctorus.algebra import hofstadter_element
        bd = bands_on_grid(reference_fibered_rep(ctx, conjugated=True),
                           hofstadter_element(ctx.theta), G)
    else:
        bd = bands_of(M, N, q, r, "reference", G)
    return fermi_projector_field(bd, gap.fermi)


def weyl_gap_field(M, N, q, r, gap_index, G=32):
    gap = report_of(M, N, q, r, G).internal()[gap_index]
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


def test_fhs_chern_requires_periodic_field():
    f = weyl_gap_field(1, 3, 1, 0, 0)
    with pytest.raises(ValueError):
        fhs_chern(f)
    g = ref_gap_field(1, 3, 1, 0, 0)
    with pytest.raises(ValueError):
        fhs_chern_twisted(g)


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
    assert fhs_chern(f).value == -3
    assert connes_chern_numeric(f).value == -1


def test_connes_chern_numeric_values():
    rep = reference_fibered_rep(ctx_of(1, 3, 1, 0))
    assert connes_chern_numeric(identity_field(rep, 16)).value == 0
    zero_field = constant_projector_field(rep, 16, np.zeros((3, 3), complex))
    assert connes_chern_numeric(zero_field).value == 0
    assert connes_chern_numeric(ref_gap_field(1, 3, 1, 0, 0)).value == -1


def test_nc_integral_numeric():
    rep = reference_fibered_rep(ctx_of(1, 3, 1, 0))
    assert nc_integral_numeric(identity_field(rep, 16)) == pytest.approx(1.0, abs=1e-12)
    zero_field = constant_projector_field(rep, 16, np.zeros((3, 3), complex))
    assert nc_integral_numeric(zero_field) == 0.0
    assert nc_integral_numeric(ref_gap_field(1, 3, 1, 0, 0)) == pytest.approx(1 / 3, abs=1e-10)


@pytest.mark.parametrize("spec", [(1, 3, 1, 0), (1, 3, 2, 1), (1, 5, 2, 1),
                                  (2, 5, 3, 2), (1, 7, 3, 1)])
def test_twisted_identity_anchor(spec):
    M, N, q, r = spec
    ctx = ctx_of(M, N, q, r)
    res = fhs_chern_twisted(identity_field(weyl_fibered_rep(ctx), 24))
    assert res.value == ambient_chern_analytic(N, q) == q
    assert res.residual < 1e-10


def test_twisted_chern_kernel_input_is_the_field(monkeypatch):
    # the seam closes the base lattice: no copies of the frames along k2
    shapes = []
    kernel = chern._kernels.plaquette_flux_sum

    def recorded(frames, ranks, seam=None):
        shapes.append(frames.shape)
        return kernel(frames, ranks, seam)

    monkeypatch.setattr(chern._kernels, "plaquette_flux_sum", recorded)
    assert fhs_chern_twisted(weyl_gap_field(2, 5, 3, 1, 1, G=24)).value == 1
    assert shapes == [(24, 24, 5, 2)]


def test_certificates_make_one_kernel_call_per_family(monkeypatch):
    # every gap's rank reads blocks of one family's shared link overlaps
    calls = []
    kernel = chern._kernels.plaquette_flux_sum

    def recorded(frames, ranks, seam=None):
        calls.append((frames.shape, list(ranks), None if seam is None else seam.shape))
        return kernel(frames, ranks, seam)

    monkeypatch.setattr(chern._kernels, "plaquette_flux_sum", recorded)
    certs = gap_certificates(ctx_of(2, 5, 3, 1), 16)
    ranks = [c["record"].d for c in certs[1:]]
    assert ranks == [1, 2, 3, 4, 5]
    assert calls == [((16, 16, 5, 5), [0] + ranks, (16, 5, 5)),     # weyl, through its seam
                     ((16, 16, 5, 5), [0] + ranks, None)]           # reference
    calls.clear()
    gap_certificates(ctx_of(0, 1, 1, 0), 12)      # theta = r/q: no twisted family
    assert calls == [((12, 12, 1, 1), [0, 1], None)]


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
    # rank 0's sum is exactly 0, so only the weyl rank-1 sum of gap 1 fails
    monkeypatch.setattr(chern, "ROUND_TOL", 1e-300)
    return report, bd_r, bd_w


@pytest.mark.parametrize("spoil,error,match", [
    pytest.param(_fermi_in_a_band, GapViolationError,
                 "fermi level 0.0 is within 1e-08 of the spectrum", id="fermi-in-a-band"),
    pytest.param(_weyl_bands_shifted, VerificationError,
                 "rank mismatch weyl=0 reference=1", id="weyl-bands-shifted"),
    pytest.param(_no_rounding_slack, ChernResidualError,
                 "fhs_chern_twisted: lattice sum", id="no-rounding-slack"),
])
def test_certify_gaps_raises_typed_failures(spoil, error, match, monkeypatch):
    ctx = ctx_of(1, 3, 2, 1)
    args = spoil(*gap_bands(ctx, 16), monkeypatch)
    with pytest.raises(error, match=match):
        certify_gaps(ctx, *args)


def test_twisted_gap_one_values():
    assert fhs_chern_twisted(weyl_gap_field(1, 3, 1, 0, 0)).value == 0
    assert fhs_chern_twisted(weyl_gap_field(1, 3, 2, 1, 0)).value == 1


def test_twisted_matches_rhs_formula():
    # 2*(1/3 + (1/3 - 1/2)*(-1)) = 1, cross-checked against the lattice value
    res = fhs_chern_twisted(weyl_gap_field(1, 3, 2, 1, 0))
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


@pytest.mark.parametrize("spec,passes", [((1, 3, 2, 1), 2), ((0, 1, 1, 0), 1)])
def test_gap_certificates_one_spectral_pass_per_rep_and_grid(band_passes, spec, passes):
    # reference and weyl at G (no weyl pass when theta = r/q collapses it)
    gap_certificates(ctx_of(*spec), 12)
    assert len(band_passes) == len(set(band_passes)) == passes
