"""Spectral layer: band data, gap detection, Fermi projector fields."""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import bands_of, ctx_of, full_grid_bands, report_of

from nctorus import cli, spectral
from nctorus.algebra import AlgebraElement, hofstadter_element, monomial, unit
from nctorus.arithmetic import gap_label_d
from nctorus.representations import (
    evaluate_at_k,
    evaluate_on_grid,
    reference_fibered_rep,
    twist_transport,
    weyl_fibered_rep,
)
from nctorus.spectral import (
    GapViolationError,
    SelfAdjointnessError,
    band_energies,
    band_rows,
    bands_on_grid,
    constant_projector_field,
    dual_bands,
    expand_k1_mirror,
    fermi_projector_field,
    hofstadter_energies,
    hofstadter_gap_report,
    identity_field,
    spectral_hausdorff,
)

SQRT3 = math.sqrt(3.0)


def test_two_band_energies_at_origin():
    ctx = ctx_of(1, 2, 1, 0)
    bd = bands_on_grid(weyl_fibered_rep(ctx), hofstadter_element(ctx.theta), 1)
    assert bd.energies[0, 0] == pytest.approx(
        [-2 * math.sqrt(2), 2 * math.sqrt(2)], abs=1e-13)


def test_unit_element_is_flat():
    ctx = ctx_of(1, 3, 1, 0)
    bd = bands_on_grid(weyl_fibered_rep(ctx), unit(ctx.theta), 4)
    assert np.allclose(bd.energies, 1.0, atol=1e-14)


def test_rejects_non_selfadjoint():
    ctx = ctx_of(1, 3, 1, 0)
    for entry in (bands_on_grid, band_energies):
        with pytest.raises(SelfAdjointnessError):
            entry(weyl_fibered_rep(ctx), monomial(ctx.theta, 1, 0), 4)


def test_frames_are_orthonormal():
    bd = bands_of(1, 3, 1, 0, "weyl", 16)
    assert bd.frames.shape == (9, 16, 3, 3)     # k1-mirrored: rows 0 .. G/2 stored
    F = expand_k1_mirror(bd.frames, 16)
    G = np.einsum("ijab,ijac->ijbc", F.conj(), F)
    assert np.abs(G - np.eye(3)).max() < 1e-12


MIRROR_FAMILIES = [
    pytest.param(weyl_fibered_rep, id="weyl"),
    pytest.param(reference_fibered_rep, id="reference"),
    pytest.param(lambda ctx: reference_fibered_rep(ctx, conjugated=True), id="conjugated"),
]


def _gap_ranks(energies):
    """Ranks R whose band R-1 stays strictly below band R over the whole grid."""
    N = energies.shape[-1]
    return [R for R in range(1, N) if energies[..., R].min() - energies[..., R - 1].max() > 1e-6]


def _projector(F, R):
    return F[..., :R] @ np.conj(np.swapaxes(F[..., :R], -1, -2))


@pytest.mark.parametrize("family", MIRROR_FAMILIES)
@pytest.mark.parametrize("M, N, q, r", [(8, 13, 2, 1), (3, 7, 3, 2)])
@pytest.mark.parametrize("G", [7, 16])
def test_k1_mirror_matches_full_grid(family, M, N, q, r, G, eigh_matrices, eigvalsh_matrices):
    ctx = ctx_of(M, N, q, r)
    rep, h = family(ctx), hofstadter_element(ctx.theta)
    bd = bands_on_grid(rep, h, G)
    assert eigh_matrices == [(G // 2 + 1) ** 2]      # the flip halves the diagonalized k2 columns
    assert bd.frames.shape[:2] == (G // 2 + 1, G)
    assert np.abs(band_energies(rep, h, G) - bd.energies).max() < 1e-12
    assert eigvalsh_matrices == [(G // 2 + 1) ** 2]
    direct = full_grid_bands(rep, h, G)
    E, F = direct.energies, direct.frames
    assert np.abs(bd.energies - E).max() < 1e-12
    ranks = [g.d for g in hofstadter_gap_report(ctx).internal()]
    assert ranks and set(ranks) <= set(_gap_ranks(E))
    for R in ranks:
        assert np.abs(_projector(expand_k1_mirror(bd.frames, G), R)
                      - _projector(F, R)).max() < 1e-10


@pytest.mark.parametrize("family", MIRROR_FAMILIES)
@pytest.mark.parametrize("M, N, q, r", [(8, 13, 2, 1), (3, 7, 3, 2)])
@pytest.mark.parametrize("G", [7, 16])
def test_element_without_k1_mirror_takes_full_grid(family, M, N, q, r, G, eigh_matrices,
                                                   eigvalsh_matrices):
    # h + i(v - v*) is self-adjoint, but its v-coefficient 1 + i is not real,
    # so conj(pi_k) is not pi_(-k1, k2) and no row may be mirrored
    ctx = ctx_of(M, N, q, r)
    a = AlgebraElement(ctx.theta, {(1, 0): 1, (-1, 0): 1, (0, 1): 1 + 1j, (0, -1): 1 - 1j})
    rep = family(ctx)
    bd = bands_on_grid(rep, a, G)
    assert eigh_matrices == [G * G]
    assert bd.frames.shape[0] == G
    assert np.abs(band_energies(rep, a, G) - bd.energies).max() < 1e-12
    assert eigvalsh_matrices == [G * G]
    direct = full_grid_bands(rep, a, G)
    E, F = direct.energies, direct.frames
    assert np.abs(bd.energies - E).max() < 1e-12
    for R in _gap_ranks(E):
        assert np.abs(_projector(bd.frames, R) - _projector(F, R)).max() < 1e-10
    k = np.arange(G) / G
    mirrored = np.conj(evaluate_on_grid(rep, a, (-k) % 1.0, k))
    assert np.abs(mirrored - evaluate_on_grid(rep, a, k, k)).max() > 0.1


@pytest.mark.parametrize("family", MIRROR_FAMILIES)
@pytest.mark.parametrize("M, N, q, r", [(1, 2, 1, 0), (3, 7, 3, 2), (3, 8, 3, 1), (8, 13, 2, 1)])
@pytest.mark.parametrize("G", [6, 7, 15, 16])
def test_flipped_columns_are_eigenbases(family, M, N, q, r, G):
    # columns G//2 + 1 .. G - 1 of the stored rows are filled by the flip
    # intertwiner, not diagonalized; each must still solve pi_k(h) F = F diag(E)
    # at its own k, the weyl seam k2 = -j/G + 1 included
    ctx = ctx_of(M, N, q, r)
    rep, h = family(ctx), hofstadter_element(ctx.theta)
    bd = bands_on_grid(rep, h, G)
    rows = G // 2 + 1
    assert bd.frames.shape == (rows, G, N, N)
    F, E = bd.frames, bd.energies[:rows]
    H = evaluate_on_grid(rep, h, bd.k1s[:rows], bd.k2s)
    assert np.abs(H @ F - F * E[..., None, :]).max() < 1e-12
    assert np.abs(np.conj(np.swapaxes(F, -1, -2)) @ F - np.eye(N)).max() < 1e-12
    direct = full_grid_bands(rep, h, G)
    assert np.abs(bd.energies - direct.energies).max() < 1e-12
    F = expand_k1_mirror(F, G)
    for R in [g.d for g in hofstadter_gap_report(ctx).internal()]:
        assert np.abs(_projector(F, R) - _projector(direct.frames, R)).max() < 1e-10


@pytest.mark.parametrize("family", MIRROR_FAMILIES)
@pytest.mark.parametrize("G", [7, 16])
def test_element_without_the_flip_takes_full_grid(family, G, eigh_matrices,
                                                   eigvalsh_matrices):
    # h + i(u - u*) has the k1 mirror, a(1, 0) = 1 + i = conj a(-1, 0), but not
    # the flip, a(1, 0) != a(-1, 0): no row or column may be skipped
    ctx = ctx_of(8, 13, 2, 1)
    a = AlgebraElement(ctx.theta, {(1, 0): 1 + 1j, (-1, 0): 1 - 1j, (0, 1): 1, (0, -1): 1})
    rep = family(ctx)
    bd = bands_on_grid(rep, a, G)
    assert eigh_matrices == [G * G]
    assert bd.frames.shape == (G, G, 13, 13)
    assert np.abs(band_energies(rep, a, G) - bd.energies).max() < 1e-12
    assert eigvalsh_matrices == [G * G]
    direct = full_grid_bands(rep, a, G)
    assert np.abs(bd.energies - direct.energies).max() < 1e-12
    ranks = _gap_ranks(direct.energies)
    assert ranks
    for R in ranks:
        assert np.abs(_projector(bd.frames, R) - _projector(direct.frames, R)).max() < 1e-10
    k = np.arange(G) / G
    flipped = evaluate_on_grid(rep, a, (-k) % 1.0, (-k) % 1.0)
    assert np.abs(np.linalg.eigvalsh(flipped) - direct.energies).max() > 0.1


@pytest.mark.parametrize("mirrored", [True, False], ids=["h", "no-mirror"])
@pytest.mark.parametrize("M, N, q, r", [(8, 13, 2, 1), (1, 5, 3, 1), (2, 5, 3, 2)])
@pytest.mark.parametrize("G", [15, 16])
def test_dual_bands_read_the_reference_off_the_weyl_pass(M, N, q, r, G, mirrored,
                                                         eigh_matrices):
    # M0 = 3, -2, -4: g = gcd(M0, G) is 1, 2, 4 at G = 16 and 3, 1, 1 at G = 15
    ctx = ctx_of(M, N, q, r)
    a = hofstadter_element(ctx.theta) if mirrored else AlgebraElement(
        ctx.theta, {(1, 0): 1, (-1, 0): 1, (0, 1): 1 + 1j, (0, -1): 1 - 1j})
    bd_r, bd_w = dual_bands(ctx, a, G)
    g = math.gcd(ctx.M0, G)
    rows = cols = G // 2 + 1 if mirrored else G        # h: the quarter grid, then filled
    own = sum(j % g != 0 for j in range(cols))
    assert sum(eigh_matrices) == rows * (cols + own)
    assert len(bd_r.frames) == len(bd_w.frames) == rows
    assert bd_r.rep == reference_fibered_rep(ctx) and bd_w.rep == weyl_fibered_rep(ctx)
    direct = full_grid_bands(reference_fibered_rep(ctx), a, G)
    assert np.abs(bd_r.energies - direct.energies).max() < 1e-12
    ranks = _gap_ranks(direct.energies)
    assert ranks
    F = expand_k1_mirror(bd_r.frames, G)
    for R in ranks:
        assert np.abs(_projector(F, R) - _projector(direct.frames, R)).max() < 1e-10


def test_gap_structure_theta_third():
    report = report_of(1, 3, 1, 0)
    assert report.bands == 3
    assert len(report.gaps) == 4          # inf, two internal, sup
    assert [g.d for g in report.gaps] == [0, 1, 2, 3]
    internal = report.internal()
    # band edges of the three-band flux spectrum: +-(1+sqrt(3)), +-2, +-(sqrt(3)-1)
    assert internal[0].lower == pytest.approx(-2.0, abs=1e-6)
    assert internal[0].upper == pytest.approx(-(SQRT3 - 1), abs=1e-6)
    assert internal[1].lower == pytest.approx(SQRT3 - 1, abs=1e-6)
    assert internal[1].upper == pytest.approx(2.0, abs=1e-6)
    assert report.gaps[0].upper == pytest.approx(-(1 + SQRT3), abs=1e-6)
    assert report.gaps[-1].lower == pytest.approx(1 + SQRT3, abs=1e-6)


def test_gap_structure_even_denominators():
    assert report_of(1, 2, 1, 0).bands == 1
    assert len(report_of(1, 2, 1, 0).internal()) == 0
    rep4 = report_of(1, 4, 1, 0)
    assert rep4.bands == 3
    assert [g.d for g in rep4.internal()] == [1, 3]


def test_gap_report_json_schema(tmp_path):
    # the gaps JSON is the GapReport fields, with null for the unbounded edges
    assert cli.main(["gaps", "--theta", "1/3", "--out", str(tmp_path)]) == 0
    d = json.loads((tmp_path / "gaps_1_3_q1r0.json").read_text())
    assert list(d.keys()) == ["bands", "gaps"]
    assert d["gaps"][0]["lower"] is None          # inf-gap
    assert d["gaps"][-1]["upper"] is None         # sup-gap
    assert list(d["gaps"][1].keys()) == ["g", "lower", "upper", "d", "fermi"]
    assert all(isinstance(d["gaps"][1][key], float) for key in ("lower", "upper", "fermi"))


CORNER_CONTEXTS = [(M, N, q, r)
                   for (M, N) in [(1, 3), (2, 5), (3, 7), (1, 4), (3, 8), (5, 8),
                                  (8, 9), (1, 6), (5, 12), (8, 13)]
                   for (q, r) in [(1, 0), (2, 1), (3, 2)] if math.gcd(N, q) == 1]


@pytest.mark.parametrize("M,N", [(1, 2), (1, 4), (3, 8)])
def test_central_bands_of_even_n_touch_at_any_tol(M, N, monkeypatch):
    # the corner edges of the two central bands meet at E = 0 only to rounding,
    # which a tol below it would read as a gap
    monkeypatch.setattr(spectral, "GAP_TOL", 1e-20)
    report = hofstadter_gap_report(ctx_of(M, N, 1, 0))
    assert report.bands == N - 1
    assert [g.d for g in report.gaps] == [gap_label_d(N, g) for g in range(N)]


@pytest.mark.xfail(strict=True, reason="two slots of 2/21 are 2.5e-9 wide, below GAP_TOL")
def test_every_slot_of_odd_n_is_open_in_the_exact_report():
    # Choi-Elliott-Yui: for odd N all N - 1 slots are open, but the report
    # merges the bands across the two outer ones
    assert hofstadter_gap_report(ctx_of(2, 21, 1, 0)).bands == 21


@pytest.mark.parametrize("M,N,q,r", CORNER_CONTEXTS)
def test_corner_edges_match_the_grid(M, N, q, r):
    # 96 = 2^5 * 3 holds a k2 with N k2 = 1/2 mod 1 for each N here, so the
    # reference grid samples all four corner characters and its band
    # intervals are exact; the weyl family must stay inside the corner bands
    ctx = ctx_of(M, N, q, r)
    h = hofstadter_element(ctx.theta)
    report = hofstadter_gap_report(ctx)
    assert report.bands == (N if N % 2 else N - 1)
    ds = np.array([g.d for g in report.gaps])          # band j spans ds[j] .. ds[j+1] - 1
    lo = np.array([g.upper for g in report.gaps[:-1]])
    hi = np.array([g.lower for g in report.gaps[1:]])
    E = band_energies(reference_fibered_rep(ctx), h, 96)
    grid_lo, grid_hi = E.min(axis=(0, 1)), E.max(axis=(0, 1))
    assert np.array_equal(np.flatnonzero(grid_lo[1:] - grid_hi[:-1] > 1e-8) + 1, ds[1:-1])
    assert np.abs(lo - grid_lo[ds[:-1]]).max() <= 1e-12
    assert np.abs(hi - grid_hi[ds[1:] - 1]).max() <= 1e-12
    k = np.arange(96) / 96
    E = np.linalg.eigvalsh(evaluate_on_grid(weyl_fibered_rep(ctx), h, k, k))
    assert (E >= np.repeat(lo, np.diff(ds)) - 1e-12).all()
    assert (E <= np.repeat(hi, np.diff(ds)) + 1e-12).all()


FAREY10_REPS = [(1, 0), (2, 1), (3, 1), (3, 2)]


def _farey10_contexts(q, r):
    return [ctx_of(th.M, th.N, q, r) for th in cli.farey_fractions(10) if math.gcd(th.N, q) == 1]


def _grid_family(ctx):
    return weyl_fibered_rep(ctx) if ctx.M0 else reference_fibered_rep(ctx)


@pytest.mark.parametrize("q,r", FAREY10_REPS)
def test_character_energies_match_the_grid(q, r):
    # h's spectrum depends on k only through Re U^N + Re V^N, so one eigvalsh
    # per unordered pair of folded character indices reproduces the grid pass
    for ctx in _farey10_contexts(q, r):
        h = hofstadter_element(ctx.theta)
        for G in (7, 8, 15, 24, 48):
            E = hofstadter_energies(ctx, G)
            assert E.shape == (G, G, ctx.N)
            assert np.abs(E - band_energies(_grid_family(ctx), h, G)).max() <= 1e-12


def test_character_energies_diagonalize_each_pair_once(eigvalsh_matrices):
    # at 1/3 (M0 = 1) the folded indices take all 25 values 0 .. 24 at G = 48
    hofstadter_energies(ctx_of(1, 3, 1, 0), 48)
    assert eigvalsh_matrices == [25 * 26 // 2]


@pytest.mark.parametrize("q,r", FAREY10_REPS)
def test_refinement_coarse_grid_is_the_grid_pass(q, r):
    # detect_gaps_refined reads the G grid as E2[::2, ::2]: i/G is exactly 2i/(2G)
    for ctx in _farey10_contexts(q, r):
        rep, h = _grid_family(ctx), hofstadter_element(ctx.theta)
        for G in (8, 12, 24):
            assert np.array_equal(band_energies(rep, h, 2 * G)[::2, ::2], band_energies(rep, h, G))
            assert np.array_equal(hofstadter_energies(ctx, 2 * G)[::2, ::2],
                                  hofstadter_energies(ctx, G))


def test_fermi_projector_ranks():
    bd = bands_of(1, 3, 1, 0, "weyl", 16)
    report = report_of(1, 3, 1, 0)
    assert fermi_projector_field(bd, report.gaps[0].fermi).rank == 0
    assert fermi_projector_field(bd, report.gaps[1].fermi).rank == 1
    assert fermi_projector_field(bd, report.gaps[-1].fermi).rank == 3


def test_fermi_projector_is_a_view_of_the_band_frames():
    bd = bands_of(1, 3, 2, 1, "weyl", 16)
    gap = report_of(1, 3, 2, 1).internal()[0]
    f = fermi_projector_field(bd, gap.fermi)
    assert np.shares_memory(f.frames, bd.frames)
    F = expand_k1_mirror(bd.frames[..., : f.rank], 16)
    assert np.allclose(f.P, F @ np.conj(np.swapaxes(F, -1, -2)), atol=1e-14)


def test_fermi_projector_gap_independence():
    bd = bands_of(1, 3, 1, 0, "weyl", 16)
    gap = report_of(1, 3, 1, 0).internal()[0]
    f1 = fermi_projector_field(bd, gap.fermi)
    f2 = fermi_projector_field(bd, gap.fermi + 0.25 * (gap.upper - gap.lower))
    assert np.abs(f1.P - f2.P).max() < 1e-10


def test_fermi_projector_errors():
    bd = bands_of(1, 3, 1, 0, "weyl", 16)
    with pytest.raises(GapViolationError):
        fermi_projector_field(bd, float(bd.energies[0, 0, 0]))
    with pytest.raises(GapViolationError):
        fermi_projector_field(bd, 0.0)     # inside the central band


def test_projector_field_invariants():
    bd = bands_of(1, 3, 2, 1, "weyl", 16)
    gap = report_of(1, 3, 2, 1).internal()[0]
    f = fermi_projector_field(bd, gap.fermi)
    d = f.defects()
    assert d["idempotency"] < 1e-10
    assert d["hermiticity"] < 1e-12
    assert d["trace"] < 1e-8


def test_projector_seam_transport():
    # weyl projector fields glue across k2 -> k2+1 by the transport unitary
    ctx = ctx_of(1, 3, 2, 1)
    bd = bands_of(1, 3, 2, 1, "weyl", 16)
    gap = report_of(1, 3, 2, 1).internal()[0]
    f = fermi_projector_field(bd, gap.fermi)
    h = hofstadter_element(ctx.theta)
    rep = weyl_fibered_rep(ctx)
    for i in (0, 3, 7, 11):
        k1 = bd.k1s[i]
        w, v = np.linalg.eigh(evaluate_at_k(rep, h, (k1, 1.0)))
        occ = v[:, : f.rank]
        P_top = occ @ occ.conj().T
        T = twist_transport(ctx, k1, 1)
        assert np.linalg.norm(P_top - T @ f.P[i, 0] @ T.conj().T) < 1e-10


def test_constant_fields():
    ctx = ctx_of(1, 3, 1, 0)
    rep = reference_fibered_rep(ctx)
    idf = identity_field(rep, 8)
    assert idf.rank == 3
    P0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    cf = constant_projector_field(rep, 8, P0)
    assert cf.rank == 1
    with pytest.raises(ValueError):
        constant_projector_field(rep, 8, np.diag([0.5, 0.0, 0.0]).astype(complex))


def test_hausdorff_basics():
    e = bands_of(1, 3, 1, 0, "weyl", 16).energies
    assert spectral_hausdorff(e, e) == 0.0
    other = bands_of(1, 5, 1, 0, "weyl", 16).energies
    assert spectral_hausdorff(e, other) > 0.05


def test_eigenvalue_continuity_under_refinement():
    jumps = []
    for G in (16, 32, 64):
        bd = bands_of(1, 5, 1, 0, "weyl", G)
        j1 = np.abs(np.diff(bd.energies, axis=0)).max()
        j2 = np.abs(np.diff(bd.energies, axis=1)).max()
        jumps.append(max(j1, j2))
    assert jumps[2] < jumps[1] < jumps[0]


def _odd_value_bands():
    """G = 12 bands (k = j/12 repeats) whose energies stress 12-digit formatting."""
    bd = bands_of(1, 3, 1, 0, "weyl", 12)
    rng = np.random.default_rng(7)
    e = rng.standard_normal(bd.energies.size) * 10.0 ** rng.integers(-20, 6, bd.energies.size)
    e[:8] = [-0.0, 1e-17, -3.5e-05, 4.000000000001, 1.0 / 3.0, -2.0 / 7.0,
             123456.789012345, 0.1 + 0.2]
    return dataclasses.replace(bd, energies=e.reshape(bd.energies.shape))


def _rows_reference(bd, prefix):
    """The per-row f-string loop that `band_rows` replaces, kept as its reference."""
    def fmt(x):
        return format(float(x), ".12g")
    rows = []
    G1, G2 = bd.shape
    for i in range(G1):
        for j in range(G2):
            for b in range(bd.energies.shape[-1]):
                rows.append(f"{prefix}{fmt(bd.k1s[i])},{fmt(bd.k2s[j])},{b},"
                            f"{fmt(bd.energies[i, j, b])}")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("prefix", ["", "2,7,", "%d,"])
def test_band_rows_match_the_per_row_loop(prefix):
    for bd in (_odd_value_bands(), bands_of(1, 3, 1, 0, "weyl", 12)):
        assert band_rows(bd.energies, prefix) == _rows_reference(bd, prefix)
    lines = band_rows(_odd_value_bands().energies, prefix).splitlines()
    assert lines[:8] == [prefix + row for row in (
        "0,0,0,-0", "0,0,1,1e-17", "0,0,2,-3.5e-05",
        "0,0.0833333333333,0,4", "0,0.0833333333333,1,0.333333333333",
        "0,0.0833333333333,2,-0.285714285714",
        "0,0.166666666667,0,123456.789012", "0,0.166666666667,1,0.3")]
