"""Spectral layer: band data, gap detection, Fermi projector fields."""

import dataclasses
import json
import math
import tracemalloc
import types

import numpy as np
import pytest

from conftest import bands_of, ctx_of, dense_projector, package_bands, report_of
from fields import (
    ProjectorField,
    bands_on_grid,
    constant_projector_field,
    fermi_projector_field,
    identity_field,
    orbit_count,
)

from nctorus import _kernels, chern, cli, spectral
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
    FERMI_TOL,
    GapViolationError,
    SelfAdjointnessError,
    band_blocks,
    band_edges,
    band_energies,
    band_rows,
    dual_band_blocks,
    expand_k1_mirror,
    fermi_rank,
    grid_index,
    hofstadter_energies,
    hofstadter_gap_report,
    spectral_hausdorff,
)

SQRT3 = math.sqrt(3.0)


def _on_grid(rows, index):
    """The (G, G, N) energies of a grid handed over as (rows, index)."""
    return rows[index]


def _pass_rows(blocks, G):
    """(rows, index) of a band pass's blocks of (b, n, N) energies."""
    E = np.concatenate(blocks)
    return E.reshape(-1, E.shape[-1]), grid_index(E.shape[1], G)


def test_two_band_energies_at_origin():
    ctx = ctx_of(1, 2, 1, 0)
    bd = package_bands(weyl_fibered_rep(ctx), hofstadter_element(ctx.theta), 1)
    assert bd.energies[0, 0] == pytest.approx(
        [-2 * math.sqrt(2), 2 * math.sqrt(2)], abs=1e-13)


def test_unit_element_is_flat():
    ctx = ctx_of(1, 3, 1, 0)
    bd = package_bands(weyl_fibered_rep(ctx), unit(ctx.theta), 4)
    assert np.allclose(bd.energies, 1.0, atol=1e-14)


def test_rejects_non_selfadjoint():
    ctx = ctx_of(1, 3, 1, 0)
    for entry in (lambda *args: next(band_blocks(*args)), band_energies):
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
    bd = package_bands(rep, h, G)
    assert eigh_matrices == [orbit_count(G)]        # one point per orbit: mirror, flip, sigma, chi
    assert bd.frames.shape[:2] == (G // 2 + 1, G)
    assert np.abs(_on_grid(*band_energies(rep, h, G)) - bd.energies).max() < 1e-12
    assert sum(eigvalsh_matrices) == (G // 2 + 1) ** 2   # in blocks of stored rows
    direct = bands_on_grid(rep, h, G)
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
    bd = package_bands(rep, a, G)
    # chi alone: every monomial has n + m odd, so chi(a) = -a on an even grid
    assert sum(eigh_matrices) == orbit_count(G, mirror=False, flip=False, sigma=False)
    assert bd.frames.shape[0] == G
    assert np.abs(_on_grid(*band_energies(rep, a, G)) - bd.energies).max() < 1e-12
    assert sum(eigvalsh_matrices) == G * G
    direct = bands_on_grid(rep, a, G)
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
    bd = package_bands(rep, h, G)
    rows = G // 2 + 1
    assert bd.frames.shape == (rows, G, N, N)
    F, E = bd.frames, bd.energies[:rows]
    k = np.arange(G) / G
    H = evaluate_on_grid(rep, h, k[:rows], k)
    assert np.abs(H @ F - F * E[..., None, :]).max() < 1e-12
    assert np.abs(np.conj(np.swapaxes(F, -1, -2)) @ F - np.eye(N)).max() < 1e-12
    direct = bands_on_grid(rep, h, G)
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
    bd = package_bands(rep, a, G)
    assert sum(eigh_matrices) == orbit_count(G, flip=False, sigma=False)    # the mirror and chi
    assert bd.frames.shape == (G, G, 13, 13)
    assert np.abs(_on_grid(*band_energies(rep, a, G)) - bd.energies).max() < 1e-12
    assert sum(eigvalsh_matrices) == G * G
    direct = bands_on_grid(rep, a, G)
    assert np.abs(bd.energies - direct.energies).max() < 1e-12
    ranks = _gap_ranks(direct.energies)
    assert ranks
    for R in ranks:
        assert np.abs(_projector(bd.frames, R) - _projector(direct.frames, R)).max() < 1e-10
    k = np.arange(G) / G
    flipped = evaluate_on_grid(rep, a, (-k) % 1.0, (-k) % 1.0)
    assert np.abs(np.linalg.eigvalsh(flipped) - direct.energies).max() > 0.1


NO_MIRROR = {(1, 0): 1, (-1, 0): 1, (0, 1): 1 + 1j, (0, -1): 1 - 1j}   # h + i(v - v*)

def _element(ctx, mirrored):
    return hofstadter_element(ctx.theta) if mirrored else AlgebraElement(
        ctx.theta, {(1, 0): 1, (-1, 0): 1, (0, 1): 1 + 1j, (0, -1): 1 - 1j})   # h + i(v - v*)


def _table_matrices(N, G, mirrored):
    """The eigh matrices of an orbit table: h admits all four maps, the no-mirror element chi."""
    return orbit_count(G, mirror=mirrored, flip=mirrored, sigma=mirrored, chi=N % 2 == 1)


def _assert_direct(rep, a, E, F, G):
    """Every stored point's energies within 1e-12 of eigh, and each gap rank's projector within 1e-10."""
    direct = bands_on_grid(rep, a, G)
    assert np.abs(_on_grid(*_pass_rows(E, G)) - direct.energies).max() < 1e-12
    ranks = _gap_ranks(direct.energies)
    assert ranks or rep.dim <= 2        # one band, or the two touching bands of N = 2
    F = expand_k1_mirror(np.concatenate(F), G)
    for R in ranks:
        assert np.abs(_projector(F, R) - _projector(direct.frames, R)).max() < 1e-10


# M0 = 3, -2, -4, -5, 1 (even N: no chi), 0 (N = 1), 1 (N = 2); gcd(M0, G) = 4 at
# 2/5 (3,2), G = 12 and 16; an odd grid has no chi
DUAL_CONTEXTS = [(8, 13, 2, 1), (1, 5, 3, 1), (2, 5, 3, 2), (3, 7, 3, 2), (5, 8, 3, -2),
                 (0, 1, 1, 0), (1, 2, 1, 0)]


@pytest.mark.parametrize("mirrored", [True, False], ids=["h", "no-mirror"])
@pytest.mark.parametrize("M, N, q, r", DUAL_CONTEXTS)
@pytest.mark.parametrize("G", [15, 16, 12, 24])
def test_dual_bands_read_the_reference_off_the_weyl_pass(M, N, q, r, G, mirrored,
                                                         eigh_matrices):
    # both families read off one orbit table: weyl point (i, j) is cell
    # (i, M0 j mod G), reference point (i, j) is cell (i, N j mod G)
    ctx = ctx_of(M, N, q, r)
    a = _element(ctx, mirrored)
    kinds, starts = [], []
    E = {"weyl": [], "reference": []}
    F = {"weyl": [], "reference": []}
    for kind, start, energies, frames in dual_band_blocks(ctx, a, G):
        kinds.append(kind)
        starts.append(start)
        E[kind].append(energies)
        F[kind].append(frames)
    rows = G // 2 + 1 if mirrored else G
    assert sum(eigh_matrices) == _table_matrices(N, G, mirrored)
    # each block's weyl frames first, then the reference frames of the same rows
    assert kinds == ["weyl", "reference"] * len(E["reference"])
    assert starts[::2] == starts[1::2] == list(range(0, rows, len(E["reference"][0])))
    for kind, rep in (("weyl", weyl_fibered_rep(ctx)), ("reference", reference_fibered_rep(ctx))):
        assert sum(map(len, F[kind])) == rows
        _assert_direct(rep, a, E[kind], F[kind], G)


@pytest.mark.parametrize("mirrored", [True, False], ids=["h", "no-mirror"])
@pytest.mark.parametrize("G", [7, 16])
def test_band_blocks_are_one_pass_in_row_blocks(G, mirrored, monkeypatch, eigh_matrices):
    # blocks of at most 2 stored rows here (one row at G = 16: 16 x 13 x 13 x 16
    # bytes), in order, that together are the whole pass in one block; the
    # table diagonalizes its representatives a quarter block at a time
    monkeypatch.setattr(spectral._kernels, "BLOCK_BYTES", 2 * 7 * 13 * 13 * 16)
    ctx = ctx_of(8, 13, 2, 1)
    rep = reference_fibered_rep(ctx)
    a = _element(ctx, mirrored)
    starts, E, F = zip(*band_blocks(rep, a, G))
    rows = G // 2 + 1 if mirrored else G
    step = 2 if G == 7 else 1
    assert starts == tuple(range(0, rows, step))
    assert sum(eigh_matrices) == _table_matrices(13, G, mirrored)
    assert max(eigh_matrices) == _kernels.block_rows(4 * 13 * 13 * 16) == 3
    _assert_direct(rep, a, E, F, G)
    monkeypatch.setattr(spectral._kernels, "BLOCK_BYTES", 1 << 30)
    bd = package_bands(rep, a, G)
    assert np.array_equal(np.concatenate(F), bd.frames)
    assert np.array_equal(_on_grid(*_pass_rows(E, G)), bd.energies)


@pytest.mark.parametrize("family", MIRROR_FAMILIES)
@pytest.mark.parametrize("mirrored", [True, False], ids=["h", "no-mirror"])
@pytest.mark.parametrize("spec, G", [
    ((3, 7, 3, 2), 16), ((2, 5, 3, 2), 12), ((2, 5, 3, 2), 16), ((5, 8, 3, -2), 24),
    ((8, 13, 2, 1), 15), ((0, 1, 1, 0), 8), ((1, 2, 1, 0), 8)])
def test_band_blocks_read_every_family_off_the_table(family, mirrored, spec, G, monkeypatch,
                                                     eigh_matrices):
    # one row per block: the conjugated reference family too reads its cells,
    # (N i mod G, N j mod G), off the plain reference family's orbit table
    ctx = ctx_of(*spec)
    monkeypatch.setattr(spectral._kernels, "BLOCK_BYTES", 1)
    rep, a = family(ctx), _element(ctx, mirrored)
    starts, E, F = zip(*band_blocks(rep, a, G))
    assert starts == tuple(range(G // 2 + 1 if mirrored else G))
    assert sum(eigh_matrices) == _table_matrices(ctx.N, G, mirrored)
    _assert_direct(rep, a, E, F, G)


def test_a_wrong_phase_in_phi_fails_the_oracle_and_the_certificates(monkeypatch):
    # a planted defect: sigma's DFT intertwiner Phi built on conjugated roots of
    # unity, so the frames of every cell that sigma reaches are wrong
    ctx = ctx_of(3, 7, 3, 2)
    h = hofstadter_element(ctx.theta)
    rotate = spectral.rotate
    monkeypatch.setattr(spectral, "rotate",
                        lambda ctx, F, k1, k2, cis: rotate(ctx, F, k1, k2, cis.conj()))
    F = [frames for kind, _, _, frames in dual_band_blocks(ctx, h, 16) if kind == "weyl"]
    direct = bands_on_grid(weyl_fibered_rep(ctx), h, 16)
    F = expand_k1_mirror(np.concatenate(F), 16)
    assert np.abs(_projector(F, 3) - _projector(direct.frames, 3)).max() > 0.1
    with pytest.raises(chern.VerificationError):
        chern.gap_certificates(ctx, 16)


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
    E = _on_grid(*band_energies(reference_fibered_rep(ctx), h, 96))
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
            E = _on_grid(*hofstadter_energies(ctx, G))
            assert E.shape == (G, G, ctx.N)
            assert np.abs(E - _on_grid(*band_energies(_grid_family(ctx), h, G))).max() <= 1e-12


@pytest.mark.parametrize("M, N, q, r", [(0, 1, 1, 0), (1, 3, 1, 0), (2, 5, 1, 0), (2, 5, 3, 2)],
                         ids=["M0=0", "M0=1", "M0=2", "M0=-4"])
@pytest.mark.parametrize("G", [15, 16])
def test_energies_are_each_spectrum_once_and_a_grid_index(M, N, q, r, G):
    # every producer hands over (rows, index): rows[index] is the grid pass of
    # the family it samples, and no more rows than the quarter grid's points
    ctx = ctx_of(M, N, q, r)
    h = hofstadter_element(ctx.theta)
    families = [weyl_fibered_rep(ctx), reference_fibered_rep(ctx)] if ctx.M0 else [
        reference_fibered_rep(ctx)]
    oracle = {rep.kind: bands_on_grid(rep, h, G).energies for rep in families}
    produced = [(families[0].kind, hofstadter_energies(ctx, G))]
    produced += [(rep.kind, band_energies(rep, h, G)) for rep in families]
    for kind, (rows, index) in produced:
        assert index.shape == (G, G) and rows.shape[1] == N
        assert len(rows) <= (G // 2 + 1) ** 2
        assert np.abs(rows[index] - oracle[kind]).max() <= 1e-12


@pytest.mark.parametrize("M, N, q, r", [(1, 3, 1, 0), (3, 8, 1, 0), (2, 7, 2, 1), (3, 8, 3, 2),
                                        (2, 5, 3, 2)])
@pytest.mark.parametrize("G", [15, 16])
def test_character_pairs_are_built_as_the_grid_matrices(M, N, q, r, G, monkeypatch):
    # hofstadter_energies builds only the pairs it diagonalizes, each equal bit for
    # bit to its entry of the reference grid k/G x k/(N G), k = 0 .. G//2, and its
    # energies are the eigvalsh of those entries (gcd(M0, G) = 4 at 2/5 (3,2), G = 16)
    ctx = ctx_of(M, N, q, r)
    built = []
    evaluate = spectral.evaluate_at_points

    def recorded(rep, a, k1s, k2s, i, j):
        built.append((k1s, k2s, i, j, evaluate(rep, a, k1s, k2s, i, j)))
        return built[-1][-1].copy()     # the caller makes it Hermitian in place

    monkeypatch.setattr(spectral, "evaluate_at_points", recorded)
    rows, index = hofstadter_energies(ctx, G)
    [(k1s, k2s, i, j, H)] = built
    k = np.arange(G // 2 + 1)
    assert np.array_equal(k1s, k / G) and np.array_equal(k2s, k / (N * G))
    grid = evaluate_on_grid(reference_fibered_rep(ctx), hofstadter_element(ctx.theta), k1s, k2s)
    assert len(H) == len(rows) < len(k) ** 2
    assert np.array_equal(H, grid[i, j])
    assert np.array_equal(rows, np.linalg.eigvalsh(spectral._hermitian(grid)[i, j]))


def test_character_energies_diagonalize_each_pair_once(eigvalsh_matrices):
    # at 1/3 (M0 = 1) the folded indices take all 25 values 0 .. 24 at G = 48
    hofstadter_energies(ctx_of(1, 3, 1, 0), 48)
    assert eigvalsh_matrices == [25 * 26 // 2]


@pytest.mark.parametrize("q,r", FAREY10_REPS)
def test_refinement_coarse_grid_is_the_grid_pass(q, r):
    # detect_gaps_refined reads the G grid as the rows that index[::2, ::2] of the
    # 2G grid names: i/G is exactly 2i/(2G)
    for ctx in _farey10_contexts(q, r):
        rep, h = _grid_family(ctx), hofstadter_element(ctx.theta)
        for G in (8, 12, 24):
            for energies in (lambda G: band_energies(rep, h, G),
                             lambda G: hofstadter_energies(ctx, G)):
                assert np.array_equal(_on_grid(*energies(2 * G))[::2, ::2],
                                      _on_grid(*energies(G)))


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
    assert np.allclose(dense_projector(f), F @ np.conj(np.swapaxes(F, -1, -2)), atol=1e-14)


def test_fermi_projector_gap_independence():
    bd = bands_of(1, 3, 1, 0, "weyl", 16)
    gap = report_of(1, 3, 1, 0).internal()[0]
    f1 = fermi_projector_field(bd, gap.fermi)
    f2 = fermi_projector_field(bd, gap.fermi + 0.25 * (gap.upper - gap.lower))
    assert np.abs(dense_projector(f1) - dense_projector(f2)).max() < 1e-10


def test_fermi_projector_errors():
    bd = bands_of(1, 3, 1, 0, "weyl", 16)
    with pytest.raises(GapViolationError):
        fermi_projector_field(bd, float(bd.energies[0, 0, 0]))
    with pytest.raises(GapViolationError):
        fermi_projector_field(bd, 0.0)     # inside the central band


def _rank_or_failure(rank):
    try:
        return rank()
    except GapViolationError as exc:
        return str(exc)


def _scanned_rank(E, fermi):
    """The rank below fermi from a scan of every energy, the checks in the same order."""
    if np.abs(E - fermi).min() <= FERMI_TOL:
        raise GapViolationError(f"fermi level {fermi} is within {FERMI_TOL} of the spectrum")
    occ = (E < fermi).sum(axis=-1)
    if not (occ == occ.flat[0]).all():
        raise GapViolationError(f"fermi level {fermi} crosses a band")
    return int(occ.flat[0])


def test_fermi_rank_equals_a_scan_of_every_energy():
    # a band that does not hold the fermi level is nearest at one of its edges,
    # bit for bit, so only the bands that hold it are scanned: on, next to and
    # between the sampled energies, and FERMI_TOL away, the rank or the failure
    # is the full scan's
    E = bands_of(1, 3, 2, 1, "weyl", 8).energies
    edges = band_edges(E)
    levels = sorted(set(E.ravel().tolist()))
    probes = levels + [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    probes += [x + d for x in levels for d in (-2 * FERMI_TOL, -FERMI_TOL, FERMI_TOL,
                                               2 * FERMI_TOL, np.nextafter(FERMI_TOL, 1))]
    probes += [levels[0] - 1.0, levels[-1] + 1.0]
    seen = set()
    for fermi in probes:
        got = _rank_or_failure(lambda: fermi_rank(E, edges, fermi))
        assert got == _rank_or_failure(lambda: _scanned_rank(E, fermi)), fermi
        seen.add("rank" if isinstance(got, int) else "within" if "within" in got else "crosses")
    assert seen == {"rank", "within", "crosses"}


def test_projector_field_invariants():
    bd = bands_of(1, 3, 2, 1, "weyl", 16)
    gap = report_of(1, 3, 2, 1).internal()[0]
    f = fermi_projector_field(bd, gap.fermi)
    d = f.defects()
    assert set(d) == {"idempotency", "trace"}
    assert d["idempotency"] < 1e-10
    assert d["trace"] < 1e-8


@pytest.mark.parametrize("spoil", ["scaled", "perturbed"])
def test_gram_defects_see_non_orthonormal_frames(spoil):
    # defects() reads F^dagger F; on frames that are not orthonormal it equals
    # ||P^2 - P|| and |tr P - R| of the dense P = F F^dagger, and fails the
    # suite's 1e-8 threshold
    bd = bands_of(2, 5, 3, 1, "weyl", 16)
    gap = report_of(2, 5, 3, 1).internal()[-1]
    F = fermi_projector_field(bd, gap.fermi).frames.copy()
    assert F.shape[-1] >= 2
    if spoil == "scaled":
        F *= 1.001
    else:
        F[..., 1] += 1e-3 * F[..., 0]
    f = ProjectorField(bd.rep, F)
    P = dense_projector(f)[: len(F)]
    d = f.defects()
    assert d["idempotency"] == pytest.approx(
        np.linalg.norm(P @ P - P, axis=(-2, -1)).max(), abs=1e-12)
    assert d["trace"] == pytest.approx(
        np.abs(np.trace(P, axis1=-2, axis2=-1) - f.rank).max(), abs=1e-12)
    assert min(d.values()) > 1e-8


@pytest.mark.parametrize("H, G", [(8, 16), (10, 16), (15, 16), (7, 15), (9, 15), (14, 15)])
def test_projector_field_rejects_frames_of_no_grid(H, G):
    # G columns fit G rows or the G//2 + 1 stored rows of a k1 mirror, no other count
    rep = reference_fibered_rep(ctx_of(1, 3, 1, 0))
    for rows in (G, G // 2 + 1):
        assert ProjectorField(rep, np.zeros((rows, G, 3, 1), complex)).rank == 1
    with pytest.raises(ValueError, match=f"{H} frame rows fit neither a {G}-row grid"):
        ProjectorField(rep, np.zeros((H, G, 3, 1), complex))


@pytest.mark.parametrize("kind", ["reference", "weyl"])
@pytest.mark.parametrize("G", [15, 16])
def test_mirrored_defects_equal_the_expanded_ones(kind, G):
    # defects() reads the stored rows alone: the projector of a mirrored row is
    # the exact conjugate of a stored one, so nothing moves by a single bit
    bd = bands_of(2, 5, 3, 1, kind, G)
    for gap in report_of(2, 5, 3, 1).internal():
        f = fermi_projector_field(bd, gap.fermi)
        assert len(f.frames) == G // 2 + 1
        expanded = ProjectorField(f.rep, expand_k1_mirror(f.frames, G))
        assert f.defects() == expanded.defects()


def test_projector_seam_transport():
    # weyl projector fields glue across k2 -> k2+1 by the transport unitary
    ctx = ctx_of(1, 3, 2, 1)
    bd = bands_of(1, 3, 2, 1, "weyl", 16)
    gap = report_of(1, 3, 2, 1).internal()[0]
    f = fermi_projector_field(bd, gap.fermi)
    h = hofstadter_element(ctx.theta)
    rep = weyl_fibered_rep(ctx)
    for i in (0, 3, 7, 11):
        k1 = i / 16
        w, v = np.linalg.eigh(evaluate_at_k(rep, h, (k1, 1.0)))
        occ = v[:, : f.rank]
        P_top = occ @ occ.conj().T
        T = twist_transport(ctx, k1)
        assert np.linalg.norm(P_top - T @ dense_projector(f)[i, 0] @ T.conj().T) < 1e-10


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


def _as_rows(e):
    """(rows, index) of a (G1, G2, N) array: every point its own row."""
    G1, G2, N = e.shape
    return e.reshape(G1 * G2, N), np.arange(G1 * G2).reshape(G1, G2)


def _rows_reference(bd, prefix):
    """The per-row f-string loop that `band_rows` replaces, kept as its reference."""
    def fmt(x):
        return format(float(x), ".12g")
    rows = []
    G1, G2 = bd.energies.shape[:2]
    for i in range(G1):
        for j in range(G2):
            for b in range(bd.energies.shape[-1]):
                rows.append(f"{prefix}{fmt(i / G1)},{fmt(j / G2)},{b},"
                            f"{fmt(bd.energies[i, j, b])}")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("prefix", ["", "2,7,", "%d,"])
def test_band_rows_match_the_per_row_loop(prefix):
    bd = _odd_value_bands()
    assert "".join(band_rows(*_as_rows(bd.energies), prefix)) == _rows_reference(bd, prefix)
    ctx = ctx_of(1, 3, 1, 0)
    blocks = band_blocks(weyl_fibered_rep(ctx), hofstadter_element(ctx.theta), 12)
    quarter = _pass_rows([E for _, E, _ in blocks], 12)
    assert "".join(band_rows(*quarter, prefix)) == _rows_reference(
        bands_of(1, 3, 1, 0, "weyl", 12), prefix)
    lines = "".join(band_rows(*_as_rows(bd.energies), prefix)).splitlines()
    assert lines[:8] == [prefix + row for row in (
        "0,0,0,-0", "0,0,1,1e-17", "0,0,2,-3.5e-05",
        "0,0.0833333333333,0,4", "0,0.0833333333333,1,0.333333333333",
        "0,0.0833333333333,2,-0.285714285714",
        "0,0.166666666667,0,123456.789012", "0,0.166666666667,1,0.3")]


@pytest.mark.parametrize("shape", [(12, 12, 3), (5, 7, 2), (3, 4, 1), (1, 1, 1)])
@pytest.mark.parametrize("prefix", ["", "2,7,", "%d,"])
def test_band_rows_returns_one_chunk_of_g2_n_lines_per_k1_row(shape, prefix):
    # points that name one row (the two halves of the grid) share its formatted block
    G1, G2, N = shape
    H = (G2 + 1) // 2
    rows = np.random.default_rng(3).standard_normal((G1 * H, N))
    index = np.arange(G1)[:, None] * H + np.arange(G2) % H
    e = rows[index]
    chunks = list(band_rows(rows, index, prefix))
    assert len(chunks) == G1
    for i, chunk in enumerate(chunks):
        lines = chunk.splitlines(keepends=True)
        assert len(lines) == G2 * N and all(ln.endswith("\n") for ln in lines)
        assert all(ln.startswith(f"{prefix}{format(i / G1, '.12g')},") for ln in lines)
    assert "".join(chunks) == _rows_reference(types.SimpleNamespace(energies=e), prefix)


def test_band_rows_match_the_per_row_loop_on_an_odd_grid():
    # real energies at odd G, read off folded character indices
    rows, index = hofstadter_energies(ctx_of(9, 10, 1, 0), 15)
    assert "".join(band_rows(rows, index, "9,10,")) == _rows_reference(
        types.SimpleNamespace(energies=rows[index]), "9,10,")


def test_band_rows_keep_rows_apart_by_bit_pattern():
    # rows that are equal as floats (-0.0 == 0.0) or one bit apart (the
    # subnormals 2 and 3 ulps above 0) are formatted apart, each from its bits
    ulp = np.nextafter(0.0, 1.0)
    e = np.array([[[0.0, 1.0], [-0.0, 1.0], [2 * ulp, 1.0], [3 * ulp, 1.0]]])
    assert "".join(band_rows(*_as_rows(e), "")).splitlines() == [
        "0,0,0,0", "0,0,1,1", "0,0.25,0,-0", "0,0.25,1,1",
        "0,0.5,0,9.88131291682e-324", "0,0.5,1,1",
        "0,0.75,0,1.48219693752e-323", "0,0.75,1,1"]


def test_band_rows_peak_memory_stays_near_its_text():
    # the 9/10 CSV rows of one butterfly theta at G = 48: a template of every
    # row, its fill-in tuple and the result lived at once before (2.4x the text)
    e = hofstadter_energies(ctx_of(9, 10, 1, 0), 48)
    tracemalloc.start()
    try:
        chunks = list(band_rows(*e, "9,10,"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sum(map(len, chunks))


@pytest.mark.parametrize("family", MIRROR_FAMILIES)
def test_band_energies_peak_memory_stays_within_a_block(family):
    # at 8/13 (2,1), G = 65, the 33 x 33 diagonalized matrices take 2.9 MB, and
    # building them whole with their Hermitian scrub peaked at 6.5 MB; the row
    # blocks of `band_blocks` hold two k1 rows (178 KB of matrices) at a time
    ctx = ctx_of(8, 13, 2, 1)
    rep, h = family(ctx), hofstadter_element(ctx.theta)
    tracemalloc.start()
    try:
        rows, index = band_energies(rep, h, 65)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (33 * 33, 13) and index.shape == (65, 65)
    assert peak < 2 * spectral._kernels.BLOCK_BYTES
