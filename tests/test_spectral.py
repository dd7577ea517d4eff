"""Spectral layer: band data, gap detection, Fermi projector fields."""

import json
import math

import numpy as np
import pytest

from conftest import bands_of, ctx_of, report_of

from nctorus.algebra import hofstadter_element, monomial, unit
from nctorus.representations import (
    evaluate_at_k,
    reference_fibered_rep,
    twist_transport,
    weyl_fibered_rep,
)
from nctorus.spectral import (
    GapViolationError,
    SelfAdjointnessError,
    bands_on_grid,
    constant_projector_field,
    export_bands_csv,
    fermi_projector_field,
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
    with pytest.raises(SelfAdjointnessError):
        bands_on_grid(weyl_fibered_rep(ctx), monomial(ctx.theta, 1, 0), 4)


def test_frames_are_orthonormal():
    bd = bands_of(1, 3, 1, 0, "weyl", 16)
    G = np.einsum("ijab,ijac->ijbc", bd.frames.conj(), bd.frames)
    assert np.abs(G - np.eye(3)).max() < 1e-12


def test_gap_structure_theta_third():
    report = report_of(1, 3, 1, 0, 32)
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
    assert report_of(1, 2, 1, 0, 32).bands == 1
    assert len(report_of(1, 2, 1, 0, 32).internal()) == 0
    rep4 = report_of(1, 4, 1, 0, 32)
    assert rep4.bands == 3
    assert [g.d for g in rep4.internal()] == [1, 3]


def test_gap_report_json_schema():
    d = report_of(1, 3, 1, 0, 32).to_json_dict()
    assert set(d.keys()) == {"bands", "gaps"}
    assert d["gaps"][0]["lower"] is None          # inf-gap
    assert d["gaps"][-1]["upper"] is None         # sup-gap
    assert list(d["gaps"][1].keys()) == ["g", "lower", "upper", "d", "fermi"]
    json.dumps(d)


def test_fermi_projector_ranks():
    bd = bands_of(1, 3, 1, 0, "weyl", 16)
    report = report_of(1, 3, 1, 0, 16)
    assert fermi_projector_field(bd, report.gaps[0].fermi).rank == 0
    assert fermi_projector_field(bd, report.gaps[1].fermi).rank == 1
    assert fermi_projector_field(bd, report.gaps[-1].fermi).rank == 3


def test_fermi_projector_is_a_view_of_the_band_frames():
    bd = bands_of(1, 3, 2, 1, "weyl", 16)
    gap = report_of(1, 3, 2, 1, 16).internal()[0]
    f = fermi_projector_field(bd, gap.fermi)
    assert np.shares_memory(f.frames, bd.frames)
    F = bd.frames[..., : f.rank]
    assert np.allclose(f.P, F @ np.conj(np.swapaxes(F, -1, -2)), atol=1e-14)


def test_fermi_projector_gap_independence():
    bd = bands_of(1, 3, 1, 0, "weyl", 16)
    gap = report_of(1, 3, 1, 0, 16).internal()[0]
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
    gap = report_of(1, 3, 2, 1, 16).internal()[0]
    f = fermi_projector_field(bd, gap.fermi)
    d = f.defects()
    assert d["idempotency"] < 1e-10
    assert d["hermiticity"] < 1e-12
    assert d["trace"] < 1e-8


def test_projector_seam_transport():
    # weyl projector fields glue across k2 -> k2+1 by the transport unitary
    ctx = ctx_of(1, 3, 2, 1)
    bd = bands_of(1, 3, 2, 1, "weyl", 16)
    gap = report_of(1, 3, 2, 1, 16).internal()[0]
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
    bd = bands_of(1, 3, 1, 0, "weyl", 16)
    assert spectral_hausdorff(bd, bd) == 0.0
    other = bands_of(1, 5, 1, 0, "weyl", 16)
    assert spectral_hausdorff(bd, other) > 0.05


def test_eigenvalue_continuity_under_refinement():
    jumps = []
    for G in (16, 32, 64):
        bd = bands_of(1, 5, 1, 0, "weyl", G)
        j1 = np.abs(np.diff(bd.energies, axis=0)).max()
        j2 = np.abs(np.diff(bd.energies, axis=1)).max()
        jumps.append(max(j1, j2))
    assert jumps[2] < jumps[1] < jumps[0]


def test_bands_csv_export(tmp_path):
    bd = bands_of(1, 3, 1, 0, "weyl", 4)
    path = tmp_path / "bands.csv"
    export_bands_csv(bd, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k1,k2,band_index,energy"
    assert len(lines) == 1 + 4 * 4 * 3
    k1, k2, b, e = lines[1].split(",")
    assert (k1, k2, b) == ("0", "0", "0")
    # at k = (0,0) the three-band matrix is [[2,1,1],[1,-1,1],[1,1,-1]];
    # H + 2I has two equal rows, so -2 is an exact eigenvalue (the lowest)
    assert float(e) == pytest.approx(-2.0, abs=1e-12)
