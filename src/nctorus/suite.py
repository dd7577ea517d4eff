"""Full invariant suite for one (theta, q, r) context.

Bundles every machine-checkable identity of the build into named checks
with pass/fail results: matrix-family algebra, gluing rules,
isospectrality, projector-field health, the conductance identities on
every detected gap, the full-field anchor, the pullback scaling, and the
symbolic/numeric consistency of trace and character.  Deterministic
(fixed RNG seed) so reports are byte-stable across runs.

The suite holds no family's whole frames: the projector, seam-transport
and pullback rows read the reference Fermi field at 2G off one
`band_blocks` pass, a block of stored k1 rows at a time, as the
certificates read theirs (`_fermi_field_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import _kernels
from .algebra import (
    element_mul,
    hofstadter_element,
    monomial,
    random_element,
    random_selfadjoint_element,
)
from .arithmetic import WeylContext, gap_label_d
from .chern import RHS_TOL, _rounded, gap_certificates, symbolic_numeric_crosscheck
from .representations import (
    FiberedRep,
    central_character,
    check_pseudoperiodicity,
    evaluate_at_k,
    evaluate_at_points,
    reference_fibered_rep,
    shift_matrix,
    twist_transport,
    weyl_fibered_rep,
)
from .spectral import (
    GapInfo,
    NumericalFailure,
    band_blocks,
    band_edges,
    band_energies,
    expand_k1_mirror,
    fermi_rank,
    hofstadter_gap_report,
    spectral_hausdorff,
)

SEED = 20240601
FINE = 2 ** 20          # the generator rows' points k = (i, j) / FINE, exact in binary


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    value: float
    threshold: float
    detail: str


def _frob(A) -> float:
    return float(np.linalg.norm(A))


def _worst(A) -> float:
    """The largest Frobenius norm in a stack of matrices."""
    return float(np.linalg.norm(A, axis=(-2, -1)).max())


def isospectral_grid(ctx: WeylContext, G: int) -> int:
    """Smallest G' >= G whose sampled central characters coincide across kinds.

    The k-grid sweeps the characters (e^{i2pi M0 j/G}, e^{i2pi j/G}) for
    the weyl family and (e^{i2pi N j/G}, e^{i2pi j/G}) for the reference
    one; the two sets coincide exactly iff gcd(G, N) = gcd(G, |M0|) = 1,
    which no G >= 2 meets at theta = r/q (M0 = 0).
    """
    if ctx.M0 == 0:
        raise ValueError(f"{ctx.label()}: theta = r/q, so the weyl family is constant in k2 "
                         "and no grid makes it isospectral to the reference one")
    Gp = G
    while math.gcd(Gp, ctx.N) != 1 or math.gcd(Gp, abs(ctx.M0)) != 1:
        Gp += 1
    return Gp


def _fermi_field_rows(ctx: WeylContext, h, weyl: FiberedRep, gap: GapInfo, G: int):
    """(field, seam, pullback, detail, pullback detail) of the projector and pullback rows.

    All three rows read the reference Fermi field of `gap` on its own 2G
    bands (on the G bands the pullback lemma fails for N = 8 at G = 8),
    one `band_blocks` pass whose blocks of stored k1 rows are dropped as
    they are read.  The rank is the gap's label d, fixed before the pass,
    and the Fermi level is checked on the 2G energies after it.  Each
    block's leading d frame columns feed
      - the Gram defects: with P = F F^dagger and g = F^dagger F,
        ||P^2 - P||_F = ||g^2 - g||_F and tr P = tr g (a mirrored row's
        projector is the exact conjugate of a stored one);
      - column 0, P(k1, 0): both families are the same matrices at
        k2 = 0, and row 2i of the 2G grid is k1 = i/G;
      - three flux kernels: the field; its (2, 1) pullback P(2 k1, k2),
        which on the 2G grid walks the G-row grid of the even rows twice,
        so the even rows are fed as that grid and its sum is doubled; and
        its (1, 3) pullback P(k1, 3 k2), the columns 3j mod 2G.
    The sums are rounded in that order, so the first failure is the
    field's own.
    """
    G2, d = 2 * G, gap.d
    cols = 3 * np.arange(G2) % G2
    energies, column0 = [], []
    defect = 0.0
    for start, E, F in band_blocks(reference_fibered_rep(ctx), h, G2):
        if not start:                   # E.shape[1] stored rows: fewer than G2 on a k1 mirror
            field, twice, thrice = (_kernels.LinkMinors([d], rows, mirrored=E.shape[1] < G2)
                                    for rows in (G2, G, G2))
        F = F[..., :d]
        energies.append(E)
        column0.append(F[:, 0].copy())
        g = F.conj().swapaxes(-1, -2) @ F
        defect = max(defect, float(np.linalg.norm(g @ g - g, axis=(-2, -1)).max()),
                     float(np.abs(np.trace(g, axis1=-2, axis2=-1) - d).max()))
        field.add(F)
        even = F[start % 2::2]
        if len(even):
            twice.add(even)
        thrice.add(F[:, cols])
        del F, even                     # before the next block is read
    E = np.concatenate(energies)        # the stored points' energies
    try:
        fermi_rank(E, band_edges(E), gap.fermi)
    except NumericalFailure as exc:
        return float("inf"), float("inf"), float("inf"), str(exc), str(exc)

    # the seam is stacked as the kernel reads it (`_kernels`)
    F0 = expand_k1_mirror(np.concatenate(column0), G2)[::2]
    seam_T = expand_k1_mirror(twist_transport(ctx, np.arange(G // 2 + 1) / G), G)
    seam = 0.0
    for i in range(0, G, max(1, G // 8)):
        T, P0 = seam_T[i], F0[i] @ F0[i].conj().T
        w, v = np.linalg.eigh(evaluate_at_k(weyl, h, (i / G, 1.0)))
        occ = v[:, :d]
        seam = max(seam, _frob(occ @ occ.conj().T - T @ P0 @ T.conj().T))

    [(t, m, ang)], [(t21, m21, ang21)], [(t13, m13, ang13)] = (
        k.flux_sums() for k in (field, twice, thrice))
    detail = f"gap d={d}"
    try:
        c = _rounded(t, m, ang, G2, "reference").value
        c21 = _rounded(2 * t21, m21, ang21, G2, "reference").value
        c13 = _rounded(t13, m13, ang13, G2, "reference").value
    except NumericalFailure as exc:
        return defect, seam, float("inf"), detail, str(exc)
    return defect, seam, max(abs(c21 - 2 * c), abs(c13 - 3 * c)), detail, f"base Chern {c}"


def run_invariant_suite(ctx: WeylContext, G: int = 32) -> List[CheckResult]:
    rng = np.random.default_rng(SEED)
    out: List[CheckResult] = []

    def check(name, value, threshold, detail=""):
        out.append(CheckResult(name, bool(value <= threshold), float(value),
                               float(threshold), detail))

    theta = ctx.theta
    h = hofstadter_element(theta)
    reps = {
        "reference": reference_fibered_rep(ctx),
        "reference-conjugated": reference_fibered_rep(ctx, conjugated=True),
        "weyl": weyl_fibered_rep(ctx),
    }

    # exact integer identities of the context
    exact_ok = (
        ctx.beta * ctx.q - ctx.alpha * ctx.r == 1
        and ctx.nu * ctx.q + ctx.mu * ctx.r * ctx.N == ctx.r
        and ctx.q * ctx.d_r + ctx.n_r * ctx.N == 1
        and ctx.M0 == ctx.q * ctx.M - ctx.r * ctx.N
    )
    check("context-constants", 0.0 if exact_ok else 1.0, 0.5, ctx.label())

    # pi_k(u), pi_k(v) from the certificates' evaluator at random k snapped to the FINE
    # grid; their N-th powers against the central characters of the points' turns
    i, j = (rng.random((100, 2)) * FINE).astype(int).T
    points = np.arange(100)
    comm = unit = powu = powv = 0.0
    phase = np.exp(2j * np.pi * ctx.M / ctx.N)
    eye = np.eye(ctx.N)
    for rep in reps.values():
        U, V = (evaluate_at_points(rep, monomial(theta, n, m), i / FINE, j / FINE, points, points)
                for n, m in ((1, 0), (0, 1)))
        vn, un = np.exp(2j * np.pi / FINE * np.array(
            central_character(ctx, rep.turns(i, j, FINE), FINE)))[..., None, None]
        comm = max(comm, _worst(U @ V - phase * V @ U))
        unit = max(unit, *(_worst(A @ A.conj().swapaxes(-1, -2) - eye) for A in (U, V)))
        powu = max(powu, _worst(np.linalg.matrix_power(U, ctx.N) - un * eye))
        powv = max(powv, _worst(np.linalg.matrix_power(V, ctx.N) - vn * eye))
    del U, V                            # 100 matrices each, before the band passes
    check("commutation", comm, 1e-12, "UV = e^{i2pi M/N} VU, 100 random k, all kinds")
    check("unitarity", unit, 1e-13)
    check("power-identity-u", powu, 1e-12)
    check("power-identity-v", powv, 1e-12)

    # twist layout and transport
    k1 = float(rng.random())
    lam = np.exp(2j * np.pi * ctx.q * k1)
    tw = shift_matrix(ctx.N, lam).T.copy()       # the gluing unitary G
    layout = _frob(np.linalg.matrix_power(tw, ctx.N) - lam * eye)
    layout = max(layout, _frob(twist_transport(ctx, k1) - tw.conj()))
    check("twist-layout", layout, 1e-13, "G = shift^T, G^N = e^{i2pi q k1} I, transport = conj(G)")

    # pseudo-periodic gluing of operator fields
    elems = [h] + [random_selfadjoint_element(theta, 3, rng) for _ in range(2)]
    pp = 0.0
    for rep in reps.values():
        if rep.conjugated:
            continue
        for a in elems:
            for k in rng.random((20, 2)):
                pp = max(pp, check_pseudoperiodicity(rep, a, k))
    check("pseudo-periodicity", pp, 1e-12)

    # evaluation is multiplicative
    hom = 0.0
    for _ in range(10):
        a = random_element(theta, 4, rng)
        b = random_element(theta, 4, rng)
        k = rng.random(2)
        for rep in reps.values():
            AB = evaluate_at_k(rep, element_mul(a, b), k)
            hom = max(hom, _frob(AB - evaluate_at_k(rep, a, k) @ evaluate_at_k(rep, b, k)))
    check("homomorphism", hom, 1e-11, "pi_k(ab) = pi_k(a) pi_k(b), random degree <= 4")

    # the gap report is exact (corner characters) and needs no grid
    report = hofstadter_gap_report(ctx)

    # isospectrality across kinds (vs the conjugated form at theta = r/q, where the weyl
    # family is constant in k2), each family diagonalized on its own, energies only:
    # the spectra, not the grid index
    if ctx.M0 == 0:
        Gi, kinds = G, ("reference-conjugated", "reference")
    else:
        Gi, kinds = isospectral_grid(ctx, G), ("weyl", "reference")
    pair = [band_energies(reps[kind], h, Gi)[0] for kind in kinds]
    check("isospectrality", spectral_hausdorff(*pair), 1e-6, f"Hausdorff at grid {Gi}^2")

    # gap structure
    expected_bands = ctx.N if ctx.N % 2 == 1 else ctx.N - 1
    check("band-count", abs(report.bands - expected_bands), 0.5,
          f"{report.bands} merged bands (expected {expected_bands})")
    # gap_label_d is strictly increasing, so a report that matches it is too
    dd = [g.d for g in report.gaps]
    labels = [gap_label_d(ctx.N, g) for g in range(expected_bands + 1)]
    check("gap-labels-increasing", 0.0 if dd == labels else 1.0, 0.5, str(dd))

    # the reference Fermi field of the widest internal gap at 2G feeds the
    # projector rows and the pullback lemma; theta = r/q has N = 1 and no internal gap
    internal = report.internal()
    field_defect = seam = pb = 0.0
    detail = pb_detail = "no internal gap"
    if internal:
        widest = max(internal, key=lambda gg: gg.upper - gg.lower)
        field_defect, seam, pb, detail, pb_detail = _fermi_field_rows(
            ctx, h, reps["weyl"], widest, G)
    check("projector-field", field_defect, 1e-8, detail)
    check("projector-seam-transport", seam, 1e-10, detail)

    # ambient anchor: the identity field of the weyl family, closed by the seam
    Ga = max(16, G // 2)
    identity = np.broadcast_to(np.eye(ctx.N, dtype=complex), (Ga, Ga, ctx.N, ctx.N))
    [sums] = _kernels.plaquette_flux_sum(
        identity, [ctx.N], twist_transport(ctx, np.arange(Ga) / Ga), Ga)
    anchor = _rounded(*sums, Ga, "weyl")
    ok = anchor.value == ctx.q      # the rank-N twisted field has t = q
    check("ambient-anchor", anchor.residual if ok else 1.0, 1e-3,
          f"t(identity) = {anchor.value}, expected {ctx.q}")

    # conductance identities on every gap
    try:
        certs = gap_certificates(ctx, G)
    except NumericalFailure as exc:
        worst, detail = float("inf"), str(exc)
    else:
        worst, detail = max(c["rhs_residual"] for c in certs), f"{len(certs)} gaps verified"
    check("tknn-gaps", worst, RHS_TOL, detail)

    # pullback lemma on the widest internal gap, read off the 2G field above
    check("pullback-lemma", pb, 0.5, pb_detail)

    # symbolic vs numeric trace/character
    # exact once the grid exceeds 6 * deg = 24, so one fixed grid serves every G
    Gx = 32
    cross = max(
        symbolic_numeric_crosscheck(random_element(theta, 4, rng), ctx, Gx)
        for _ in range(5)
    )
    check("symbolic-numeric", cross, 1e-10, f"5 random degree-4 elements at G={Gx}")

    return out
