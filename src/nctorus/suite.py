"""Full invariant suite for one (theta, q, r) context.

Bundles every machine-checkable identity of the build into named checks
with pass/fail results: matrix-family algebra, gluing rules,
isospectrality, projector-field health, the conductance identities on
every detected gap, the full-field anchor, the pullback scaling, and the
symbolic/numeric consistency of trace and character.  Deterministic
(fixed RNG seed) so reports are byte-stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .algebra import (
    element_mul,
    hofstadter_element,
    random_element,
    random_selfadjoint_element,
)
from .arithmetic import WeylContext, gap_label_d
from .chern import (
    ambient_chern_analytic,
    fhs_chern,
    gap_certificates,
    pullback_field,
    symbolic_numeric_crosscheck,
)
from .representations import (
    check_pseudoperiodicity,
    evaluate_at_k,
    reference_fibered_rep,
    shift_matrix,
    twist_matrix,
    twist_transport,
    weyl_fibered_rep,
)
from .spectral import (
    NumericalFailure,
    band_energies,
    bands_on_grid,
    expand_k1_mirror,
    fermi_projector_field,
    hofstadter_gap_report,
    identity_field,
    spectral_hausdorff,
)

SEED = 20240601


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    value: float
    threshold: float
    detail: str


def _frob(A) -> float:
    return float(np.linalg.norm(A))


def isospectral_grid(ctx: WeylContext, G: int) -> int:
    """Smallest G' >= G whose sampled central characters coincide across kinds.

    The k-grid sweeps the characters (e^{i2pi M0 j/G}, e^{i2pi j/G}) for
    the weyl family and (e^{i2pi N j/G}, e^{i2pi j/G}) for the reference
    one; the two sets coincide exactly iff gcd(G, N) = gcd(G, |M0|) = 1.
    """
    Gp = G
    while math.gcd(Gp, ctx.N) != 1 or math.gcd(Gp, abs(ctx.M0)) != 1:
        Gp += 1
    return Gp


def run_invariant_suite(ctx: WeylContext, G: int = 32) -> List[CheckResult]:
    rng = np.random.default_rng(SEED)
    out: List[CheckResult] = []

    def check(name, value, threshold, detail=""):
        out.append(CheckResult(name, bool(value <= threshold), float(value),
                               float(threshold), detail))

    theta = ctx.theta
    h = hofstadter_element(theta)
    collapsed = ctx.M0 == 0     # theta = r/q: no faithful twisted family
    reps = {
        "reference": reference_fibered_rep(ctx),
        "reference-conjugated": reference_fibered_rep(ctx, conjugated=True),
    }
    if not collapsed:
        reps["weyl"] = weyl_fibered_rep(ctx)

    # exact integer identities of the context
    exact_ok = (
        ctx.beta * ctx.q - ctx.alpha * ctx.r == 1
        and ctx.nu * ctx.q + ctx.mu * ctx.r * ctx.N == ctx.r
        and ctx.q * ctx.d_r + ctx.n_r * ctx.N == 1
        and ctx.M0 == ctx.q * ctx.M - ctx.r * ctx.N
    )
    check("context-constants", 0.0 if exact_ok else 1.0, 0.5, ctx.label())

    # matrix-family identities at random k
    ks = rng.random((100, 2))
    comm = unit = powu = powv = 0.0
    phase = np.exp(2j * np.pi * ctx.M / ctx.N)
    eye = np.eye(ctx.N)
    for name, rep in reps.items():
        for k in ks:
            U, V = rep.U_at(k), rep.V_at(k)
            comm = max(comm, _frob(U @ V - phase * V @ U))
            unit = max(unit, _frob(U @ U.conj().T - eye), _frob(V @ V.conj().T - eye))
            powu = max(powu, _frob(np.linalg.matrix_power(U, ctx.N) - rep.u_power_scalar(k) * eye))
            powv = max(powv, _frob(np.linalg.matrix_power(V, ctx.N) - rep.v_power_scalar(k) * eye))
    check("commutation", comm, 1e-12, "UV = e^{i2pi M/N} VU, 100 random k, all kinds")
    check("unitarity", unit, 1e-13)
    check("power-identity-u", powu, 1e-12)
    check("power-identity-v", powv, 1e-12)

    # twist layout and transport
    k1 = float(rng.random())
    lam = np.exp(2j * np.pi * ctx.q * k1)
    tw = twist_matrix(ctx, k1)
    layout = _frob(tw - shift_matrix(ctx.N, lam).T)
    layout = max(layout, _frob(np.linalg.matrix_power(tw, ctx.N) - lam * eye))
    layout = max(layout, _frob(twist_transport(ctx, k1, 1) - tw.conj()))
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

    # isospectrality across kinds (vs the conjugated form when no twisted family),
    # each family diagonalized on its own, energies only
    if collapsed:
        Gi, kinds = G, ("reference-conjugated", "reference")
    else:
        Gi, kinds = isospectral_grid(ctx, G), ("weyl", "reference")
    pair = [band_energies(reps[kind], h, Gi) for kind in kinds]
    check("isospectrality", spectral_hausdorff(*pair), 1e-6, f"Hausdorff at grid {Gi}^2")

    # gap structure
    expected_bands = ctx.N if ctx.N % 2 == 1 else ctx.N - 1
    check("band-count", abs(report.bands - expected_bands), 0.5,
          f"{report.bands} merged bands (expected {expected_bands})")
    # gap_label_d is strictly increasing, so a report that matches it is too
    dd = [g.d for g in report.gaps]
    labels = [gap_label_d(ctx.N, g) for g in range(expected_bands + 1)]
    check("gap-labels-increasing", 0.0 if dd == labels else 1.0, 0.5, str(dd))

    # one whole-frame field, the reference Fermi field of the widest internal
    # gap on its own 2G bands, feeds the projector rows and the pullback lemma
    # (on the G bands the lemma fails for N = 8 at G = 8); it is dropped before
    # the certificate pass.  theta = r/q has N = 1 and no internal gap
    internal = report.internal()
    widest = max(internal, key=lambda gg: gg.upper - gg.lower) if internal else None
    field_defect = seam = pb = 0.0
    detail = pb_detail = "no internal gap"
    if widest:
        try:
            f_r = fermi_projector_field(bands_on_grid(reps["reference"], h, 2 * G),
                                        widest.fermi)
        except NumericalFailure as exc:
            field_defect = seam = pb = float("inf")
            detail = pb_detail = str(exc)
        else:
            dft = f_r.defects()
            field_defect = max(dft["idempotency"], dft["trace"])
            # P(k1, 0): both families are the same matrices at k2 = 0, and row 2i
            # of the 2G grid is k1 = i/G; the seam is stacked as the kernel reads
            # it (`chern.fhs_chern`)
            F0 = expand_k1_mirror(f_r.frames[:, 0], 2 * G)[::2]
            seam_T = expand_k1_mirror(twist_transport(ctx, np.arange(G // 2 + 1) / G), G)
            for i in range(0, G, max(1, G // 8)):
                T, P0 = seam_T[i], F0[i] @ F0[i].conj().T
                w, v = np.linalg.eigh(evaluate_at_k(reps["weyl"], h, (i / G, 1.0)))
                occ = v[:, : f_r.rank]
                seam = max(seam, _frob(occ @ occ.conj().T - T @ P0 @ T.conj().T))
            detail = f"gap d={widest.d}"
            # the pulled-back field is sampled n1 (n2) times more coarsely
            try:
                base = fhs_chern(f_r).value
                for (n1, n2) in ((2, 1), (1, 3)):
                    scaled = fhs_chern(pullback_field(f_r, n1, n2)).value
                    pb = max(pb, abs(scaled - n1 * n2 * base))
                pb_detail = f"base Chern {base}"
            except NumericalFailure as exc:
                pb, pb_detail = float("inf"), str(exc)
            del f_r, F0
    check("projector-field", field_defect, 1e-8, detail)
    check("projector-seam-transport", seam, 1e-10, detail)

    # ambient anchor
    if collapsed:
        check("ambient-anchor", 0.0, 1e-3, "not applicable: theta = r/q")
    else:
        anchor = fhs_chern(identity_field(reps["weyl"], max(16, G // 2)))
        ok = anchor.value == ambient_chern_analytic(ctx.N, ctx.q)
        check("ambient-anchor", anchor.residual if ok else 1.0, 1e-3,
              f"t(identity) = {anchor.value}, expected {ctx.q}")

    # conductance identities on every gap
    try:
        certs = gap_certificates(ctx, G)
    except NumericalFailure as exc:
        worst, detail = float("inf"), str(exc)
    else:
        worst, detail = max(c["rhs_residual"] for c in certs), f"{len(certs)} gaps verified"
    check("tknn-gaps", worst, 1e-3, detail)

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
