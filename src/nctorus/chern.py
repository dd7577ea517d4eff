"""Lattice Chern numbers, the derivative-formula character, and verifiers.

`fhs_chern` is the gauge-invariant plaquette discretization of any
projector field's Chern number, and the field's kind picks the closure
in k2.  Periodic fields (reference kind) close on their own.  Twisted
fields (weyl kind) run the same kernel on their own G x G grid, closed
in k2 by one seam link: the field at k2 + 1 is the field at k2
transported by `twist_transport`, so the last k2-link of each column
ends at T(k1) F(k1, 0).  Both lattices are closed, so both sums are
integers by construction.

A certificate run needs one Chern number per gap and family.  The Fermi
frames of the gaps are leading column blocks of the family's band
frames, so `certify_gaps` makes one kernel call per family with every
gap's rank (the kernel forms the link overlaps once, see `_kernels`),
then checks the gaps in one loop.  Every kernel call, of a certificate
run or of a single field, goes through `_flux_sums`.

Orientation of the plaquette loop is pinned by the full-field anchor
t(identity) = q and by the derivative-formula character oracle; both
are enforced in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import _kernels
from .algebra import (
    AlgebraElement,
    connes_chern_symbolic,
    hofstadter_element,
    nc_integral_symbolic,
)
from .arithmetic import (
    NoConstrainedSolutionError,
    TKNNRecord,
    WeylContext,
    tknn_rhs_value,
    tknn_solve,
)
from .representations import evaluate_on_grid, reference_fibered_rep, twist_transport
from .spectral import (
    BandData,
    GapReport,
    NumericalFailure,
    ProjectorField,
    dual_bands,
    expand_k1_mirror,
    fermi_projector_field,
    hofstadter_gap_report,
)

TWO_PI = 2.0 * math.pi
MIN_LINK_DET = 1e-6
ROUND_TOL = 1e-2
RHS_TOL = 1e-3


class GridTooCoarseError(NumericalFailure):
    """A link overlap determinant fell below the admissibility threshold."""


class ChernResidualError(NumericalFailure):
    """The lattice sum is not close enough to an integer to be trusted."""


class VerificationError(NumericalFailure):
    """A conductance identity failed."""


@dataclass(frozen=True)
class ChernResult:
    value: int
    raw: float
    residual: float
    grid: int


def _rounded(total: float, min_abs: float, G: int, kind: str) -> ChernResult:
    """The Chern number of a `kind` family's kernel sum on a G-row grid, after the link guard."""
    if min_abs < MIN_LINK_DET:
        raise GridTooCoarseError(f"link determinant magnitude {min_abs:.3g} < {MIN_LINK_DET}")
    raw = total / TWO_PI
    value = int(round(raw))
    residual = abs(raw - value)
    if residual >= ROUND_TOL:
        raise ChernResidualError(f"{kind}: lattice sum {raw} is {residual:.3g} from an integer")
    return ChernResult(value, raw, residual, G)


def _flux_sums(field: ProjectorField | BandData, ranks: List[int]):
    """[(flux_sum, min_abs_link)] of the leading `ranks` columns of a field's frames.

    `field` is a ProjectorField or a BandData.  A weyl-kind field closes
    k2 through `twist_transport` stacked over its stored k1 rows, a
    reference one is periodic; a k1-mirrored field is summed over its half.
    """
    k1s = field.k1s[:len(field.frames)]
    seam = twist_transport(field.rep.ctx, k1s) if field.rep.kind == "weyl" else None
    return _kernels.plaquette_flux_sum(field.frames, ranks, seam, len(field.k1s))


def fhs_chern(field: ProjectorField) -> ChernResult:
    """Plaquette-flux Chern number of a projector field, periodic or twisted.

    A weyl-kind field is closed by its seam (`_flux_sums`); on the
    full-rank one this returns the ambient twist winding q.
    """
    [(total, min_abs)] = _flux_sums(field, [field.rank])
    return _rounded(total, min_abs, len(field.k1s), field.rep.kind)


def ambient_chern_analytic(N: int, q: int) -> int:
    """Closed-form Chern number q of the rank-N twisted field; the sign anchor."""
    if N < 1 or q < 1 or math.gcd(N, q) != 1:
        raise ValueError(f"need coprime N >= 1, q >= 1, got (N,q)=({N},{q})")
    return q


def _fft_derivative(A: np.ndarray, axis: int) -> np.ndarray:
    """Spectral d/dk along a periodic axis sampled at j/G."""
    G = A.shape[axis]
    freqs = np.fft.fftfreq(G, d=1.0 / G)
    shape = [1] * A.ndim
    shape[axis] = G
    return np.fft.ifft(np.fft.fft(A, axis=axis) * (2j * np.pi * freqs).reshape(shape), axis=axis)


def _fft_character(A: np.ndarray) -> complex:
    """Grid mean of tr(A (d2A d1A - d1A d2A)) / (2 pi i N) over (G1, G2, N, N) samples.

    On the conjugated reference realization d/dk1 and d/dk2 are the
    algebra derivations of axes 2 and 1, so this is the character of A;
    the derivatives are spectral (FFT) along the periodic grid axes.
    """
    A1 = _fft_derivative(A, 0)   # d/dk1  <->  derivation axis 2
    A2 = _fft_derivative(A, 1)   # d/dk2  <->  derivation axis 1
    C = A2 @ A1 - A1 @ A2
    G1, G2, N = A.shape[:3]
    return complex(np.einsum("ijab,ijba->", A, C)) / (G1 * G2 * N * 2j * np.pi)


def connes_chern_via_derivatives(field: ProjectorField) -> float:
    """Character via the derivative formula; independent of the plaquette path.

    Valid on conjugated-form reference fields, where the algebra
    derivations act as d/dk2 and d/dk1.  Spectrally accurate for gapped
    projectors; used as the orientation cross-check oracle.
    """
    if not (field.rep.periodic and field.rep.conjugated):
        raise ValueError("derivative-formula character needs a conjugated reference field")
    return _fft_character(field.P).real


def pullback_field(field: ProjectorField, n1: int, n2: int) -> ProjectorField:
    """Sample P(n1 k1 mod 1, n2 k2 mod 1); Chern number scales by n1*n2."""
    if n1 == 0 or n2 == 0:
        raise ValueError("pullback multipliers must be nonzero")
    if not field.rep.periodic:
        raise ValueError("pullback_field requires a periodic field")
    G1, G2 = field.shape
    i = (n1 * np.arange(G1)) % G1
    j = (n2 * np.arange(G2)) % G2
    frames = expand_k1_mirror(field.frames, G1)
    return ProjectorField(field.rep, field.k1s, field.k2s, frames[np.ix_(i, j)])


# -- conductance verification --------------------------------------------------


def gap_bands(ctx: WeylContext, G: int = 64):
    """The gap report of `ctx` and the bands at G its certificates are read from.

    Returns (report, bd_r, bd_w): the exact gap report of the flux
    operator, read off the four corner characters (`hofstadter_gap_report`:
    every band edge of h = u + u* + v + v* is an eigenvalue at a character
    (+-1, +-1), so no grid sampling or refinement is involved), the
    reference bands at G, and the weyl bands at G (None at theta = r/q).
    One spectral pass serves both families (`dual_bands`): the weyl bands
    are diagonalized on a quarter of the grid and filled by the k1 mirror
    and the flip, and the reference bands are read off them by magnetic
    translation, except for the columns k2 = j/G with gcd(M0, G) not
    dividing j, which are diagonalized on their own.  The
    Fermi levels are the midpoints of the true gaps, so they lie in the
    sampled gaps of any grid.
    """
    report = hofstadter_gap_report(ctx)
    bd_r, bd_w = dual_bands(ctx, hofstadter_element(ctx.theta), G)
    return report, bd_r, bd_w


def certify_gaps(ctx: WeylContext, report: GapReport, bd_r: BandData,
                 bd_w: Optional[BandData]) -> List[dict]:
    """One verified certificate per gap of `report`, inf- and sup-gap included.

    `bd_r` must be plain reference bands, as `gap_bands` returns them:
    conjugated-form bands carry N times the character, so they fail the
    identities rather than certify.  Each family's Chern numbers come from
    one kernel call with every gap's rank (weyl first, closed by its seam).
    Gaps are then checked in order, so the first failing gap raises: the
    reference and weyl Fermi fields and their ranks, the weyl and then the
    reference link guard and rounding, the diophantine and rhs identities,
    and `tknn_solve`.  With s = -cc the duality N t = M0 cc + q d is the
    diophantine identity itself, so `duality_ok` is recorded, not checked.

    `ncint` is exact: the normalized trace of a rank-d projector is d/N.
    At rational theta the rhs q (d/N + eps cc) then equals
    (q d + M0 cc)/N = t once the diophantine identity holds, so the rhs
    check is the rounding bound |t_raw - t| < RHS_TOL, which tightens
    ROUND_TOL for t; at irrational theta, where the trace is m - theta cc,
    it is an identity of its own.
    """
    ranks = [int((bd_r.energies[0, 0] < gap.fermi).sum()) for gap in report.gaps]
    t_sums = None if bd_w is None else _flux_sums(bd_w, ranks)
    cc_sums = _flux_sums(bd_r, ranks)
    G1 = len(bd_r.k1s)
    N, M0, q = ctx.N, ctx.M0, ctx.q
    out = []
    for i, gap in enumerate(report.gaps):
        d = fermi_projector_field(bd_r, gap.fermi).rank
        if bd_w is None:
            # collapsed twist (theta = r/q, so N = 1): the only subfields of the
            # rank-1 twisted family are 0 and the whole field, of Chern number q*d
            t_res = ChernResult(q * d, float(q * d), 0.0, G1)
        else:
            rank_w = fermi_projector_field(bd_w, gap.fermi).rank
            if rank_w != d:
                raise VerificationError(
                    f"{ctx.label()}: rank mismatch weyl={rank_w} reference={d}")
            t_res = _rounded(*t_sums[i], G1, "weyl")
        cc_res = _rounded(*cc_sums[i], G1, "reference")
        t, cc = t_res.value, cc_res.value
        s = -cc
        ncint = d / N
        diophantine_ok = (N * t + M0 * s == q * d)
        duality_ok = (N * t == M0 * cc + d * q)
        rhs = tknn_rhs_value(ncint, cc, ctx.M / ctx.N, q, ctx.r)
        rhs_residual = abs(t_res.raw - rhs)

        if not diophantine_ok:
            raise VerificationError(
                f"{ctx.label()} gap d={d}: N*t + M0*s = {N * t + M0 * s} != q*d = {q * d}")
        if rhs_residual >= RHS_TOL:
            raise VerificationError(
                f"{ctx.label()} gap d={d}: |t_raw - q[integral + eps*cc]| = {rhs_residual:.3g}")
        try:
            solved = tknn_solve(ctx, d)
        except NoConstrainedSolutionError:
            solved = None           # residue class outside the open window
        if solved is not None and solved != (t, s):
            raise VerificationError(
                f"{ctx.label()} gap d={d}: tknn_solve gives (t, s) = {solved}, measured {(t, s)}")
        residual = max(t_res.residual, cc_res.residual, rhs_residual)
        out.append({
            "record": TKNNRecord(g=gap.g, d=d, t=t, s=s, fermi=gap.fermi, residual=residual),
            "t": t_res,
            "cc": cc_res,
            "ncint": ncint,
            "rhs": rhs,
            "rhs_residual": rhs_residual,
            "diophantine_ok": diophantine_ok,
            "duality_ok": duality_ok,
            "solver_match": None if solved is None else True,
            "gap": gap,
        })
    return out


def gap_certificates(ctx: WeylContext, G: int = 64) -> List[dict]:
    """One verified certificate per gap of the exact report, from the bands of `gap_bands`."""
    report, bd_r, bd_w = gap_bands(ctx, G)
    return certify_gaps(ctx, report, bd_r, bd_w)


# -- symbolic/numeric consistency ----------------------------------------------


def symbolic_numeric_crosscheck(a: AlgebraElement, ctx: WeylContext, G: int = 32) -> float:
    """Max discrepancy between the symbolic trace/character and grid averages.

    The numeric route samples the conjugated reference realization and
    differentiates by FFT, so it only shares the matrix samples with the
    symbolic route.  Exact (to fp noise) when G exceeds twice the
    integrand degree 3*deg(a).
    """
    deg = a.degree()
    if G <= 6 * deg:
        raise ValueError(f"grid {G} too small for degree {deg}: need G > {6 * deg}")
    rep = reference_fibered_rep(ctx, conjugated=True)
    k = np.arange(G) / G
    A = evaluate_on_grid(rep, a, k, k)
    N = ctx.N

    i_sym = nc_integral_symbolic(a)
    i_num = complex(np.trace(A, axis1=-2, axis2=-1).mean()) / N
    c_num = _fft_character(A)
    c_sym = connes_chern_symbolic(a)

    return float(max(abs(i_sym - i_num), abs(c_sym - c_num)))
