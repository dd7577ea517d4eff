"""Lattice Chern numbers, the numeric trace/character pair, and verifiers.

Periodic projector fields (reference kind) get the standard
gauge-invariant plaquette discretization (`fhs_chern`).  Twisted fields
(weyl kind) run the same kernel on their own G x G grid, closed in k2
by one seam link: the field at k2 + 1 is the field at k2 transported by
`twist_transport`, so the last k2-link of each column ends at
T(k1) F(k1, 0) (`fhs_chern_twisted`).  Both lattices are closed, so
both sums are integers by construction.

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
from .representations import (
    _shift_power_grid,
    evaluate_on_grid,
    reference_fibered_rep,
    weyl_fibered_rep,
)
from .spectral import (
    BandData,
    GapReport,
    NumericalFailure,
    ProjectorField,
    bands_on_grid,
    detect_gaps_refined,
    fermi_projector_field,
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

    def to_json_dict(self) -> dict:
        return {"value": self.value, "raw": self.raw,
                "residual": self.residual, "grid": self.grid}


def _lattice_chern(field: ProjectorField, what: str,
                   seam: Optional[np.ndarray] = None) -> ChernResult:
    """Plaquette-flux Chern number of `field`, its k2 seam closed by `seam`."""
    G = field.shape[0]
    if field.rank == 0:
        return ChernResult(0, 0.0, 0.0, G)
    total, min_abs = _kernels.plaquette_flux_sum(field.frames, seam)
    if min_abs < MIN_LINK_DET:
        raise GridTooCoarseError(f"link determinant magnitude {min_abs:.3g} < {MIN_LINK_DET}")
    raw = total / TWO_PI
    value = int(round(raw))
    residual = abs(raw - value)
    if residual >= ROUND_TOL:
        raise ChernResidualError(f"{what}: lattice sum {raw} is {residual:.3g} from an integer")
    return ChernResult(value, raw, residual, G)


def fhs_chern(field: ProjectorField) -> ChernResult:
    """Plaquette-flux Chern number of a periodic projector field."""
    if not field.rep.periodic:
        raise ValueError("fhs_chern requires a periodic field; "
                         "use fhs_chern_twisted for weyl-kind fields")
    return _lattice_chern(field, "fhs_chern")


def fhs_chern_twisted(field: ProjectorField) -> ChernResult:
    """Chern number of a twisted (weyl-kind) projector subbundle.

    On the full-rank field this returns the ambient twist winding q.
    """
    if field.rep.kind != "weyl":
        raise ValueError("fhs_chern_twisted requires a weyl-kind field")
    ctx = field.rep.ctx
    lam = np.exp(1j * TWO_PI * ctx.q * field.k1s)
    seam = _shift_power_grid(ctx.N, lam, -1)        # twist_transport(k1, 1), batched over k1
    return _lattice_chern(field, "fhs_chern_twisted", seam)


def ambient_chern_analytic(N: int, q: int) -> int:
    """Closed-form Chern number q of the rank-N twisted field; the sign anchor."""
    if N < 1 or q < 1 or math.gcd(N, q) != 1:
        raise ValueError(f"need coprime N >= 1, q >= 1, got (N,q)=({N},{q})")
    return q


def nc_integral_numeric(field: ProjectorField) -> float:
    """Torus average of trace/N over a periodic field; equals rank/N."""
    if not field.rep.periodic:
        raise ValueError("nc_integral_numeric requires a reference-kind field")
    G1, G2 = field.shape
    trace_sum = np.vdot(field.frames, field.frames).real     # sum of tr P = |F|^2
    return float(trace_sum) / (G1 * G2) / field.dim


def connes_chern_numeric(field: ProjectorField) -> ChernResult:
    """Character of the projector through its periodic reference realization.

    A conjugated-form field carries the (N,1)-pullback bundle, so its
    plaquette Chern number is N times the character and is divided out.
    """
    if not field.rep.periodic:
        raise ValueError("connes_chern_numeric requires a reference-kind field")
    res = fhs_chern(field)
    if not field.rep.conjugated:
        return res
    N = field.rep.ctx.N
    if res.value % N != 0:
        raise ChernResidualError(
            f"conjugated-field Chern {res.value} is not divisible by N={N}")
    return ChernResult(res.value // N, res.raw / N, res.residual / N, res.grid)


def _fft_derivative(A: np.ndarray, axis: int) -> np.ndarray:
    """Spectral d/dk along a periodic axis sampled at j/G."""
    G = A.shape[axis]
    freqs = np.fft.fftfreq(G, d=1.0 / G)
    shape = [1] * A.ndim
    shape[axis] = G
    return np.fft.ifft(np.fft.fft(A, axis=axis) * (2j * np.pi * freqs).reshape(shape), axis=axis)


def connes_chern_via_derivatives(field: ProjectorField) -> float:
    """Character via the derivative formula; independent of the plaquette path.

    Valid on conjugated-form reference fields, where the algebra
    derivations act as d/dk2 and d/dk1.  Spectrally accurate for gapped
    projectors; used as the orientation cross-check oracle.
    """
    if not (field.rep.periodic and field.rep.conjugated):
        raise ValueError("derivative-formula character needs a conjugated reference field")
    P = field.P
    P1 = _fft_derivative(P, 0)   # d/dk1
    P2 = _fft_derivative(P, 1)   # d/dk2
    X = np.einsum("ijab,ijbc,ijcd->ijad", P, P2, P1) \
        - np.einsum("ijab,ijbc,ijcd->ijad", P, P1, P2)
    val = np.trace(X, axis1=-2, axis2=-1).mean() / (field.dim * 2j * np.pi)
    return float(val.real)


def pullback_field(field: ProjectorField, n1: int, n2: int) -> ProjectorField:
    """Sample P(n1 k1 mod 1, n2 k2 mod 1); Chern number scales by n1*n2."""
    if n1 == 0 or n2 == 0:
        raise ValueError("pullback multipliers must be nonzero")
    if not field.rep.periodic:
        raise ValueError("pullback_field requires a periodic field")
    G1, G2 = field.shape
    i = (n1 * np.arange(G1)) % G1
    j = (n2 * np.arange(G2)) % G2
    return ProjectorField(field.rep, field.k1s, field.k2s, field.frames[np.ix_(i, j)])


# -- conductance verification --------------------------------------------------


def _verify_at_fermi(ctx: WeylContext, bd_w: Optional[BandData], bd_r: BandData,
                     fermi: float, g: int) -> dict:
    """All three conductance identities at one Fermi level; raises on failure."""
    f_r = fermi_projector_field(bd_r, fermi)
    d = f_r.rank
    if bd_w is None:
        # collapsed twist (theta = r/q, so N = 1): the only subfields of the
        # rank-1 twisted family are 0 and the whole field, of Chern number q*d
        t_res = ChernResult(ctx.q * d, float(ctx.q * d), 0.0, bd_r.shape[0])
    else:
        f_w = fermi_projector_field(bd_w, fermi)
        if f_w.rank != f_r.rank:
            raise VerificationError(
                f"{ctx.label()}: rank mismatch weyl={f_w.rank} reference={f_r.rank}")
        t_res = fhs_chern_twisted(f_w)
    cc_res = connes_chern_numeric(f_r)
    t, cc = t_res.value, cc_res.value
    s = -cc
    ncint = nc_integral_numeric(f_r)

    N, M0, q = ctx.N, ctx.M0, ctx.q
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
    if not duality_ok:
        raise VerificationError(
            f"{ctx.label()} gap d={d}: N*t = {N * t} != M0*cc + d*q = {M0 * cc + d * q}")

    try:
        solver_match = (tknn_solve(ctx, d) == (t, s))
    except NoConstrainedSolutionError:
        solver_match = None     # residue class outside the open window
    residual = max(t_res.residual, cc_res.residual, rhs_residual)
    record = TKNNRecord(g=g, d=d, t=t, s=s, fermi=fermi, residual=residual)
    return {
        "record": record,
        "t": t_res,
        "cc": cc_res,
        "ncint": ncint,
        "rhs": rhs,
        "rhs_residual": rhs_residual,
        "diophantine_ok": diophantine_ok,
        "duality_ok": duality_ok,
        "solver_match": solver_match,
    }


def gap_bands(ctx: WeylContext, G: int = 64, tol: float = 1e-8):
    """The gap report of `ctx` at G and the bands its certificates are read from.

    Returns (report, bd_r, bd_fine, bd_w): the refined gap report of the
    reference family, its bands at G, the refinement's reference bands
    at 2G, and the weyl bands at G (None at theta = r/q).  Each (rep, G)
    is diagonalized once; the bands at G also serve as the coarse grid
    of the refinement.
    """
    h = hofstadter_element(ctx.theta)
    rep_r = reference_fibered_rep(ctx)
    bd_r = bands_on_grid(rep_r, h, G)
    report, bd_fine = detect_gaps_refined(rep_r, h, G, tol, coarse=bd_r)
    bd_w = None if ctx.M0 == 0 else bands_on_grid(weyl_fibered_rep(ctx), h, G)
    return report, bd_r, bd_fine, bd_w


def certify_gaps(ctx: WeylContext, report: GapReport, bd_r: BandData,
                 bd_w: Optional[BandData]) -> List[dict]:
    """One verified certificate per gap of `report`, inf- and sup-gap included."""
    out = []
    for gap in report.gaps:
        cert = _verify_at_fermi(ctx, bd_w, bd_r, gap.fermi, gap.g)
        cert["gap"] = gap
        out.append(cert)
    return out


def gap_certificates(ctx: WeylContext, G: int = 64, tol: float = 1e-8) -> List[dict]:
    """One verified certificate per detected gap, from the bands of `gap_bands`."""
    report, bd_r, _, bd_w = gap_bands(ctx, G, tol)
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

    A1 = _fft_derivative(A, 0)   # d/dk1  <->  derivation axis 2
    A2 = _fft_derivative(A, 1)   # d/dk2  <->  derivation axis 1
    X = np.einsum("ijab,ijbc,ijcd->ijad", A, A2, A1) \
        - np.einsum("ijab,ijbc,ijcd->ijad", A, A1, A2)
    c_num = complex(np.trace(X, axis1=-2, axis2=-1).mean()) / (N * 2j * np.pi)
    c_sym = connes_chern_symbolic(a)

    return float(max(abs(i_sym - i_num), abs(c_sym - c_num)))
