"""Lattice Chern numbers, the numeric trace/character pair, and verifiers.

Periodic projector fields (reference kind) get the standard
gauge-invariant plaquette discretization (`fhs_chern`).  Twisted fields
(weyl kind) are handled by exact unrolling: the transport unitary to the
n-th vertical neighbour cell is scalar after N steps, so the field is
honestly periodic over k2 in [0, N); the plaquette sum there computes
the Chern number of the (1,N)-pullback, which differs from N times the
wanted subbundle Chern number by the rank times the full-field twist
winding q.  Hence

    t = ( flux_sum_on_extended_torus / 2pi + q * rank ) / N .

Orientation of the plaquette loop and the sign of the rank correction
are pinned jointly by the full-field anchor t(identity) = q and by the
derivative-formula character oracle; both are enforced in the tests.
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
    ProjectorField,
    bands_on_grid,
    detect_gaps,
    detect_gaps_refined,
    fermi_projector_field,
)

TWO_PI = 2.0 * math.pi
MIN_LINK_DET = 1e-6
ROUND_TOL = 1e-2
RHS_TOL = 1e-3


class GridTooCoarseError(RuntimeError):
    """A link overlap determinant fell below the admissibility threshold."""


class ChernResidualError(RuntimeError):
    """The lattice sum is not close enough to an integer to be trusted."""


class VerificationError(RuntimeError):
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


def _rounded(raw: float, grid: int, what: str) -> ChernResult:
    value = int(round(raw))
    residual = abs(raw - value)
    if residual >= ROUND_TOL:
        raise ChernResidualError(
            f"{what}: lattice sum {raw} is {residual:.3g} from an integer"
        )
    return ChernResult(value, raw, residual, grid)


def fhs_chern(field: ProjectorField) -> ChernResult:
    """Plaquette-flux Chern number of a periodic projector field."""
    if not field.rep.periodic:
        raise ValueError("fhs_chern requires a periodic field; "
                         "use fhs_chern_twisted for weyl-kind fields")
    G = field.shape[0]
    if field.rank == 0:
        return ChernResult(0, 0.0, 0.0, G)
    total, min_abs = _kernels.plaquette_flux_sum(field.frames)
    if min_abs < MIN_LINK_DET:
        raise GridTooCoarseError(f"link determinant magnitude {min_abs:.3g} < {MIN_LINK_DET}")
    return _rounded(total / TWO_PI, G, "fhs_chern")


def _extended_frames(field: ProjectorField, ctx: WeylContext) -> np.ndarray:
    """Unroll the twisted field to the exactly periodic k2-in-[0,N) torus."""
    F = field.frames
    G1, G2, N, R = F.shape
    lam = np.exp(1j * TWO_PI * ctx.q * field.k1s)
    out = np.empty((G1, ctx.N * G2, N, R), dtype=complex)
    out[:, :G2] = F
    for m in range(1, ctx.N):
        T = _shift_power_grid(ctx.N, lam, -m)       # twist_transport, batched over k1
        out[:, m * G2:(m + 1) * G2] = np.einsum("gab,gjbr->gjar", T, F)
    return out


def fhs_chern_twisted(field: ProjectorField, ctx: Optional[WeylContext] = None) -> ChernResult:
    """Chern number of a twisted (weyl-kind) projector subbundle.

    On the full-rank field this returns the ambient twist winding q.
    """
    if field.rep.kind != "weyl":
        raise ValueError("fhs_chern_twisted requires a weyl-kind field")
    ctx = ctx if ctx is not None else field.rep.ctx
    G = field.shape[0]
    R = field.rank
    if R == 0:
        return ChernResult(0, 0.0, 0.0, G)
    total, min_abs = _kernels.plaquette_flux_sum(_extended_frames(field, ctx))
    if min_abs < MIN_LINK_DET:
        raise GridTooCoarseError(f"link determinant magnitude {min_abs:.3g} < {MIN_LINK_DET}")
    raw = (total / TWO_PI + ctx.q * R) / ctx.N
    return _rounded(raw, G, "fhs_chern_twisted")


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
        t_res = fhs_chern_twisted(f_w, ctx)
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


def verify_generalized_tknn(ctx: WeylContext, fermi: float, G: int = 64) -> TKNNRecord:
    """Verified TKNNRecord for the flux-operator gap containing `fermi`."""
    h = hofstadter_element(ctx.theta)
    bd_w = None if ctx.M0 == 0 else bands_on_grid(weyl_fibered_rep(ctx), h, G)
    bd_r = bands_on_grid(reference_fibered_rep(ctx), h, G)
    g = 0
    for gap in detect_gaps(bd_r).gaps:
        if gap.lower < fermi < gap.upper:
            g = gap.g
            break
    return _verify_at_fermi(ctx, bd_w, bd_r, fermi, g)["record"]


def gap_certificates(ctx: WeylContext, G: int = 64, tol: float = 1e-8) -> List[dict]:
    """One verified certificate per detected gap, inf- and sup-gap included.

    Each family is diagonalized once at G; the reference bands also serve
    as the coarse grid of gap refinement, which adds the one pass at 2G.
    """
    h = hofstadter_element(ctx.theta)
    rep_r = reference_fibered_rep(ctx)
    bd_r = bands_on_grid(rep_r, h, G)
    report, _ = detect_gaps_refined(rep_r, h, G, tol, coarse=bd_r)
    bd_w = None if ctx.M0 == 0 else bands_on_grid(weyl_fibered_rep(ctx), h, G)
    out = []
    for gap in report.gaps:
        cert = _verify_at_fermi(ctx, bd_w, bd_r, gap.fermi, gap.g)
        cert["gap"] = gap
        out.append(cert)
    return out


def tknn_gap_records(ctx: WeylContext, G: int = 64, tol: float = 1e-8) -> List[TKNNRecord]:
    return [c["record"] for c in gap_certificates(ctx, G, tol)]


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
