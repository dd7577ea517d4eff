"""Lattice Chern numbers, the numeric trace/character pair, and verifiers.

Periodic projector fields (reference kind) get the standard
gauge-invariant plaquette discretization (`fhs_chern`).  Twisted fields
(weyl kind) run the same kernel on their own G x G grid, closed in k2
by one seam link: the field at k2 + 1 is the field at k2 transported by
`twist_transport`, so the last k2-link of each column ends at
T(k1) F(k1, 0) (`fhs_chern_twisted`).  Both lattices are closed, so
both sums are integers by construction.

A certificate run needs one Chern number per gap and family.  The Fermi
frames of the gaps are leading column blocks of the family's band
frames, so `certify_gaps` makes one kernel call per family with every
gap's rank (the kernel forms the link overlaps once, see `_kernels`),
then checks the gaps in one loop.

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


def _rounded(total: float, min_abs: float, G: int, what: str) -> ChernResult:
    """The Chern number of one kernel sum on a G-row grid, after the link guard."""
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
    [(total, min_abs)] = _kernels.plaquette_flux_sum(field.frames, [field.rank])
    return _rounded(total, min_abs, field.shape[0], "fhs_chern")


def _weyl_seam(ctx: WeylContext, k1s: np.ndarray) -> np.ndarray:
    """twist_transport(k1, 1) of the weyl family, batched over k1: (G1, N, N)."""
    return _shift_power_grid(ctx.N, np.exp(1j * TWO_PI * ctx.q * k1s), -1)


def fhs_chern_twisted(field: ProjectorField) -> ChernResult:
    """Chern number of a twisted (weyl-kind) projector subbundle.

    On the full-rank field this returns the ambient twist winding q.
    """
    if field.rep.kind != "weyl":
        raise ValueError("fhs_chern_twisted requires a weyl-kind field")
    seam = _weyl_seam(field.rep.ctx, field.k1s)
    [(total, min_abs)] = _kernels.plaquette_flux_sum(field.frames, [field.rank], seam)
    return _rounded(total, min_abs, field.shape[0], "fhs_chern_twisted")


def ambient_chern_analytic(N: int, q: int) -> int:
    """Closed-form Chern number q of the rank-N twisted field; the sign anchor."""
    if N < 1 or q < 1 or math.gcd(N, q) != 1:
        raise ValueError(f"need coprime N >= 1, q >= 1, got (N,q)=({N},{q})")
    return q


def _column_traces(frames: np.ndarray) -> np.ndarray:
    """Grid sums of |F|^2 per frame column, (R,): column r's share of sum tr P."""
    return (frames.real ** 2 + frames.imag ** 2).sum(axis=(0, 1, 2))


def nc_integral_numeric(field: ProjectorField) -> float:
    """Torus average of trace/N over a periodic field; equals rank/N."""
    if not field.rep.periodic:
        raise ValueError("nc_integral_numeric requires a reference-kind field")
    G1, G2 = field.shape
    trace_sum = _column_traces(field.frames).sum()     # sum of tr P = |F|^2
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


def gap_bands(ctx: WeylContext, G: int = 64, tol: float = 1e-8):
    """The gap report of `ctx` and the bands at G its certificates are read from.

    Returns (report, bd_r, bd_w): the exact gap report of the flux
    operator, read off the four corner characters (`hofstadter_gap_report`:
    every band edge of h = u + u* + v + v* is an eigenvalue at a character
    (+-1, +-1), so no grid sampling or refinement is involved), the
    reference bands at G, and the weyl bands at G (None at theta = r/q).
    Each (rep, G) is diagonalized once.  The Fermi levels are the
    midpoints of the true gaps, so they lie in the sampled gaps of any grid.
    """
    report = hofstadter_gap_report(ctx, tol)
    h = hofstadter_element(ctx.theta)
    bd_r = bands_on_grid(reference_fibered_rep(ctx), h, G)
    bd_w = None if ctx.M0 == 0 else bands_on_grid(weyl_fibered_rep(ctx), h, G)
    return report, bd_r, bd_w


def certify_gaps(ctx: WeylContext, report: GapReport, bd_r: BandData,
                 bd_w: Optional[BandData]) -> List[dict]:
    """One verified certificate per gap of `report`, inf- and sup-gap included.

    `bd_r` must be plain reference bands, as `gap_bands` returns them:
    conjugated-form bands carry N times the character, so they fail the
    identities rather than certify.  Each family's Chern numbers come from
    one kernel call with every gap's rank (weyl first, closed by its seam),
    and the numeric traces from cumulative column traces of `bd_r`.
    Gaps are then checked in order, so the first failing gap raises: the
    reference and weyl Fermi fields and their ranks, the weyl and then the
    reference link guard and rounding, the diophantine, rhs and duality
    identities, and `tknn_solve`.
    """
    ranks = [int((bd_r.energies[0, 0] < gap.fermi).sum()) for gap in report.gaps]
    t_sums = None if bd_w is None else _kernels.plaquette_flux_sum(
        bd_w.frames, ranks, _weyl_seam(ctx, bd_w.k1s))
    cc_sums = _kernels.plaquette_flux_sum(bd_r.frames, ranks)
    G1, G2 = bd_r.shape
    traces = np.concatenate(([0.0], np.cumsum(_column_traces(bd_r.frames))))
    ncints = traces / (G1 * G2) / bd_r.rep.dim
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
            t_res = _rounded(*t_sums[i], G1, "fhs_chern_twisted")
        cc_res = _rounded(*cc_sums[i], G1, "fhs_chern")
        t, cc = t_res.value, cc_res.value
        s = -cc
        ncint = float(ncints[d])
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


def gap_certificates(ctx: WeylContext, G: int = 64, tol: float = 1e-8) -> List[dict]:
    """One verified certificate per detected gap, from the bands of `gap_bands`."""
    report, bd_r, bd_w = gap_bands(ctx, G, tol)
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
