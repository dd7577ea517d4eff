"""Lattice Chern numbers, the conductance verifier, and the symbolic cross-check.

A Chern number is the gauge-invariant plaquette discretization of a
projector field's curvature (`_kernels`), summed over the occupied band
frames as a band pass streams them, and the family picks the closure
in k2.  Periodic fields (reference kind) close on their own.  Twisted
fields (weyl kind) run the same kernel on their own G x G grid, closed
in k2 by one seam link: the field at k2 + 1 is the field at k2
transported by `twist_transport`, so the last k2-link of each column
ends at T(k1) F(k1, 0).  Both lattices are closed, so both sums are
integers by construction; `_rounded` reads the integer off a sum, after
the link guard and the branch-cut guard.

A certificate run needs one Chern number per gap and family.  The Fermi
frames of the gaps are leading column blocks of the family's band
frames, so one kernel pass per family serves every gap's rank (the
kernel forms the link overlaps once, see `_kernels`), and the gaps are
then checked in one loop (`_certificates`).  `gap_certificates` streams:
one band pass in blocks of k1 rows (`spectral.dual_band_blocks`) hands
over each block of weyl frames, which their kernel sums and drops, and
then the reference block of the same rows, which the other kernel sums
and drops, both read off one orbit table.  So one family's block of
frames is in flight at a time, and the run holds the table, the stored
points' energies and, per gap, one plaquette angle sum per k1 row: never
a family's whole frames, nor the grid's link minors.
It is the one certificate path: `chern`, `labels`, the colored
butterfly and `verify` all run it, and the colored butterfly draws its
bands and gaps from the certificates' own exact gaps.

Orientation of the plaquette loop is pinned by the full-field anchor
t(identity) = q (the suite's ambient-anchor row) and by the tests'
derivative-formula character oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import _kernels
from .algebra import (
    TWO_PI,
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
    GapReport,
    NumericalFailure,
    band_edges,
    dual_band_blocks,
    fermi_rank,
    hofstadter_gap_report,
)

MIN_LINK_DET = 1e-6
# A plaquette angle is read in (-pi, pi]; one within this of +-pi sits on the
# branch cut, where the last digits of the frames pick its side and so move the
# integer by one.  At q/G = 1/2 the weyl seam plaquettes are exactly -1 in exact
# arithmetic (angle pi to 12 digits); elsewhere the sweeps read angles below
# pi - 2.5e-4.
BRANCH_CUT_TOL = 1e-6
ROUND_TOL = 1e-2
RHS_TOL = 1e-3


class GridTooCoarseError(NumericalFailure):
    """A link overlap determinant or a plaquette angle left the admissible range."""


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


def _rounded(total: float, min_abs: float, max_angle: float, G: int, kind: str) -> ChernResult:
    """The Chern number of a `kind` family's kernel sum on a G-row grid, after the guards.

    The link guard (MIN_LINK_DET) and the branch-cut guard (BRANCH_CUT_TOL)
    raise GridTooCoarseError.
    """
    if min_abs < MIN_LINK_DET:
        raise GridTooCoarseError(f"link determinant magnitude {min_abs:.3g} < {MIN_LINK_DET}")
    if max_angle > math.pi - BRANCH_CUT_TOL:
        raise GridTooCoarseError(f"{kind}: plaquette angle {max_angle} is within "
                                 f"{BRANCH_CUT_TOL} of the +-pi branch cut")
    raw = total / TWO_PI
    value = int(round(raw))
    residual = abs(raw - value)
    if residual >= ROUND_TOL:
        raise ChernResidualError(f"{kind}: lattice sum {raw} is {residual:.3g} from an integer")
    return ChernResult(value, raw, residual, G)


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
    d/dk1 is formed once, a block of k2 columns at a time; d/dk2 and the
    trace a block of k1 rows at a time, so that beside A and d/dk1 only
    one block's temporaries are held.
    """
    G1, G2, N = A.shape[:3]
    A1 = np.empty_like(A)                   # d/dk1  <->  derivation axis 2
    step = _kernels.block_rows(A[:, 0].nbytes)
    for j in range(0, G2, step):
        A1[:, j:j + step] = _fft_derivative(A[:, j:j + step], 0)
    total = 0j
    step = _kernels.block_rows(A[0].nbytes)
    for i in range(0, G1, step):
        a, a1 = A[i:i + step], A1[i:i + step]
        a2 = _fft_derivative(a, 1)          # d/dk2  <->  derivation axis 1
        total += np.einsum("ijab,ijba->", a, a2 @ a1 - a1 @ a2)
    return complex(total) / (G1 * G2 * N * 2j * np.pi)


# -- conductance verification --------------------------------------------------


def gap_certificates(ctx: WeylContext, G: int = 64) -> List[dict]:
    """One verified certificate per gap of the exact report, inf- and sup-gap included.

    Each certificate carries its `gap` of `hofstadter_gap_report(ctx)`, the
    report it was checked against; the Fermi levels are the midpoints of
    those exact gaps, so they lie in the sampled gaps of any grid.  The pass
    streams (see the module docstring): each block's frames go to its
    family's `_kernels.LinkMinors` (the weyl one closed by the seam of the
    block's rows) and are dropped before the pass reads the next block, and
    only the energies of the stored points are kept, for the Fermi ranks.
    The kernels' ranks are the report's labels d, fixed before the pass.
    A pass whose energies have n < G columns stores n rows of a
    k1-mirrored grid, and a kernel told so keeps no copy of row 0.
    """
    report = hofstadter_gap_report(ctx)
    ranks = [gap.d for gap in report.gaps]
    kernels, energies = {}, {}
    for kind, start, E, F in dual_band_blocks(ctx, hofstadter_element(ctx.theta), G):
        if kind not in kernels:         # E.shape[1] stored rows: fewer than G on a k1 mirror
            kernels[kind] = _kernels.LinkMinors(ranks, G, mirrored=E.shape[1] < G)
        energies.setdefault(kind, []).append(E)
        k1 = np.arange(start, start + len(F)) / G
        kernels[kind].add(F, twist_transport(ctx, k1) if kind == "weyl" else None)
        del F                           # before the pass reads the next block
    E_r, E_w = (np.concatenate(energies[kind]) for kind in ("reference", "weyl"))
    return _certificates(ctx, report, G, E_r, kernels["reference"].flux_sums(), E_w,
                         kernels["weyl"].flux_sums())


def _certificates(ctx: WeylContext, report: GapReport, G: int, E_r: np.ndarray, cc_sums,
                  E_w: np.ndarray, t_sums) -> List[dict]:
    """The certificates of the gaps of `report`, from both families' energies and kernel sums.

    Gaps are checked in order, so the first failing gap raises: the
    reference and weyl Fermi ranks (`fermi_rank`, on each family's band
    edges, taken once) against the gap's label d, the rank the kernels
    summed, then the weyl and then the reference link guard and
    rounding, the diophantine and rhs identities, and `tknn_solve`.  With
    s = -cc the duality N t = M0 cc + q d is the diophantine identity
    itself, so `duality_ok` is recorded, not checked.  E_r and E_w hold
    each family's energies at its stored points; at theta = r/q the
    weyl family is constant in k2, and its t is measured all the same.

    `ncint` is exact: the normalized trace of a rank-d projector is d/N.
    At rational theta the rhs q (d/N + eps cc) then equals
    (q d + M0 cc)/N = t once the diophantine identity holds, so the rhs
    check is the rounding bound |t_raw - t| < RHS_TOL, which tightens
    ROUND_TOL for t; at irrational theta, where the trace is m - theta cc,
    it is an identity of its own.
    """
    N, M0, q = ctx.N, ctx.M0, ctx.q
    edges_r = band_edges(E_r)
    edges_w = band_edges(E_w)
    out = []
    for i, gap in enumerate(report.gaps):
        d = gap.d
        rank_r = fermi_rank(E_r, edges_r, gap.fermi)
        rank_w = fermi_rank(E_w, edges_w, gap.fermi)
        if rank_r != d or rank_w != d:
            raise VerificationError(
                f"{ctx.label()} gap d={d}: rank mismatch weyl={rank_w} reference={rank_r}")
        t_res = _rounded(*t_sums[i], G, "weyl")
        cc_res = _rounded(*cc_sums[i], G, "reference")
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
