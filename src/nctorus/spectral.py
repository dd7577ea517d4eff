"""Band structure over a k-grid, gap detection, and Fermi projector fields.

One fiberwise Hermitian eigendecomposition per (rep, element, grid)
feeds everything downstream.  The spectral projector below a Fermi
level in a gap (the finite-dimensional stand-in for the resolvent
contour integral) is carried as the occupied eigenvector columns it
came from, a view into the band frames; the dense N x N projector is
built only on demand.  Gap detection works on band-edge intervals
sampled on the grid; a one-step grid refinement rejects fake gaps that
only exist because a band touching fell between grid points.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .algebra import AlgebraElement, element_star
from .representations import FiberedRep, evaluate_on_grid

SELFADJOINT_TOL = 1e-12


class SelfAdjointnessError(ValueError):
    """The element is not a fixed point of the involution."""


class GapViolationError(ValueError):
    """The Fermi level touches the sampled spectrum."""


@dataclass(frozen=True)
class BandData:
    """Eigendecomposition of pi_k(a) over a regular grid on [0,1)^2."""

    rep: FiberedRep
    k1s: np.ndarray
    k2s: np.ndarray
    energies: np.ndarray   # (G1, G2, N), ascending in the last axis
    frames: np.ndarray     # (G1, G2, N, N), orthonormal eigenvector columns

    @property
    def shape(self):
        return self.energies.shape[:2]

    def band_intervals(self):
        """Per-band sampled [min, max] over the grid: arrays (N,), (N,)."""
        return self.energies.min(axis=(0, 1)), self.energies.max(axis=(0, 1))


@dataclass(frozen=True)
class GapInfo:
    g: int
    lower: float     # -inf for the inf-gap
    upper: float     # +inf for the sup-gap
    d: int
    fermi: float


@dataclass(frozen=True)
class GapReport:
    bands: int            # merged band count (touching bands count once)
    n_curves: int         # eigenvalue branches = N
    gaps: List[GapInfo]   # ordered, includes inf- and sup-gap

    def internal(self) -> List[GapInfo]:
        return [g for g in self.gaps if math.isfinite(g.lower) and math.isfinite(g.upper)]

    def to_json_dict(self) -> dict:
        rows = []
        for g in self.gaps:
            rows.append({
                "g": g.g,
                "lower": g.lower if math.isfinite(g.lower) else None,
                "upper": g.upper if math.isfinite(g.upper) else None,
                "d": g.d,
                "fermi": g.fermi,
            })
        return {"bands": self.bands, "gaps": rows}


def bands_on_grid(rep: FiberedRep, a: AlgebraElement, G: int,
                  G2: Optional[int] = None) -> BandData:
    """Full fiberwise eigendecomposition on a G x G2 grid (G2 defaults to G)."""
    if not a.approx_equal(element_star(a), SELFADJOINT_TOL):
        raise SelfAdjointnessError("element is not self-adjoint within 1e-12")
    G2 = G if G2 is None else G2
    k1s = np.arange(G) / G
    k2s = np.arange(G2) / G2
    H = evaluate_on_grid(rep, a, k1s, k2s)
    H = 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))   # scrub fp asymmetry
    energies, frames = np.linalg.eigh(H)
    return BandData(rep, k1s, k2s, energies, frames)


def _slot_widths(bd: BandData) -> np.ndarray:
    lo, hi = bd.band_intervals()
    return lo[1:] - hi[:-1]


def _build_report(bd: BandData, open_slots: np.ndarray) -> GapReport:
    lo, hi = bd.band_intervals()
    N = len(lo)
    gaps = [GapInfo(0, float("-inf"), float(lo[0]), 0, float(lo[0]) - 1.0)]
    groups = 1
    for c in range(N - 1):
        if open_slots[c]:
            lower, upper = float(hi[c]), float(lo[c + 1])
            gaps.append(GapInfo(len(gaps), lower, upper, c + 1, 0.5 * (lower + upper)))
            groups += 1
    gaps.append(GapInfo(len(gaps), float(hi[-1]), float("inf"), N, float(hi[-1]) + 1.0))
    return GapReport(bands=groups, n_curves=N, gaps=gaps)


def detect_gaps(bd: BandData, tol: float = 1e-8) -> GapReport:
    """Gap report from a single grid: a slot is open when its width > tol."""
    return _build_report(bd, _slot_widths(bd) > tol)


def detect_gaps_refined(rep: FiberedRep, a: AlgebraElement, G: int,
                        tol: float = 1e-8, coarse: Optional[BandData] = None):
    """One-step refinement: recheck candidate gaps at 2G.

    A genuine gap keeps (nearly) its width under refinement while a fake
    gap from undersampling a band touching shrinks by ~2x (conical) or
    ~4x (quadratic); the 0.7 ratio separates the two regimes.  Returns
    (GapReport, BandData) with edges taken from the finer grid.  Pass the
    caller's `bands_on_grid(rep, a, G)` as `coarse` to skip recomputing it.
    """
    bd1 = bands_on_grid(rep, a, G) if coarse is None else coarse
    bd2 = bands_on_grid(rep, a, 2 * G)
    w1 = _slot_widths(bd1)
    w2 = _slot_widths(bd2)
    open_slots = (w2 > tol) & (w2 >= 0.7 * w1)
    return _build_report(bd2, open_slots), bd2


@dataclass(frozen=True)
class ProjectorField:
    """Orthogonal projector of constant rank per grid point, held as its frames.

    `frames[i, j]` has orthonormal columns spanning the range of
    P(k1s[i], k2s[j]).  Plaquette link variables are gauge-invariant, so
    any such basis serves: a Fermi field keeps the occupied eigenvector
    columns of its BandData as they are.
    """

    rep: FiberedRep
    k1s: np.ndarray
    k2s: np.ndarray
    frames: np.ndarray     # (G1, G2, N, rank)

    @property
    def shape(self):
        return self.frames.shape[:2]

    @property
    def dim(self) -> int:
        return self.frames.shape[-2]

    @property
    def rank(self) -> int:
        return self.frames.shape[-1]

    @property
    def P(self) -> np.ndarray:
        """Dense projector F F^dagger, built on each access: (G1, G2, N, N)."""
        F = self.frames
        return np.einsum("ijar,ijbr->ijab", F, F.conj())

    def defects(self) -> dict:
        """Worst-case residuals of the projector-field invariants."""
        P = self.P
        PH = np.conj(np.swapaxes(P, -1, -2))
        P2 = np.einsum("ijab,ijbc->ijac", P, P)
        tr = np.trace(P, axis1=-2, axis2=-1)
        return {
            "idempotency": float(np.linalg.norm(P2 - P, axis=(-2, -1)).max()),
            "hermiticity": float(np.linalg.norm(PH - P, axis=(-2, -1)).max()),
            "trace": float(np.abs(tr - self.rank).max()),
        }


def fermi_projector_field(bd: BandData, fermi: float, tol: float = 1e-8) -> ProjectorField:
    """Sum of eigenprojections below `fermi`, which must sit in a gap."""
    if np.abs(bd.energies - fermi).min() <= tol:
        raise GapViolationError(f"fermi level {fermi} is within {tol} of the spectrum")
    occ = (bd.energies < fermi).sum(axis=-1)
    rank = int(occ.flat[0])
    if not (occ == rank).all():
        raise GapViolationError(f"fermi level {fermi} crosses a band")
    return ProjectorField(bd.rep, bd.k1s, bd.k2s, bd.frames[..., :rank])


def constant_projector_field(rep: FiberedRep, G: int, P0: np.ndarray) -> ProjectorField:
    """Field with the same projector at every grid point (P0 idempotent Hermitian)."""
    P0 = np.asarray(P0, dtype=complex)
    if np.linalg.norm(P0 @ P0 - P0) > 1e-10 or np.linalg.norm(P0 - P0.conj().T) > 1e-12:
        raise ValueError("P0 is not an orthogonal projection")
    rank = int(round(np.trace(P0).real))
    _, v = np.linalg.eigh(P0)
    F0 = v[:, len(v) - rank:]     # eigenvalue-1 columns: last in ascending order
    k = np.arange(G) / G
    return ProjectorField(rep, k, k, np.broadcast_to(F0, (G, G) + F0.shape))


def identity_field(rep: FiberedRep, G: int) -> ProjectorField:
    return constant_projector_field(rep, G, np.eye(rep.dim))


def spectral_hausdorff(bd1: BandData, bd2: BandData) -> float:
    """Hausdorff distance between the two sampled eigenvalue sets."""
    a = np.sort(bd1.energies.ravel())
    b = np.sort(bd2.energies.ravel())

    def directed(x, y):
        idx = np.clip(np.searchsorted(y, x), 1, len(y) - 1)
        return np.minimum(np.abs(x - y[idx]), np.abs(x - y[idx - 1])).max()

    return float(max(directed(a, b), directed(b, a)))


def export_bands_csv(bd: BandData, path) -> None:
    """Spectrum samples, one eigenvalue per row: k1,k2,band_index,energy."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k1", "k2", "band_index", "energy"])
        G1, G2 = bd.shape
        for i in range(G1):
            for j in range(G2):
                for b in range(bd.energies.shape[-1]):
                    w.writerow([
                        format(bd.k1s[i], ".12g"),
                        format(bd.k2s[j], ".12g"),
                        b,
                        format(bd.energies[i, j, b], ".12g"),
                    ])
