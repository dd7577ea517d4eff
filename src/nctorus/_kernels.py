"""The lattice field-strength kernel: plaquette fluxes of occupied frames.

The one hot inner loop of the package, vectorized in numpy:

    flux_sum = sum_plaquettes arg( Ly(i,j) Lx(i,j+1) conj(Ly(i+1,j)) conj(Lx(i,j)) )

over the closed G1 x G2 grid, where Lx/Ly are the link overlap
determinants det(F(k)^dagger F(k')) between neighbouring frames.  Each
plaquette product is invariant under a unitary change of frame at any
grid point, so the frames may be any orthonormal bases of the occupied
spaces (Fukui-Hatsugai-Suzuki, JPSJ 74, 1674 (2005)).  A twisted field
closes its k2 direction through a seam transport T(k1): the last k2-link
of column i ends at T(k1_i) F(k1_i, 0) instead of F(k1_i, 0).  Either
way every link bounds two plaquettes with opposite orientations, so the
sum is 2pi times an integer.  The loop orientation is the package-wide
Chern sign convention, pinned by the full-field anchor test.
"""

from __future__ import annotations

import numpy as np


def plaquette_flux_sum(frames: np.ndarray, seam: np.ndarray | None = None):
    """(flux_sum, min_abs_link) on the grid; frames (G1, G2, N, R), seam (G1, N, N)."""
    F = frames
    Fx = np.roll(F, -1, axis=0)
    Fy = np.roll(F, -1, axis=1)
    if seam is not None:
        Fy[:, -1] = seam @ F[:, 0]
    Fh = F.conj().swapaxes(-1, -2)
    Lx = np.linalg.det(Fh @ Fx)
    Ly = np.linalg.det(Fh @ Fy)
    min_abs = float(min(np.abs(Lx).min(), np.abs(Ly).min()))
    pl = Ly * np.roll(Lx, -1, axis=1) * np.conj(np.roll(Ly, -1, axis=0)) * np.conj(Lx)
    return float(np.angle(pl).sum()), min_abs
