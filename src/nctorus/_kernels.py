"""The lattice field-strength kernel: plaquette fluxes of occupied frames.

The one hot inner loop of the package, vectorized in numpy:

    flux_sum = sum_plaquettes arg( Ly(i,j) Lx(i,j+1) conj(Ly(i+1,j)) conj(Lx(i,j)) )

over the periodically closed grid, where Lx/Ly are the link overlap
determinants det(F(k)^dagger F(k')) between neighbouring frames.  Each
plaquette product is invariant under a unitary change of frame at any
grid point, so the frames may be any orthonormal bases of the occupied
spaces (Fukui-Hatsugai-Suzuki, JPSJ 74, 1674 (2005)).  The loop
orientation is the package-wide Chern sign convention, pinned by the
full-field anchor test.
"""

from __future__ import annotations

import numpy as np


def plaquette_flux_sum(frames: np.ndarray):
    """(flux_sum, min_abs_link) on the periodic grid; frames (G1, G2, N, R)."""
    F = frames
    Fx = np.roll(F, -1, axis=0)
    Fy = np.roll(F, -1, axis=1)
    Lx = np.linalg.det(np.einsum("ijab,ijac->ijbc", F.conj(), Fx))
    Ly = np.linalg.det(np.einsum("ijab,ijac->ijbc", F.conj(), Fy))
    min_abs = float(min(np.abs(Lx).min(), np.abs(Ly).min()))
    pl = Ly * np.roll(Lx, -1, axis=1) * np.conj(np.roll(Ly, -1, axis=0)) * np.conj(Lx)
    return float(np.angle(pl).sum()), min_abs
