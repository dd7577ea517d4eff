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

One call serves every rank of a family.  The rank-R frames of the gaps
are the leading R columns of one frame array, so the link overlaps
O = F(k)^dagger F(k') are formed once, and rank R reads the determinant
of their leading R x R block.  When the frames hold all N columns, O is
unitary: F(k) and F(k') are both orthonormal bases of C^N, and the seam
T(k1) is unitary too.  For unitary O, Jacobi's complementary-minor
identity det((O^-1)[R:, R:]) = det(O[:R, :R]) / det(O) with O^-1 = O^dagger
gives

    det(O[:R, :R]) = det(O) conj(det(O[R:, R:])),

so above half filling (2R > N) a rank costs an (N-R) x (N-R) determinant
plus the one shared det(O).
"""

from __future__ import annotations

import numpy as np


def _link_overlaps(F: np.ndarray, seam: np.ndarray | None):
    """(Ox, Oy): F(k)^dagger F(k + e1) and F(k)^dagger F(k + e2), each (G1, G2, R, R)."""
    G1, G2, _, R = F.shape
    Fh = F.conj().swapaxes(-1, -2)
    Ox = np.empty((G1, G2, R, R), complex)
    np.matmul(Fh[:-1], F[1:], out=Ox[:-1])
    np.matmul(Fh[-1], F[0], out=Ox[-1])
    Oy = np.empty_like(Ox)
    np.matmul(Fh[:, :-1], F[:, 1:], out=Oy[:, :-1])
    np.matmul(Fh[:, -1], F[:, 0] if seam is None else seam @ F[:, 0], out=Oy[:, -1])
    return Ox, Oy


def _rank_links(O: np.ndarray, ranks: list[int], complementary: bool):
    """The rank-R link determinants of overlaps O, one (G1, G2) array per rank."""
    N = O.shape[-1]
    det_full = None
    for R in ranks:
        if not (complementary and 2 * R > N):
            yield np.linalg.det(O[..., :R, :R])
            continue
        if det_full is None:
            det_full = np.linalg.det(O)
        yield det_full if R == N else det_full * np.conj(np.linalg.det(O[..., R:, R:]))


def plaquette_flux_sum(frames: np.ndarray, ranks: list[int], seam: np.ndarray | None = None):
    """[(flux_sum, min_abs_link)] of the leading `ranks` columns of frames (G1, G2, N, R).

    seam: (G1, N, N) transport closing k2, or None for a periodic field.
    """
    Ox, Oy = _link_overlaps(frames, seam)
    complementary = frames.shape[-1] == frames.shape[-2]
    out = []
    for Lx, Ly in zip(_rank_links(Ox, ranks, complementary),
                      _rank_links(Oy, ranks, complementary)):
        min_abs = float(min(np.abs(Lx).min(), np.abs(Ly).min()))
        pl = Ly * np.roll(Lx, -1, axis=1) * np.conj(np.roll(Ly, -1, axis=0)) * np.conj(Lx)
        out.append((float(np.angle(pl).sum()), min_abs))
    return out
