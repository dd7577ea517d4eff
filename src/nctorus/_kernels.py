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
O = F(k)^dagger F(k') are formed once, and rank R reads the leading minor
det(O[:R, :R]).  Subtracting a multiple of row j from a later row changes
no leading minor, so after Gaussian elimination of O the rank-R minor is
the product of the first R pivots.  Rows are swapped only inside a band
group, the rows [r_i, r_(i+1)) between consecutive requested ranks: that
permutes rows within every later requested block, flipping the sign of
its minor (which is carried along), and leaves the earlier blocks alone.
So the unrequested ranks inside a group, such as the touching central
bands at even N, need no pivot of their own.  An exactly vanishing pivot
is divided as 1: that link reads exactly 0 from its rank on, and the
first such rank already fails the link guard.
"""

from __future__ import annotations

import numpy as np


def _leading_minors(A: np.ndarray, ranks: list[int]) -> np.ndarray:
    """det(O[:R, :R]) for each R of ranks, (len(ranks), B), from A = O batch-last (N, N, B).

    Eliminates A in place, pivoting only inside the groups between ranks.
    """
    N, B = A.shape[1:]
    batch = np.arange(B)
    out = np.empty((len(ranks), B), complex)
    minor = np.ones(B, complex)
    lo = 0
    for k, hi in enumerate(ranks):
        for j in range(lo, hi):
            if hi - j > 1:
                p = j + np.abs(A[j:hi, j]).argmax(axis=0)
                row = A[j, j:].copy()
                A[j, j:] = A[p, j:, batch].T
                A[p, j:, batch] = row.T
                minor[p != j] *= -1
            pivot = A[j, j]
            minor *= pivot
            multipliers = A[j + 1:, j] / np.where(pivot == 0, 1, pivot)
            for i, m in enumerate(multipliers, j + 1):
                A[i, j + 1:] -= m * A[j, j + 1:]
        lo = hi
        out[k] = minor
    return out


def _link_minors(F: np.ndarray, ranks: list[int], seam: np.ndarray | None):
    """Lx then Ly, each (len(ranks), G1, G2): leading minors of F(k)^dagger F(k + e1), F(k + e2).

    Both directions fill one batch-last buffer (R, R, G1, G2) a row of links
    at a time, so no full-size overlap or adjoint array is ever formed, and
    each direction is eliminated before the next one fills the buffer.
    """
    G1, G2, _, R = F.shape
    A = np.empty((R, R, G1, G2), complex)
    for axis, end in ((0, F[0]), (1, F[:, 0] if seam is None else seam @ F[:, 0])):
        Fa, Aa = F.swapaxes(0, axis), A.swapaxes(2, 2 + axis)
        for i, Fi in enumerate(Fa):
            Fj = Fa[i + 1] if i + 1 < len(Fa) else end
            Aa[:, :, i] = np.moveaxis(Fi.conj().swapaxes(-1, -2) @ Fj, 0, -1)
        yield _leading_minors(A.reshape(R, R, G1 * G2), ranks).reshape(len(ranks), G1, G2)


def plaquette_flux_sum(frames: np.ndarray, ranks: list[int], seam: np.ndarray | None = None):
    """[(flux_sum, min_abs_link)] of the leading `ranks` columns of frames (G1, G2, N, R).

    ranks must be non-decreasing and at most R.
    seam: (G1, N, N) transport closing k2, or None for a periodic field.
    """
    ranks = list(ranks)
    if not ranks:
        return []
    if ranks != sorted(ranks) or ranks[0] < 0 or ranks[-1] > frames.shape[-1]:
        raise ValueError(f"ranks must be non-decreasing in [0, {frames.shape[-1]}], got {ranks}")
    out = []
    for Lx, Ly in zip(*_link_minors(frames[..., :ranks[-1]], ranks, seam)):
        min_abs = float(min(np.abs(Lx).min(), np.abs(Ly).min()))
        pl = Ly * np.roll(Lx, -1, axis=1) * np.conj(np.roll(Ly, -1, axis=0)) * np.conj(Lx)
        out.append((float(np.angle(pl).sum()), min_abs))
    return out
