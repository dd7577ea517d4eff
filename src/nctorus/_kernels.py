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

A k1-mirrored grid is summed over half its plaquette rows.  When frames
holds only rows i = 0 .. G1//2 of a G1-row grid, row G1 - i stands for
conj F(i) (`spectral.bands_on_grid`), and the seam obeys
T(k1_(G1-i)) = conj T(k1_i), as the weyl seam does.  Then
Lx(G1-1-i) = Lx(i) and Ly(G1-i) = conj Ly(i), so the plaquette
(G1-1-i, j) is the product of (i, j) and has its angle.  Plaquettes are
gauge-invariant, so the angles agree for every i, next to k1 = 1/2 as
well, where the frames of both neighbouring rows are diagonalized and
the links themselves do not mirror.  Hence the flux is twice the sum over the
plaquette rows i < G1/2, plus the middle row (G1-1)/2 once when G1 is
odd; that middle row ends at the one row not stored, conj F(G1//2),
with Ly((G1+1)/2) = conj Ly(G1//2).  |link| is gauge-invariant as well,
so the half grid has the full grid's smallest link.  Only the link rows
0 .. ceil(G1/2) - 1 (k1) and 0 .. G1//2 (k2) are formed.
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


def _link_minors(F: np.ndarray, ranks: list[int], seam: np.ndarray | None, G1: int):
    """Lx then Ly, each (len(ranks), rows, G2): leading minors of F(k)^dagger F(k + e1), F(k + e2).

    F holds G1 rows, or rows 0 .. G1//2 of a k1-mirrored grid, for which
    Lx has the ceil(G1/2) rows of the summed plaquettes and Ly one per row
    of F.  Both directions fill one batch-last buffer (R, R, rows, G2) a
    row of links at a time, so no full-size overlap or adjoint array is
    ever formed, and each direction is eliminated before the next one
    fills the buffer.
    """
    H, G2, _, R = F.shape
    buffer = np.empty(R * R * H * G2, complex)
    # the last k1-link ends at row 0 of the torus, or at conj F(G1//2) on a mirrored grid
    x_end = F[0] if H == G1 else F[-1].conj()
    y_end = F[:, 0] if seam is None else seam @ F[:, 0]
    for axis, rows, end in ((0, H if H == G1 else G1 - G1 // 2, x_end), (1, H, y_end)):
        A = buffer[:R * R * rows * G2].reshape(R, R, rows, G2)
        Fa, Aa = F.swapaxes(0, axis), A.swapaxes(2, 2 + axis)
        for i in range(Aa.shape[2]):
            Fj = Fa[i + 1] if i + 1 < len(Fa) else end
            Aa[:, :, i] = np.moveaxis(Fa[i].conj().swapaxes(-1, -2) @ Fj, 0, -1)
        yield _leading_minors(A.reshape(R, R, rows * G2), ranks).reshape(len(ranks), rows, G2)


def plaquette_flux_sum(frames: np.ndarray, ranks: list[int], seam: np.ndarray | None = None,
                       rows: int | None = None):
    """[(flux_sum, min_abs_link)] of the leading `ranks` columns of frames (H, G2, N, R).

    ranks must be non-decreasing and at most R.
    seam: (H, N, N) transport closing k2, or None for a periodic field.
    rows: the grid's row count G1 (default H); H = G1//2 + 1 < G1 marks
    frames of a k1-mirrored grid, summed over its half (module docstring).
    """
    ranks = list(ranks)
    if not ranks:
        return []
    if ranks != sorted(ranks) or ranks[0] < 0 or ranks[-1] > frames.shape[-1]:
        raise ValueError(f"ranks must be non-decreasing in [0, {frames.shape[-1]}], got {ranks}")
    H = len(frames)
    G1 = H if rows is None else rows
    if H not in (G1, G1 // 2 + 1):
        raise ValueError(f"{H} frame rows fit neither a {G1}-row grid nor its k1 mirror")
    mirrored = H < G1
    out = []
    for Lx, Ly in zip(*_link_minors(frames[..., :ranks[-1]], ranks, seam, G1)):
        min_abs = float(min(np.abs(Lx).min(), np.abs(Ly).min()))
        Ly_next = np.concatenate((Ly[1:], Ly[-1:].conj() if mirrored else Ly[:1]))[:len(Lx)]
        pl = Ly[:len(Lx)] * np.roll(Lx, -1, axis=1) * np.conj(Ly_next) * np.conj(Lx)
        angles = np.angle(pl)
        total = 2 * angles[:G1 // 2].sum() + angles[G1 // 2:].sum() if mirrored else angles.sum()
        out.append((float(total), min_abs))
    return out
