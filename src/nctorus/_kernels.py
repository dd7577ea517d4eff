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
conj F(i) (`spectral.band_blocks`), and the seam obeys
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

The frames stream through in blocks of consecutive k1 rows (`LinkMinors`),
so neither a family's whole frames nor a full-size overlap array need be
held.  Every link but the k1-links leaving a block's last row is local to
the block; that row's adjoint is carried to the next block, written into
one buffer that the whole feed reuses.  A block's links are eliminated
together, and then every plaquette row whose k1-link the block closed is
summed over k2: row i reads Lx(i), Ly(i) and Ly(i+1), so the k2-links of
a block's last row are carried to the next block too.  No minor outlives
its block.  The grid closes as one more block, the row that ends its last
k1-link: row 0 again, or on an odd mirrored grid conj F(G1//2), seamed by
conj T(k1_(G1//2)).  Only a full grid reads row 0 again, so a kernel
copies it at the first block unless its caller says that the feed is
k1-mirrored, as every band pass of h is, on a grid of G1 > 2 rows (at
G1 <= 2 the mirror is the whole grid).  Per rank, only one angle sum per
plaquette row (len(ranks), rows), the smallest |link| and the largest
|plaquette angle| are kept for the whole grid; a mirrored plaquette has
the angle of its mirror, so the half grid has the full grid's largest.
Each link is eliminated alone, each row is summed in one fixed order,
and the flux adds the row sums of the grid as one array, so the sums do
not depend on the blocking, bit for bit.  A block holds at most
BLOCK_BYTES of one family's frames, and at least one row.  The band
passes hand their frames over in such blocks, one family's block at a
time, and the certificates and the suite feed them to `LinkMinors` as
they come; `plaquette_flux_sum` feeds the rows of one array, such as the
suite's constant identity field, through the same blocks.
"""

from __future__ import annotations

import numpy as np

BLOCK_BYTES = 1 << 19      # one family's block of frames, at least one k1 row


def block_rows(row_bytes: int) -> int:
    """Stored k1 rows per block of frames whose rows take row_bytes each: at least one."""
    return max(1, BLOCK_BYTES // max(row_bytes, 1))


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


class LinkMinors:
    """The plaquette flux of one frame field, fed in blocks of consecutive stored k1 rows.

    `add` takes the blocks in row order, each with the seam rows that close
    it in k2 (or None for a periodic field); `flux_sums` closes the grid
    through `add`, once, and returns what `plaquette_flux_sum` returns.
    ranks as there; rows is the grid's row count G1.  mirrored says that
    the feed is the stored rows 0 .. G1//2 of a k1-mirrored grid; a kernel
    told so refuses a full grid.  Per rank, only one angle sum per
    plaquette row (len(ranks), rows), the smallest |link| and the largest
    |plaquette angle| so far and the k2-links of the last row fed are
    kept, plus the adjoint of the last row fed (the start of the next
    k1-link, one buffer for the whole feed) and its seam row.  Row 0's
    frames and seam row, which close a full grid, are copied at the first
    block unless the feed is mirrored and G1 > 2.
    """

    def __init__(self, ranks: list[int], rows: int, mirrored: bool = False):
        self.ranks = list(ranks)
        self.G1 = rows
        self.mirrored = mirrored
        self.first = self.last = None
        self.seam_first = self.seam_last = None
        self.stored = 0
        self.closed = False
        self.row_sums = np.empty((len(ranks), rows))
        self.min_abs = np.full(len(ranks), np.inf)
        self.max_angle = np.zeros(len(ranks))
        self.y_last = None

    def add(self, F: np.ndarray, seam: np.ndarray | None = None):
        """Feeds the next stored rows, F (b, G2, N, >= ranks[-1]) and seam (b, N, N) or None.

        Each row's links fill one batch-last buffer (R, R, links, G2) a row
        at a time, from the row's conjugate, written into the carried
        buffer, so no full-size overlap or adjoint array is formed, and one
        elimination serves the block.  Then every plaquette row whose k1-link the block closed is
        summed: from the row before the block (its k2-links carried) to the
        block's last row but one.
        """
        ranks = self.ranks
        if self.last is None:
            if ranks != sorted(ranks) or ranks[0] < 0 or ranks[-1] > F.shape[-1]:
                raise ValueError(f"ranks must be non-decreasing in [0, {F.shape[-1]}], got {ranks}")
            if not self.mirrored or self.G1 <= 2:       # the feed may be a full grid
                self.first = F[:1, ..., :ranks[-1]].copy()
                self.seam_first = None if seam is None else seam[:1].copy()
            self.last = np.empty(F.shape[1:-1] + (ranks[-1],), F.dtype)
        self.seam_last = None if seam is None else seam[-1:].copy()
        F = F[..., :ranks[-1]]
        b, G2, _, R = F.shape
        y_end = F[:, 0] if seam is None else seam @ F[:, 0]
        nx = b - (self.stored == 0)                 # the k1-links that start at a fed row
        A = np.empty((R, R, nx + b, G2), complex)
        for i in range(b):
            if self.stored or i:
                A[:, :, nx - b + i] = _overlaps(self.last, F[i])
            np.conjugate(F[i], out=self.last)
            A[:, :, nx + i, :-1] = _overlaps(self.last[:-1], F[i, 1:])
            A[:, :, nx + i, -1] = self.last[-1].T @ y_end[i]
        L = _leading_minors(A.reshape(R, R, (nx + b) * G2), ranks).reshape(-1, nx + b, G2)
        self.min_abs = np.minimum(self.min_abs, np.abs(L).min(axis=(1, 2)))
        Lx, Ly = L[:, :nx], L[:, nx:]
        if self.y_last is not None:
            Ly = np.concatenate((self.y_last[:, None], Ly), axis=1)
        start = self.stored - (self.y_last is not None)
        angles = _plaquette_angles(Lx, Ly[:, :-1], Ly[:, 1:])
        self.row_sums[:, start:start + nx] = angles.sum(axis=2)
        self.max_angle = np.maximum(self.max_angle, np.abs(angles).max(axis=(1, 2), initial=0.0))
        self.y_last = Ly[:, -1].copy()
        self.stored += b

    def flux_sums(self):
        """[(flux_sum, min_abs_link, max_abs_angle)] per rank of the grid fed so far."""
        H, G1 = self.stored, self.G1
        if self.closed or H not in (G1 // 2 + 1, G1 if self.first is not None else None):
            fit = (f"do not fit the k1 mirror of a {G1}-row grid" if self.mirrored
                   else f"fit neither a {G1}-row grid nor its k1 mirror")
            raise ValueError(f"{H} frame rows {fit} (a closed grid counts its closing row)")
        mirrored = H < G1
        # the last k1-link ends at row 0 of the torus, or at conj F(G1//2) on an odd mirrored
        # grid: a copy, as numpy takes a product of an array with its own transpose by syrk
        if not mirrored:
            self.add(self.first, self.seam_first)
        elif G1 % 2:
            self.add(self.last[None].copy(),
                     None if self.seam_last is None else self.seam_last.conj())
        self.closed = self.stored > H               # a second closing would add another row
        rows = self.row_sums[:, :self.stored - 1]
        if mirrored:
            totals = 2 * rows[:, :G1 // 2].sum(axis=1) + rows[:, G1 // 2:].sum(axis=1)
        else:
            totals = rows.sum(axis=1)
        return [(float(total), float(m), float(angle))
                for total, m, angle in zip(totals, self.min_abs, self.max_angle)]


def _plaquette_angles(Lx: np.ndarray, Ly: np.ndarray, Ly_next: np.ndarray) -> np.ndarray:
    """Per rank, the angles in (-pi, pi] of the plaquettes of the rows, (len(ranks), rows, G2).

    Lx, Ly and Ly_next (len(ranks), rows, G2) are the k1-links of the rows,
    their k2-links and the k2-links of the next rows.
    """
    pl = Ly * np.roll(Lx, -1, axis=2) * np.conj(Ly_next) * np.conj(Lx)
    return np.angle(pl)


def _overlaps(Fh: np.ndarray, F: np.ndarray) -> np.ndarray:
    """F_i(k)^dagger F_j(k) of a row of links, batch-last (R, R, G2), from Fh = conj F_i."""
    return (Fh.swapaxes(-1, -2) @ F).transpose(1, 2, 0)


def plaquette_flux_sum(frames: np.ndarray, ranks: list[int], seam: np.ndarray | None = None,
                       rows: int | None = None):
    """[(flux_sum, min_abs_link, max_abs_angle)] of the leading `ranks` columns of frames.

    frames is (H, G2, N, R); ranks must be non-decreasing and at most R.
    seam: (H, N, N) transport closing k2, or None for a periodic field.
    rows: the grid's row count G1 (default H); H = G1//2 + 1 < G1 marks
    frames of a k1-mirrored grid, summed over its half (module docstring).
    The frames are fed to `LinkMinors` in blocks of `block_rows` rows.
    """
    if not ranks:
        return []
    minors = LinkMinors(ranks, len(frames) if rows is None else rows)
    step = block_rows(frames[0].nbytes)
    for i in range(0, len(frames), step):
        minors.add(frames[i:i + step], None if seam is None else seam[i:i + step])
    return minors.flux_sums()
