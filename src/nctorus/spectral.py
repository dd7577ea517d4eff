"""Band structure over a k-grid, gap reports, and Fermi ranks.

Every band pass walks the grid in the same blocks of stored k1 rows,
`_kernels.block_rows` rows of one family's frames, so that no consumer
holds a family's whole frames and no pass builds the whole grid's
matrices.  `band_blocks` reads one family's blocks off an orbit table
(below); `dual_band_blocks`, for the certificates (`chern`), which read
both families, reads each block of weyl frames and then, once it has
dropped them, the reference frames of the same rows, off one table.
A Fermi level is checked against a family's per-band [lo, hi], taken
once (`band_edges`, `fermi_rank`).  The spectral projector below a
Fermi level in a gap (the finite-dimensional stand-in for the resolvent
contour integral) is carried as the occupied eigenvector columns it
came from, the leading columns of the band frames, which the flux
kernel reads as they are; no dense N x N projector is built.
Consumers of energies alone take `band_energies`, the stored points'
matrices in the same row blocks, each through its own `eigvalsh`; for
the flux operator h, whose
spectrum depends on k only through its central character (below), the
butterfly takes `hofstadter_energies`, one `eigvalsh` per character
pair: the one source of its CSV energies, whether or not the SVG is
colored, and of the uncolored SVG's sampled gaps.  Isospectrality keeps
its direct `band_energies` passes: read off the character, it would
hold by construction.
Energies come as each diagonalized spectrum once, never copied to the
grid points that share it: rows (K, N), and index (G, G) naming the
row of every grid point.

Gap reports of the flux operator h = u + u* + v + v* are exact and need
no grid.  Every irreducible representation of the rational rotation
algebra is N-dimensional and fixed up to unitary equivalence by its
central character (U^N, V^N) on the unit torus, so the spectrum of
pi_k(h) depends on k only through that character.  For h it enters the
characteristic polynomial only through Re U^N + Re V^N (Chambers, Phys.
Rev. 140, A135 (1965); Hofstadter, PRB 14, 2239 (1976)), so each
eigenvalue branch is monotone in that sum and runs between its values
at the characters (1, 1) and (-1, -1): every band edge is an eigenvalue
at one of the four characters (+-1, +-1).  `hofstadter_gap_report`
reads them off four N x N matrices; `hofstadter_energies` builds and
diagonalizes each distinct unordered pair of folded character indices.
A slot between consecutive bands is open when it is wider than GAP_TOL.  The
uncolored butterfly SVG alone still detects gaps on sampled energies:
a one-step grid refinement rejects fake gaps that only exist because a
band touching fell between grid points (`detect_gaps_refined`).

A band pass diagonalizes one point per orbit of a group of maps of the
grid of central characters, and reads every stored point off that orbit
table (`_OrbitTable`).  Cell (x, y), with V^N = e^{i2pi x/G} and
U^N = e^{i2pi y/G}, is the plain reference family at k = (x/G, y/(N G)).
Weyl point (i, j) is cell (i, M0 j mod G) and reference point (i, j) is
cell (i, N j mod G), each moved by the magnetic translation W^m, and the
conjugated form's point (i, j) is cell (N i mod G, N j mod G) up to a
monomial (`representations`).  Four maps carry pi(a) onto a unitary
image of itself when the coefficients of a admit them, each within 1e-12
(`_symmetries`): the k1 mirror (x, y) -> (-x, y), a(n, m) = conj(a(-n, m)),
by complex conjugation (U is diagonal and independent of k1, the shift
real apart from its corner phase); the flip (x, y) -> (-x, -y),
a(n, m) = a(-n, -m), by the monomial Q sending row j to row -j mod N;
sigma (x, y) -> (-y, x), sigma(a) = a for u -> v, v -> u*, by the twisted
DFT Phi, |Phi_ij| = 1/sqrt(N) (`representations.rotate`), sigma^2 being
the flip; and, for odd N on an even grid, chi (x, y) -> (x + G/2, y + G/2)
when every monomial has n + m odd, so that u, v -> -u, -v sends a to -a,
by a monomial Psi, with frames Psi F[:, ::-1] and energies -E[::-1].  h
admits all four: 289 orbits of the 64 x 64 grid for odd N, 561 for even
N.  The table diagonalizes the least cell of each orbit; the word of a
cell (`_orbits`) reads it off its representative: Phi (held for every
representative when the table fits in one block twice over, else made
per block for the representatives the block reads), the conjugate, one
row map with phases for the flip, Psi and W^m together
(`representations.intertwiner_rows`), and the column reversal.
Plaquettes are gauge-invariant (`_kernels`), so these frames certify
what eigh's would.  An element without some map gets the subgroup it
admits; the trivial group diagonalizes every cell.  The table holds
R N^2 x 16 bytes for R orbits, about G^2 N^2 bytes: 289 N^2 x 16 at
G = 64 for odd N (0.23 MB at N = 7, 0.78 MB at N = 13, 14 MB at N = 55),
beside one family's block in flight.

When a admits the k1 mirror and the flip (h does), a pass stores the
rows i = 0 .. G//2 alone: row G - i stands for the conjugate of row i,
another eigenbasis of its eigenspaces, and its energies are those of
row i (`grid_index`).  A grid of frames is mirrored iff it stores
G//2 + 1 < G of its G rows.  Its consumers keep those rows: the Chern
kernel weights them (`_kernels`), the suite's pullbacks read theirs off
them, and its Gram defects check them alone; the suite's seam row
expands them.  The energies of such a pass are those of the columns
j = 0 .. G//2, each standing for column G - j too, so a pass hands over
(G//2 + 1)^2 spectra.  Otherwise it stores all G rows and columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from . import _kernels
from .algebra import TWO_PI, AlgebraElement, element_star, hofstadter_element
from .arithmetic import WeylContext
from .representations import (
    FiberedRep,
    evaluate_at_points,
    evaluate_on_grid,
    intertwiner_rows,
    reference_fibered_rep,
    rotate,
    weyl_fibered_rep,
)

SELFADJOINT_TOL = 1e-12
GAP_TOL = 1e-8            # least width of an open slot between consecutive bands
# least distance of a Fermi level from the sampled spectrum: below GAP_TOL / 2,
# so the midpoint of every open slot clears it
FERMI_TOL = GAP_TOL / 4


class SelfAdjointnessError(ValueError):
    """The element is not a fixed point of the involution."""


class NumericalFailure(RuntimeError):
    """A computed quantity could not be certified on the chosen grid."""


class GapViolationError(NumericalFailure):
    """The Fermi level touches the sampled spectrum."""


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
    gaps: List[GapInfo]   # ordered, includes inf- and sup-gap

    def internal(self) -> List[GapInfo]:
        return [g for g in self.gaps if math.isfinite(g.lower) and math.isfinite(g.upper)]


def band_blocks(rep: FiberedRep, a: AlgebraElement, G: int):
    """Bands of `a` on the G x G grid of `rep`'s family in blocks of stored k1 rows.

    Yields (start, energies, frames) for the stored rows start ..
    start + b - 1: energies (b, n, N) of the k2 columns 0 .. n - 1 and
    frames (b, G, N, N), every k2 column; b comes from
    `_kernels.block_rows`.  Every block is read off one orbit table (see
    the module docstring).  When `a` admits the k1 mirror and the flip (h
    does), n = G//2 + 1 rows are stored, k1-mirrored, each column j
    standing for G - j too; otherwise n = G.
    """
    table = _OrbitTable(rep.ctx, a, G)
    for i in range(0, table.rows, table.step):
        yield (i, *table.read(rep, i))


def band_energies(rep: FiberedRep, a: AlgebraElement, G: int):
    """(rows, index): the energies of `band_blocks(rep, a, G)`, diagonalized directly.

    The same checks, the same n x n points (a quarter of the grid for h)
    and the same blocks of k1 rows, each point through its own `eigvalsh`,
    not read off an orbit table: isospectrality compares two spectra
    diagonalized independently.  Each matrix is diagonalized on its own, so
    the blocks' energies are those of one whole-grid call, bit for bit.
    """
    n = _symmetries(rep.ctx, a, G)[0]
    k = np.arange(n) / G
    step = _kernels.block_rows(G * rep.dim * rep.dim * np.dtype(complex).itemsize)
    energies = np.concatenate([np.linalg.eigvalsh(_hermitian(evaluate_on_grid(
        rep, a, k[i:i + step], k))) for i in range(0, n, step)])
    return energies.reshape(n * n, -1), grid_index(n, G)


def grid_index(n: int, G: int) -> np.ndarray:
    """(G, G): each grid point's row among the n x n points a pass diagonalizes, row-major.

    On the quarter grid, n < G, point (i, j) reads point (r(i), r(j)),
    r(x) = min(x, G - x).
    """
    r = np.arange(G)
    r = np.minimum(r, G - r) if n < G else r
    return r[:, None] * n + r


def hofstadter_energies(ctx: WeylContext, G: int):
    """(rows, index): the energies of h = u + u* + v + v* on the weyl family's G x G grid.

    The reference family's grid at M0 = 0, like `band_energies(rep, h, G)`.
    The spectrum of pi_k(h) depends on k only through Re U^N + Re V^N (see
    the module docstring).  At the grid point k = (i/G, j/G), V^N = e^{i2pi k1}
    and U^N = e^{i2pi c k2}, with c = M0 on the weyl family and c = N on
    the reference one, so the point has the spectrum of the folded character
    indices x = min(i, G - i) and y = min(cj mod G, G - cj mod G), in either
    order.  Each unordered pair that occurs is built and diagonalized once,
    as the reference family at (k1, k2) = (x/G, y/(N G)), whose characters
    are e^{i2pi x/G} and e^{i2pi y/G}: the entry [x, y] of the grid
    k/G x k/(N G), k = 0 .. G//2, and no other entry is built
    (`evaluate_at_points`); index names the pair of every grid point.
    """
    h = hofstadter_element(ctx.theta)
    i = np.arange(G)
    x = np.minimum(i, G - i)
    y = x[(ctx.M0 or ctx.N) * i % G]
    lo, hi = np.minimum.outer(x, y), np.maximum.outer(x, y)
    pairs, index = np.unique(lo * G + hi, return_inverse=True)
    px, py = np.divmod(pairs, G)
    k = np.arange(G // 2 + 1)
    H = evaluate_at_points(reference_fibered_rep(ctx), h, k / G, k / (ctx.N * G), px, py)
    return np.linalg.eigvalsh(_hermitian(H)), index.reshape(G, G)


def dual_band_blocks(ctx: WeylContext, a: AlgebraElement, G: int):
    """Weyl and reference bands of `a` at G in blocks of stored k1 rows, one orbit table.

    Yields (kind, start, energies, frames) for the stored rows start ..
    start + b - 1, each family's energies and frames as `band_blocks`
    yields them: the weyl block first, then the reference block of the same
    rows, kind "weyl" and "reference", both read off one `_OrbitTable`.
    Only one family's frames are in flight: the pass drops each block
    before it reads the next, so a consumer that drops each block before
    it asks for the next (`chern.gap_certificates`) never holds both.
    """
    table = _OrbitTable(ctx, a, G)
    families = (("weyl", weyl_fibered_rep(ctx)), ("reference", reference_fibered_rep(ctx)))
    for i in range(0, table.rows, table.step):
        for kind, rep in families:
            energies, frames = table.read(rep, i)
            yield kind, i, energies, frames
            del frames                  # before the next block is read


def expand_k1_mirror(rows: np.ndarray, G1: int) -> np.ndarray:
    """The (G1, ...) array of a k1-mirrored one: row G1 - i is the conjugate of row i.

    `rows` holds rows 0 .. G1//2; an array that already has G1 rows is
    returned as it is.
    """
    H = len(rows)
    if H == G1:
        return rows
    out = np.empty((G1,) + rows.shape[1:], rows.dtype)
    out[:H] = rows
    np.conjugate(rows[G1 - H:0:-1], out=out[H:])
    return out


def _symmetries(ctx: WeylContext, a: AlgebraElement, G: int):
    """(n, (mirror, flip, sigma, chi)): the maps of the k-grid that the coefficients of `a` admit.

    mirror: a(n, m) = conj(a(-n, m)); flip: a(n, m) = a(-n, -m); sigma:
    sigma(a) = a, with sigma(u^n v^m) = e^{i2pi theta nm} u^-m v^n; each
    within 1e-12.  chi: every monomial has n + m odd, so chi(a) = -a, for
    odd N on an even grid.  n = G//2 + 1 when mirror and flip hold (the
    stored rows and energy columns of a band pass), G otherwise.  Raises
    SelfAdjointnessError unless a = a* within 1e-12.
    """
    if not a.approx_equal(element_star(a), SELFADJOINT_TOL):
        raise SelfAdjointnessError("element is not self-adjoint within 1e-12")
    images = ({(-n, m): c.conjugate() for (n, m), c in a.coeffs.items()},
              {(-n, -m): c for (n, m), c in a.coeffs.items()},
              {(-m, n): c * a.theta.phase(n * m) for (n, m), c in a.coeffs.items()})
    mirror, flip, sigma = (a.approx_equal(AlgebraElement(a.theta, b), SELFADJOINT_TOL)
                           for b in images)
    chi = ctx.N % 2 == 1 and G % 2 == 0 and all((n + m) % 2 for n, m in a.coeffs)
    return (G // 2 + 1 if mirror and flip else G), (mirror, flip, sigma, chi)


@functools.lru_cache(maxsize=None)
def _orbits(G: int, mirror: bool, flip: bool, sigma: bool, chi: bool):
    """(reps, row, word): the orbits of the G x G character grid under the maps admitted.

    reps are the least cells x G + y of the orbits, ascending; cell c is
    the image of cell reps[row[c]] under word[c] = (turn, mirror, chi):
    sigma (x, y) -> (-y, x) `turn` times, then the k1 mirror
    (x, y) -> (-x, y), then chi (x, y) -> (x + G/2, y + G/2).
    """
    cells = np.arange(G * G)
    x, y = np.divmod(cells, G)
    coords = [x, y, -x % G, -y % G]                         # x, y, -x, -y
    turned = [(0, 1), (3, 0), (2, 3), (1, 2)]               # sigma^turn (x, y)
    words = [(s, m, e) for s in ((0, 1, 2, 3) if sigma else (0, 2) if flip else (0,))
             for m in range(1 + mirror) for e in range(1 + chi)]

    def image(s, m, e):
        return ((coords[turned[s][0] ^ 2 * m] + e * G // 2) % G * G
                + (coords[turned[s][1]] + e * G // 2) % G)

    least = functools.reduce(np.minimum, map(image, *zip(*words)))
    reps = np.flatnonzero(least == cells)
    word = np.full(G * G, -1)
    for k, w in enumerate(words):                   # the first word that reaches each cell
        word[(word < 0) & (image(*w)[least] == cells)] = k
    word = np.array(words, np.int8)[word]
    return reps, np.searchsorted(reps, least), word


class _OrbitTable:
    """eigh of the plain reference family at one cell of each orbit, read at any family's points.

    Cell (x, y) of the G x G character grid is the point (x/G, y/(N G)),
    with characters V^N = e^{i2pi x/G} and U^N = e^{i2pi y/G}; its word
    (`_orbits`) carries its orbit's representative onto it.  Turns are
    integer numerators over L = 2 N G, whose roots of unity `cis` holds.
    """

    def __init__(self, ctx: WeylContext, a: AlgebraElement, G: int):
        self.rows, maps = _symmetries(ctx, a, G)
        reps, self.row, self.word = _orbits(G, *maps)
        self.ctx, self.G = ctx, G
        self.step = _kernels.block_rows(G * ctx.N * ctx.N * np.dtype(complex).itemsize)
        self.x, self.y = x, y = np.divmod(reps, G)
        N, R = ctx.N, len(reps)
        k1 = 2 * N * np.array([[x, -x], [-y, y]])       # [b, mirror]: sigma^b(rep), mirrored
        k2 = 2 * np.array([[y, y], [x, x]])
        self.src = np.moveaxis([k2, ctx.n_r * k1, ctx.q * k1], -1, 0)   # [rep, (u, mu, lam), b, m]
        self.cis = np.exp(1j * TWO_PI * np.arange(2 * N * G) / (2 * N * G))
        # the sigma images of the representatives are held beside them when both fit
        # in one block; a larger table rotates, per block, the ones the block reads
        held = 2 * R * N * N * np.dtype(complex).itemsize <= _kernels.BLOCK_BYTES
        self.energies, self.frames = np.empty((R, N)), np.empty((R, 1 + held, N, N), complex)
        ref, k2 = reference_fibered_rep(ctx), np.arange(G) / (N * G)
        step = _kernels.block_rows(4 * N * N * np.dtype(complex).itemsize)   # a quarter block
        for i in range(0, R, step):
            k1, j = np.unique(x[i:i + step], return_inverse=True)       # reps sorted by x
            self.energies[i:i + step], self.frames[i:i + step, 0] = np.linalg.eigh(_hermitian(
                evaluate_at_points(ref, a, k1 / G, k2, j, y[i:i + step])))
        if held:
            self.frames[:, 1] = rotate(ctx, self.frames[:, 0], 2 * N * x, 2 * y, self.cis)

    def read(self, rep: FiberedRep, start: int):
        """Energies (b, n, N) and frames (b, G, N, N) of `rep`'s stored rows from `start`."""
        ctx, G, N, L = self.ctx, self.G, self.ctx.N, len(self.cis)
        i, j = np.divmod(np.arange(start * G, min(start + self.step, self.rows) * G), G)
        u, mu, lam = dst = rep.turns(i, j, G)
        cell = (N * mu + ctx.d_r * lam) // (2 * N) % G * G + u // 2 % G   # of (V^N, U^N)
        r = self.row[cell]
        turn, mirror, chi = self.word[cell].T
        odd, neg = turn % 2 == 1, chi == 1
        rows, phase = intertwiner_rows(ctx, self.src[r, :, turn % 2, mirror].T, dst, 1 - 2 * chi,
                                       np.where(turn >= 2, -1, 1), self.cis)
        v = self.frames.shape[1]        # row (v r + b) N + l: row l of sigma^b(rep r)
        F = self.frames.reshape(-1, N)[(v * r + (v - 1) * odd)[:, None] * N + rows]
        if v == 1 and odd.any():        # Phi F of each representative the block reads, once
            seen = np.zeros(len(self.x), int)
            seen[r[odd]] = 1
            reps = np.flatnonzero(seen)
            seen[reps] = np.arange(len(reps))
            Fs = rotate(ctx, self.frames[reps, 0], 2 * N * self.x[reps], 2 * self.y[reps],
                        self.cis)
            F[odd] = Fs[seen[r[odd], None], rows[odd]]
            del Fs
        np.conjugate(F, out=F, where=mirror[:, None, None] == 1)
        F *= phase[..., None]
        F[neg] = F[neg, :, ::-1]        # chi(a) = -a: energies -E reversed, columns reversed
        E = self.energies[r]
        E[neg] = -E[neg, ::-1]
        return E.reshape(-1, G, N)[:, :self.rows].copy(), F.reshape(-1, G, N, N)


def _hermitian(H: np.ndarray) -> np.ndarray:
    """The stack of matrices pi_k(a), (..., N, N), made exactly Hermitian in place."""
    H += H.conj().swapaxes(-1, -2)      # scrub fp asymmetry, one temporary
    H *= 0.5
    return H


def _build_report(lo: np.ndarray, hi: np.ndarray, open_slots: np.ndarray) -> GapReport:
    """Gap report from per-band [lo, hi] intervals and the open slots between them."""
    N = len(lo)
    gaps = [GapInfo(0, float("-inf"), float(lo[0]), 0, float(lo[0]) - 1.0)]
    groups = 1
    for c in range(N - 1):
        if open_slots[c]:
            lower, upper = float(hi[c]), float(lo[c + 1])
            gaps.append(GapInfo(len(gaps), lower, upper, c + 1, 0.5 * (lower + upper)))
            groups += 1
    gaps.append(GapInfo(len(gaps), float(hi[-1]), float("inf"), N, float(hi[-1]) + 1.0))
    return GapReport(bands=groups, gaps=gaps)


def hofstadter_gap_report(ctx: WeylContext) -> GapReport:
    """Exact gap report of the flux operator h = u + u* + v + v* in `ctx`.

    On the reference family U(k)^N = e^{i2pi N k2} and V(k)^N = e^{i2pi k1},
    so k1 in {0, 1/2} and k2 in {0, 1/(2N)} sweep the four characters
    (+-1, +-1), where every band edge sits (see the module docstring).
    A slot between consecutive bands is open when its width > GAP_TOL, so
    a genuine gap narrower than that merges its bands (two slots of 2/21
    are 2.5e-9 wide).  For even N the two central bands touch at E = 0
    (Choi, Elliott and Yui, Invent. Math. 99, 225 (1990)), so slot
    N/2 - 1 is closed, however close to 0 its rounded width is, and they
    count once.
    """
    k1s = np.array([0.0, 0.5])
    k2s = np.array([0.0, 0.5 / ctx.N])
    H = evaluate_on_grid(reference_fibered_rep(ctx), hofstadter_element(ctx.theta), k1s, k2s)
    E = np.linalg.eigvalsh(H)       # (2, 2, N); reads one triangle of each matrix
    lo, hi = E.min(axis=(0, 1)), E.max(axis=(0, 1))
    open_slots = lo[1:] - hi[:-1] > GAP_TOL
    if ctx.N % 2 == 0:
        open_slots[ctx.N // 2 - 1] = False
    return _build_report(lo, hi, open_slots)


def detect_gaps_refined(rows: np.ndarray, index: np.ndarray) -> GapReport:
    """Sampled gap report of the uncolored butterfly SVG, from the 2G grid's (rows, index).

    Every row is named by `index`.  The candidate gaps of the G grid, the
    rows that index[::2, ::2] names (the point i/G is exactly 2i/(2G)),
    are rechecked on the 2G grid.  A genuine gap
    keeps (nearly) its width under refinement while a fake gap from
    undersampling a band touching shrinks by ~2x (conical) or ~4x
    (quadratic); the 0.7 ratio separates the two regimes, and can also
    close a genuine gap whose sampled width is still converging.  Edges
    are taken from the finer grid.
    """
    coarse = np.zeros(len(rows), bool)
    coarse[index[::2, ::2]] = True      # the rows the G grid reads
    lo1, hi1 = band_edges(rows[coarse])
    lo2, hi2 = band_edges(rows)
    w1 = lo1[1:] - hi1[:-1]
    w2 = lo2[1:] - hi2[:-1]
    open_slots = (w2 > GAP_TOL) & (w2 >= 0.7 * w1)
    return _build_report(lo2, hi2, open_slots)


def band_edges(energies: np.ndarray):
    """(lo, hi): each band's least and greatest energy over every leading axis, (..., N)."""
    axes = tuple(range(energies.ndim - 1))
    return energies.min(axis=axes), energies.max(axis=axes)


def fermi_rank(energies: np.ndarray, edges, fermi: float) -> int:
    """The number of bands below `fermi`, which must sit in a gap, FERMI_TOL clear.

    edges = band_edges(energies), taken once per family.  Floating-point
    subtraction is monotone, so the energy of a band nearest to a fermi
    level outside its [lo, hi] is lo or hi, and only a band whose [lo, hi]
    holds it is scanned: the distance and the crossing test are those of a
    scan of every energy, bit for bit.  Raises GapViolationError.
    """
    lo, hi = edges
    held = (lo <= fermi) & (fermi <= hi)
    near = np.where(fermi < lo, lo - fermi, fermi - hi)
    near[held] = np.abs(energies[..., held] - fermi).min(axis=tuple(range(energies.ndim - 1)))
    if near.min() <= FERMI_TOL:
        raise GapViolationError(f"fermi level {fermi} is within {FERMI_TOL} of the spectrum")
    if held.any():
        raise GapViolationError(f"fermi level {fermi} crosses a band")
    return int((hi < fermi).sum())


def spectral_hausdorff(e1: np.ndarray, e2: np.ndarray) -> float:
    """Hausdorff distance between two sampled eigenvalue sets (energy arrays)."""
    a = np.sort(e1, axis=None)
    b = np.sort(e2, axis=None)

    def directed(x, y):
        idx = np.clip(np.searchsorted(y, x), 1, len(y) - 1)
        return np.minimum(np.abs(x - y[idx]), np.abs(x - y[idx - 1])).max()

    return float(max(directed(a, b), directed(b, a)))


def band_rows(rows: np.ndarray, index: np.ndarray, prefix: str) -> Iterator[str]:
    """`{prefix}k1,k2,band,energy` lines of a G1 x G2 grid's energies, one string per k1 row.

    Point (i, j), at k1 = i/G1 and k2 = j/G2, has the N energies
    rows[index[i, j]]; lines run over k1, k2, band, at 12 significant
    digits.  Each row is formatted once, into its N `band,energy` lines; a
    point's `{prefix}k1,k2,` (k1 formatted once per row) joins its row's lines.
    A generator: each k1 row's string is formed as it is asked for, so a
    caller that writes them as they come holds one of them at a time.
    """
    G1, G2 = index.shape
    block = "".join(f"{b},%.12g\n" for b in range(rows.shape[1]))
    lines = [(block % tuple(row)).splitlines(keepends=True) for row in rows.tolist()]
    k2 = [format(j / G2, ".12g") + "," for j in range(G2)]
    for i, row in enumerate(index.tolist()):
        k1 = f"{prefix}{i / G1:.12g},"
        yield "".join([p + p.join(lines[d]) for p, d in zip([k1 + c for c in k2], row)])
