"""Band structure over a k-grid, gap reports, and Fermi ranks.

Every band pass walks the grid in the same blocks of stored k1 rows,
`_kernels.block_rows` rows of one family's frames, so that no consumer
holds a family's whole frames and no pass builds the whole grid's
matrices.  `band_blocks` diagonalizes one family; `dual_band_blocks`,
for the certificates (`chern`), which read both families, takes the
weyl blocks from `band_blocks` and reads the reference bands off each
by magnetic translation, handing over each block's weyl frames and
then, once it has dropped them, the reference frames read off them.
A Fermi level is checked against a family's per-band [lo, hi], taken
once (`band_edges`, `fermi_rank`).  The spectral projector below a
Fermi level in a gap (the finite-dimensional stand-in for the resolvent
contour integral) is carried as the occupied eigenvector columns it
came from, the leading columns of the band frames, which the flux
kernel reads as they are; no dense N x N projector is built.
Consumers of energies alone take `band_energies`, the same matrices in
the same row blocks through `eigvalsh`; for the flux operator h, whose
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

For h a band pass diagonalizes a quarter of the grid.  Half of the k1
rows need no diagonalization.  In every family U(k) is diagonal unitary
and independent of k1, so conj U = U^{-1}; the shift matrix is real
apart from its corner phase e^{i2pi q k1}, so conj V(k1, k2) =
V(-k1, k2); and every family is 1-periodic in k1.  Hence

    conj pi_k(a) = sum conj(a(n, m)) U^{-n} V(-k1, k2)^m = pi_(-k1, k2)(a)

for every element with a(n, m) = conj(a(-n, m)), such as h.  Row
k1 = (G - i)/G then has the energies of row i/G, and the complex
conjugates of its frames are an eigenbasis of the same eigenspaces.  So
a mirrored pass yields the frames of the diagonalized rows i = 0 ..
G//2 alone; the other rows read the energies of their mirrors
(`grid_index`).  A grid of frames is mirrored iff it stores
G//2 + 1 < G of its G rows.  Its consumers keep those rows: the Chern
kernel weights them (`_kernels`), the suite's pullbacks read theirs off
them, and its Gram defects check them alone; the suite's seam row
expands them.

Half of the stored k2 columns need none either when `a` is also
invariant under the flip u -> u*, v -> v*, i.e. a(n, m) = a(-n, -m), as
h is.  Every pass checks both conditions on the coefficients to the
self-adjointness tolerance (`_diagonalized`) and takes the quarter grid
only when both hold.  Let Q(k1) be the monomial unitary sending row j
to row -j mod N, times the shift's corner phase lam(k1) = e^{i2pi q k1}
for j != 0 (lam = 1 on the conjugated form).  Then Q C^{-1} Q^dagger = C
and Q S(lam)^{-1} Q^dagger = S(conj lam), so pi_(-k)(a) = Q pi_k(a)
Q^dagger in every family.  With the k1 mirror, column k2 = (G - j)/G of
a stored row has the energies of column j/G and the frames R conj F,
R = Q(-k1), transported by `twist_transport` on the weyl family, where
that column is k2 = -j/G + 1.  So a pass diagonalizes (G//2 + 1)^2
points, a quarter of the grid, and fills the frames of the other stored
columns in place: every block keeps every k2 column of frames, and its
energies are those of the diagonalized columns.
"""

from __future__ import annotations

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
    reference_fibered_rep,
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
    """Bands of `a` on the G x G grid in blocks of stored k1 rows, one fiberwise eigh pass.

    Yields (start, energies, frames) for the stored rows start ..
    start + b - 1: energies (b, n, N) of the n diagonalized k2 columns
    and frames (b, G, N, N), every k2 column; b comes from
    `_kernels.block_rows`.  When a(n, m) = conj(a(-n, m)) and a(n, m) =
    a(-n, -m) within 1e-12 (the k1 mirror and the flip; the flux
    operator h qualifies), only the points
    k = (i/G, j/G), i, j = 0 .. G//2, are diagonalized (see the module
    docstring): the G//2 + 1 stored rows are k1-mirrored, and column
    G - j of a stored row is filled by the flip intertwiner
    (`_fill_flipped_columns`).  Any other self-adjoint element is
    diagonalized on the full grid.
    """
    k = np.arange(_diagonalized(a, G)) / G
    step = _kernels.block_rows(G * rep.dim * rep.dim * np.dtype(complex).itemsize)
    for i in range(0, len(k), step):
        yield (i, *_band_rows(rep, a, G, k, i, i + step))


def band_energies(rep: FiberedRep, a: AlgebraElement, G: int):
    """(rows, index): the energies of `band_blocks(rep, a, G)`, without eigenvectors.

    Same checks, the same diagonalized points (a quarter of the grid for
    h) and the same blocks of k1 rows, through `eigvalsh`; for consumers
    that read no frames.  Each matrix is diagonalized on its own, so the
    blocks' energies are those of one whole-grid call, bit for bit.
    """
    n = _diagonalized(a, G)
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
    """Weyl and reference bands of `a` at G in blocks of stored k1 rows, one weyl pass.

    Yields (kind, start, energies, frames) for the stored rows start ..
    start + b - 1, each family's energies and frames as `band_blocks`
    yields them: the weyl block, `band_blocks` of the weyl family,
    first, then the reference block read off it, kind "weyl" and
    "reference".  Only one family's frames are in flight: the pass drops
    the weyl block before it yields the reference one, so a consumer that
    drops each block before it asks for the next (`chern.gap_certificates`)
    never holds both.

    The weyl family is the reference family read at a scaled k2,
    pi^w_(k1, k2) = pi^r_(k1, M0 k2 / N), and the reference family is
    invariant under the magnetic translation
    pi^r_(k1, k2 + m/N) = W^m pi^r_k W^-m, W = S(e^{i2pi q k1})^a,
    a = -(qM)^-1 mod N.  So reference column j (k2 = j/G) is weyl column
    j_w conjugated by W^-m whenever M0 j_w = N j + m G: energies
    E_r(i, j) = E_w(i, j_w) and frames F_r(i, j) = W^-m F_w(i, j_w), a row
    permutation with phases e^{i2pi q k1} (W^-m = S^p, p = -a m mod N, up to
    a scalar phase, which no frame consumer sees).  That needs
    g = gcd(M0, G) to divide j; only the other columns are diagonalized,
    on the block's rows.  conj W(k1) = W(-k1), so k1-mirrored weyl
    bands give k1-mirrored reference bands, and when the weyl pass fills
    its columns by the flip (`band_blocks`), so does this one: it
    builds the reference columns j = 0 .. G//2 and fills the rest.  At
    theta = r/q (M0 = 0, N = 1) the weyl family is constant in k2: g = G,
    so only column 0 is read off it, and the others are diagonalized.
    """
    rep_r = reference_fibered_rep(ctx)
    N, M0 = ctx.N, ctx.M0
    n = _diagonalized(a, G)
    k = np.arange(n) / G
    g = math.gcd(M0, G)
    own = np.flatnonzero(np.arange(n) % g)        # columns no weyl column reaches
    inv_qm = pow(ctx.q * ctx.M, -1, N)            # -a
    inv_m0 = pow(M0 // g, -1, G // g)
    read = []                                     # (j, j_w, p): F_r(j) = S^p F_w(j_w)
    for j in range(0, n, g):
        jw = N * (j // g) * inv_m0 % (G // g)
        read.append((j, jw, inv_qm * ((M0 * jw - N * j) // G) % N))
    fold = grid_index(n, G)[0]                    # E_w's column of weyl column j_w
    for i, E_w, F_w in band_blocks(weyl_fibered_rep(ctx), a, G):
        yield "weyl", i, E_w, F_w
        rows = k[i:i + len(F_w)]
        energies = np.empty((len(rows), n, N))
        frames = np.empty_like(F_w)
        if len(own):
            energies[:, own], frames[:, own] = np.linalg.eigh(
                _hermitian(evaluate_on_grid(rep_r, a, rows, k[own])))
        lam = np.exp(1j * TWO_PI * ctx.q * rows)[:, None, None]
        for j, jw, p in read:
            energies[:, j] = E_w[:, fold[jw]]
            src, dst = F_w[:, jw], frames[:, j]
            dst[:, p:] = src[:, :N - p]                           # (S^p F)[i] = F[i - p]
            np.multiply(lam, src[:, N - p:], out=dst[:, :p])      # wrapped: lam F[i - p + N]
        del E_w, F_w, src, dst          # the weyl block goes before the reference one is read
        if n < G:
            _fill_flipped_columns(rep_r, frames, n, i)
        yield "reference", i, energies, frames
        del frames                      # before the next block is diagonalized


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


def _diagonalized(a: AlgebraElement, G: int) -> int:
    """n: a pass diagonalizes the k1 rows and the k2 columns 0 .. n-1 of the G x G grid.

    n = G//2 + 1 when a(n, m) = conj(a(-n, m)) (the k1 mirror) and
    a(n, m) = a(-n, -m) (the flip), both within 1e-12; n = G otherwise.
    Raises SelfAdjointnessError unless a = a* within 1e-12.
    """
    if not a.approx_equal(element_star(a), SELFADJOINT_TOL):
        raise SelfAdjointnessError("element is not self-adjoint within 1e-12")
    mirror = {(-n, m): c.conjugate() for (n, m), c in a.coeffs.items()}
    flip = {(-n, -m): c for (n, m), c in a.coeffs.items()}      # u -> u*, v -> v*
    if all(a.approx_equal(AlgebraElement(a.theta, b), SELFADJOINT_TOL) for b in (mirror, flip)):
        return G // 2 + 1
    return G


def _band_rows(rep: FiberedRep, a: AlgebraElement, G: int, k: np.ndarray,
               start: int, stop: int):
    """Energies (b, n, N) and frames (b, G, N, N) of the stored rows start .. stop - 1.

    k = arange(n)/G holds the diagonalized k values, n = `_diagonalized(a, G)`:
    the points (k[i], k[j]) of these rows are diagonalized, and the columns
    j >= n are filled by the flip.
    """
    n = len(k)
    energies, frames = np.linalg.eigh(_hermitian(evaluate_on_grid(rep, a, k[start:stop], k)))
    if n < G:
        full = np.empty((len(frames), G) + frames.shape[2:], frames.dtype)
        full[:, :n] = frames
        frames = full                   # frees eigh's block before the fill
        _fill_flipped_columns(rep, frames, n, start)
    return energies, frames


def _fill_flipped_columns(rep: FiberedRep, frames: np.ndarray, cols: int, start: int):
    """Writes the frames of columns cols .. G-1 from those of columns G - j, in place.

    `frames` holds the stored k1 rows i = start, start + 1, ...  F(i, G - j) is
    R conj F(i, j), R = Q(-k1), transported by T = twist_transport(ctx, k1)
    on the weyl family (see the module docstring).  R sends row j to row
    -j mod N times conj(lam(k1)) for j != 0, and T R is the row reversal
    j -> N - 1 - j times conj(lam(k1)): one conjugating copy per row, then
    one phase multiply.
    """
    G, N = frames.shape[1], frames.shape[-2]
    src, dst = frames[:, G - cols:0:-1], frames[:, cols:]
    weyl = rep.kind == "weyl"
    j = np.arange(N)
    to = N - 1 - j if weyl else -j % N
    for row in range(N):
        np.conjugate(src[..., row, :], out=dst[..., to[row], :])
    if not rep.conjugated:
        lam = np.exp(-1j * TWO_PI * rep.ctx.q * np.arange(start, start + len(frames)) / G)
        dst[..., 0 if weyl else 1:, :] *= lam[:, None, None, None]     # T R: every row; R: j != 0


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
