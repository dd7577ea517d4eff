"""Band structure over a k-grid, gap reports, and Fermi projector fields.

Eigenvectors are computed only where frames are read.  One fiberwise
Hermitian eigendecomposition per (rep, element, grid), `bands_on_grid`,
feeds the projectors and Chern numbers, and one per (context, element,
grid) when both families are needed: `dual_bands` diagonalizes the weyl
family and reads the reference bands off it by magnetic translation.
Consumers of energies alone take `band_energies`, the same matrices
through `eigvalsh`; for the flux operator h, whose spectrum depends on k
only through its central character (below), the uncolored butterfly
takes `hofstadter_energies`, one `eigvalsh` per character pair.
Isospectrality keeps its direct `band_energies` passes: read off the
character, it would hold by construction.  The spectral projector below
a Fermi level in a gap (the finite-dimensional stand-in for the
resolvent contour integral) is carried as the occupied eigenvector
columns it came from, a view into the band frames; the dense N x N
projector is built only on demand.

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
reads them off four N x N matrices, and `hofstadter_energies` reads a
whole grid's energies off its distinct values of that sum.  A slot
between consecutive bands is open when it is wider than GAP_TOL.  The
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
a mirrored `BandData` keeps full energies but only the frames of the
diagonalized rows i = 0 .. G//2, and its consumers read the mirror off
`len(frames) < len(k1s)`: the Chern kernel weights those rows (see
`_kernels`), and the dense projector and the pullback expand them with
`expand_k1_mirror`.

Half of the stored k2 columns need none either when `a` is also
invariant under the flip u -> u*, v -> v*, i.e. a(n, m) = a(-n, -m), as
h is.  `bands_on_grid` and `band_energies` check both conditions on the
coefficients to the self-adjointness tolerance (`_diagonalized`) and
take the quarter grid only when both hold.  Let Q(k1) be the monomial
unitary sending row j to row -j mod N, times the shift's corner phase
lam(k1) = e^{i2pi q k1} for j != 0 (lam = 1 on the conjugated form).
Then Q C^{-1} Q^dagger = C and Q S(lam)^{-1} Q^dagger = S(conj lam), so
pi_(-k)(a) = Q pi_k(a) Q^dagger in every family.  With the k1 mirror,
column k2 = (G - j)/G of a stored row has the energies of column j/G
and the frames R conj F, R = Q(-k1), transported by `twist_transport`
on the weyl family, where that column is k2 = -j/G + 1.  So `bands_on_grid` diagonalizes (G//2 + 1)^2 points,
a quarter of the grid, and fills the other stored columns in place;
`frames` keeps every k2 column, and no consumer sees the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .algebra import AlgebraElement, element_star, hofstadter_element
from .arithmetic import WeylContext
from .representations import (
    TWO_PI,
    FiberedRep,
    evaluate_on_grid,
    reference_fibered_rep,
    weyl_fibered_rep,
)

SELFADJOINT_TOL = 1e-12
GAP_TOL = 1e-8            # least width of an open slot between consecutive bands
FERMI_TOL = 1e-8          # least distance of a Fermi level from the sampled spectrum


class SelfAdjointnessError(ValueError):
    """The element is not a fixed point of the involution."""


class NumericalFailure(RuntimeError):
    """A computed quantity could not be certified on the chosen grid."""


class GapViolationError(NumericalFailure):
    """The Fermi level touches the sampled spectrum."""


@dataclass(frozen=True)
class BandData:
    """Eigendecomposition of pi_k(a) over a regular grid on [0,1)^2."""

    rep: FiberedRep
    k1s: np.ndarray
    k2s: np.ndarray
    energies: np.ndarray   # (G1, G2, N), ascending in the last axis
    frames: np.ndarray     # (G1 or G1//2 + 1 when k1-mirrored, G2, N, N), orthonormal columns

    @property
    def shape(self):
        return self.energies.shape[:2]


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


def bands_on_grid(rep: FiberedRep, a: AlgebraElement, G: int) -> BandData:
    """Fiberwise eigendecomposition on a G x G grid.

    When a(n, m) = conj(a(-n, m)) and a(n, m) = a(-n, -m) within 1e-12
    (the k1 mirror and the flip; the flux operator h qualifies), only the
    points k = (i/G, j/G), i, j = 0 .. G//2, are diagonalized (see the
    module docstring).  Column G - j of a stored row is filled by the flip
    intertwiner (`_fill_flipped_columns`), and row i > G//2 has the
    energies of row G - i, filled in, and its conjugated frames, which are
    not stored: `frames` keeps the G//2 + 1 stored rows, every k2 column.
    Any other self-adjoint element is diagonalized on the full grid.
    """
    return _bands(rep, a, G, _diagonalized(a, G))


def band_energies(rep: FiberedRep, a: AlgebraElement, G: int) -> np.ndarray:
    """The (G, G, N) energies of `bands_on_grid(rep, a, G)`, without eigenvectors.

    Same checks and the same diagonalized points (a quarter of the grid
    for h), through `eigvalsh`; for consumers that read no frames.
    """
    n = _diagonalized(a, G)
    return _expand_energies(np.linalg.eigvalsh(_grid_stack(rep, a, G, n)), G)


def hofstadter_energies(ctx: WeylContext, G: int) -> np.ndarray:
    """The (G, G, N) energies of h = u + u* + v + v* on the weyl family's G x G grid.

    The reference family's grid at M0 = 0, like `band_energies(rep, h, G)`.
    The spectrum of pi_k(h) depends on k only through Re U^N + Re V^N (see
    the module docstring).  At the grid point k = (i/G, j/G), V^N = e^{i2pi k1}
    and U^N = e^{i2pi c k2}, with c = M0 on the weyl family and c = N on
    the reference one, so the point has the spectrum of the folded character
    indices x = min(i, G - i) and y = min(cj mod G, G - cj mod G), in either
    order.  Each unordered pair is diagonalized once, as the reference
    family at (k1, k2) = (x/G, y/(N G)), whose characters are e^{i2pi x/G}
    and e^{i2pi y/G}, and an index map expands the results to the grid.
    """
    h = hofstadter_element(ctx.theta)
    _check_self_adjoint(h)
    i = np.arange(G)
    x = np.minimum(i, G - i)
    cj = (ctx.M0 or ctx.N) * i % G
    y = np.minimum(cj, G - cj)
    lo, hi = np.minimum.outer(x, y), np.maximum.outer(x, y)
    pairs, index = np.unique(lo * G + hi, return_inverse=True)
    px, py = np.divmod(pairs, G)
    k = np.arange(G // 2 + 1)
    H = _hermitian_stack(reference_fibered_rep(ctx), h, k / G, k / (ctx.N * G))
    return np.linalg.eigvalsh(H[px, py])[index.reshape(G, G)]


def dual_bands(ctx: WeylContext, a: AlgebraElement, G: int):
    """(bd_r, bd_w): reference and weyl bands of `a` at G from one weyl pass.

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
    on the weyl pass's rows.  conj W(k1) = W(-k1), so k1-mirrored weyl
    bands give k1-mirrored reference bands, and when the weyl pass fills
    its columns by the flip (`bands_on_grid`), so does this one: it
    builds the reference columns j = 0 .. G//2 and fills the rest.  bd_w
    is None at M0 = 0.
    """
    rep_r = reference_fibered_rep(ctx)
    n = _diagonalized(a, G)
    if ctx.M0 == 0:
        return _bands(rep_r, a, G, n), None
    bd_w = _bands(weyl_fibered_rep(ctx), a, G, n)
    N, M0 = ctx.N, ctx.M0
    k = bd_w.k1s
    energies = np.empty((n, n, N))
    frames = np.empty_like(bd_w.frames)
    g = math.gcd(M0, G)
    own = np.flatnonzero(np.arange(n) % g)        # columns no weyl column reaches
    if len(own):
        energies[:, own], frames[:, own] = np.linalg.eigh(
            _hermitian_stack(rep_r, a, k[:n], k[own]))
    inv_qm = pow(ctx.q * ctx.M, -1, N)            # -a
    inv_m0 = pow(M0 // g, -1, G // g)
    lam = np.exp(1j * TWO_PI * ctx.q * k[:n])[:, None, None]
    for j in range(0, n, g):
        jw = N * (j // g) * inv_m0 % (G // g)
        p = inv_qm * ((M0 * jw - N * j) // G) % N
        energies[:, j] = bd_w.energies[:n, jw]
        src, dst = bd_w.frames[:, jw], frames[:, j]
        dst[:, p:] = src[:, :N - p]                               # (S^p F)[i] = F[i - p]
        np.multiply(lam, src[:, N - p:], out=dst[:, :p])          # wrapped rows: lam F[i - p + N]
    if n < G:
        _fill_flipped_columns(rep_r, frames, n)
    return BandData(rep_r, k, k, _expand_energies(energies, G), frames), bd_w


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
    _check_self_adjoint(a)
    if (a.approx_equal(_k1_mirror(a), SELFADJOINT_TOL)
            and a.approx_equal(_flip(a), SELFADJOINT_TOL)):
        return G // 2 + 1
    return G


def _grid_stack(rep: FiberedRep, a: AlgebraElement, G: int, n: int) -> np.ndarray:
    """The (n, n, N, N) matrices a pass diagonalizes, n from `_diagonalized`."""
    k = np.arange(n) / G
    return _hermitian_stack(rep, a, k, k)


def _bands(rep: FiberedRep, a: AlgebraElement, G: int, n: int) -> BandData:
    """`bands_on_grid(rep, a, G)`, given n = `_diagonalized(a, G)`."""
    energies, frames = np.linalg.eigh(_grid_stack(rep, a, G, n))
    if n < G:
        full = np.empty((n, G) + frames.shape[2:], frames.dtype)
        full[:, :n] = frames
        frames = full                   # frees eigh's quarter before the fill
        _fill_flipped_columns(rep, frames, n)
    k = np.arange(G) / G
    return BandData(rep, k, k, _expand_energies(energies, G), frames)


def _expand_energies(e: np.ndarray, G: int) -> np.ndarray:
    """The (G, G, N) energies of the diagonalized (n, n, N) ones.

    Column G - j of a stored row has the energies of column j, and row
    G - i those of row i (`expand_k1_mirror`).
    """
    n = e.shape[1]
    if n == G:
        return e
    rows = np.empty((n, G) + e.shape[2:], e.dtype)
    rows[:, :n] = e
    rows[:, n:] = e[:, G - n:0:-1]
    return expand_k1_mirror(rows, G)


def _fill_flipped_columns(rep: FiberedRep, frames: np.ndarray, cols: int):
    """Writes the frames of columns cols .. G-1 from those of columns G - j, in place.

    `frames` holds the stored k1 rows i = 0 .. G//2.  F(i, G - j) is
    R conj F(i, j), R = Q(-k1), transported by T = twist_transport(ctx, k1, 1)
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
        lam = np.exp(-1j * TWO_PI * rep.ctx.q * np.arange(len(frames)) / G)
        dst[..., 0 if weyl else 1:, :] *= lam[:, None, None, None]     # T R: every row; R: j != 0


def _check_self_adjoint(a: AlgebraElement):
    if not a.approx_equal(element_star(a), SELFADJOINT_TOL):
        raise SelfAdjointnessError("element is not self-adjoint within 1e-12")


def _hermitian_stack(rep: FiberedRep, a: AlgebraElement, k1s: np.ndarray, k2s: np.ndarray):
    """pi_k(a) over the k1s x k2s grid, made exactly Hermitian."""
    H = evaluate_on_grid(rep, a, k1s, k2s)
    H += H.conj().swapaxes(-1, -2)      # scrub fp asymmetry, one temporary
    H *= 0.5
    return H


def _k1_mirror(a: AlgebraElement) -> AlgebraElement:
    """b with b(n, m) = conj(a(-n, m)), so that conj(pi_k(a)) = pi_(-k1, k2)(b)."""
    return AlgebraElement(a.theta, {(-n, m): c.conjugate() for (n, m), c in a.coeffs.items()})


def _flip(a: AlgebraElement) -> AlgebraElement:
    """b with b(n, m) = a(-n, -m): the image of a under u -> u*, v -> v*."""
    return AlgebraElement(a.theta, {(-n, -m): c for (n, m), c in a.coeffs.items()})


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


def detect_gaps_refined(E2: np.ndarray) -> GapReport:
    """Sampled gap report of the uncolored butterfly SVG, from (2G, 2G, N) energies.

    The candidate gaps of the G grid, read as E2[::2, ::2] (the point i/G
    is exactly 2i/(2G)), are rechecked on the 2G grid.  A genuine gap
    keeps (nearly) its width under refinement while a fake gap from
    undersampling a band touching shrinks by ~2x (conical) or ~4x
    (quadratic); the 0.7 ratio separates the two regimes, and can also
    close a genuine gap whose sampled width is still converging.  Edges
    are taken from the finer grid.
    """
    E1 = E2[::2, ::2]
    lo1, hi1 = E1.min(axis=(0, 1)), E1.max(axis=(0, 1))
    lo2, hi2 = E2.min(axis=(0, 1)), E2.max(axis=(0, 1))
    w1 = lo1[1:] - hi1[:-1]
    w2 = lo2[1:] - hi2[:-1]
    open_slots = (w2 > GAP_TOL) & (w2 >= 0.7 * w1)
    return _build_report(lo2, hi2, open_slots)


@dataclass(frozen=True)
class ProjectorField:
    """Orthogonal projector of constant rank per grid point, held as its frames.

    `frames[i, j]` has orthonormal columns spanning the range of
    P(k1s[i], k2s[j]).  Plaquette link variables are gauge-invariant, so
    any such basis serves: a Fermi field keeps the occupied eigenvector
    columns of its BandData as they are, k1-mirrored ones included, whose
    frames hold rows i = 0 .. G1//2 only (`expand_k1_mirror`).
    """

    rep: FiberedRep
    k1s: np.ndarray
    k2s: np.ndarray
    frames: np.ndarray     # (G1 or G1//2 + 1 when k1-mirrored, G2, N, rank)

    @property
    def shape(self):
        return len(self.k1s), len(self.k2s)

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
        return expand_k1_mirror(np.einsum("ijar,ijbr->ijab", F, F.conj()), len(self.k1s))

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


def fermi_projector_field(bd: BandData, fermi: float) -> ProjectorField:
    """Sum of eigenprojections below `fermi`, which must sit in a gap, FERMI_TOL clear."""
    if np.abs(bd.energies - fermi).min() <= FERMI_TOL:
        raise GapViolationError(f"fermi level {fermi} is within {FERMI_TOL} of the spectrum")
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


def spectral_hausdorff(e1: np.ndarray, e2: np.ndarray) -> float:
    """Hausdorff distance between two sampled eigenvalue sets (energy arrays)."""
    a = np.sort(e1, axis=None)
    b = np.sort(e2, axis=None)

    def directed(x, y):
        idx = np.clip(np.searchsorted(y, x), 1, len(y) - 1)
        return np.minimum(np.abs(x - y[idx]), np.abs(x - y[idx - 1])).max()

    return float(max(directed(a, b), directed(b, a)))


def band_rows(energies: np.ndarray, prefix: str) -> str:
    """One `{prefix}k1,k2,band,energy` line per eigenvalue of a (G1, G2, N) array.

    k1 = i/G1 and k2 = j/G2; rows run over k1, k2, band.  Every number is
    printed at 12 significant digits: the k values and row heads are
    formatted once into one `%s` template, and so is each distinct energy
    (distinct bit pattern, so -0.0 keeps its sign), which a single `%`
    fills in.
    """
    G1, G2, N = energies.shape
    head = prefix.replace("%", "%%")
    k1 = [format(i / G1, ".12g") for i in range(G1)]
    k2 = [format(j / G2, ".12g") for j in range(G2)]
    bands = [f"{b},%s\n" for b in range(N)]
    points = (f"{head}{a},{c}," for a in k1 for c in k2)
    # p + p.join(bands) is p + bands[0] + p + bands[1] + ...: one row per band
    template = "".join(p + p.join(bands) for p in points)
    bits, index = np.unique(energies.ravel().view(np.int64), return_inverse=True)
    texts = np.array([format(e, ".12g") for e in bits.view(float).tolist()], dtype=object)
    return template % tuple(texts[index].tolist())
