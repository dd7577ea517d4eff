"""Whole-frame projector fields: the oracles the streamed passes are tested against.

The package reads band frames only as they stream from a band pass, a
block of stored k1 rows at a time (`spectral.band_blocks`,
`spectral.dual_band_blocks`).  These helpers hold a family's whole
frames instead: `bands_on_grid` diagonalizes every point of the grid in
one call, with no k1 mirror and no flip, a
`ProjectorField` carries a Fermi field's frames, `fhs_chern` sums them
through `_kernels.plaquette_flux_sum`, `pullback_field` resamples them,
and `connes_chern_via_derivatives` evaluates the character by the
derivative formula, independently of the plaquette path.  Tests compare
the streamed certificates and suite rows with them.  `generators` builds
U(k) and V(k) from the clock and shift matrices, `power_scalars` states
their N-th powers, and `evaluate_by_powers` sums matrix powers of the
generators: the oracles of the package's one evaluator
`representations.evaluate_at_points`.  `orbit_count` counts the
orbits of the character grid by a walk of its own: the matrices one
orbit table (`spectral._OrbitTable`) diagonalizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from nctorus import _kernels
from nctorus.algebra import AlgebraElement
from nctorus.chern import ChernResult, _fft_character, _rounded
from nctorus.representations import FiberedRep, evaluate_on_grid, shift_matrix, twist_transport
from nctorus.spectral import band_edges, expand_k1_mirror, fermi_rank


def generators(rep: FiberedRep, k) -> tuple:
    """(U(k), V(k)) of `rep` from the clock diagonal and `shift_matrix`.

    As the `representations` docstring states them, with C the clock and
    S(lam) the shift:
      U(k) = e^{i2pi rate k2} C^{qM}, rate M0/N (weyl) or 1 (reference);
      V(k) = e^{i2pi n_r k1} S(e^{i2pi q k1})^{d_r},
             or e^{i2pi k1} S(1)^{d_r} in the conjugated form.
    """
    ctx, (k1, k2) = rep.ctx, k
    N = ctx.N
    rate = ctx.M0 / N if rep.kind == "weyl" else 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(N) / N))
    U = np.exp(2j * np.pi * rate * k2) * np.linalg.matrix_power(clock, ctx.q * ctx.M)
    if rep.conjugated:
        V = np.exp(2j * np.pi * k1) * _unitary_power(shift_matrix(N), ctx.d_r)
    else:
        S = shift_matrix(N, np.exp(2j * np.pi * ctx.q * k1))
        V = np.exp(2j * np.pi * ctx.n_r * k1) * _unitary_power(S, ctx.d_r)
    return U, V


def power_scalars(rep: FiberedRep, k) -> tuple:
    """(U(k)^N, V(k)^N) of `generators` as scalars: C^N = I and S(lam)^N = lam I.

    U^N = e^{i2pi N rate k2}; V^N = e^{i2pi (n_r N + q d_r) k1} = e^{i2pi k1},
    or e^{i2pi N k1} in the conjugated form.
    """
    ctx, (k1, k2) = rep.ctx, k
    un = np.exp(2j * np.pi * (ctx.M0 if rep.kind == "weyl" else ctx.N) * k2)
    return un, np.exp(2j * np.pi * (ctx.N if rep.conjugated else 1) * k1)


def evaluate_by_powers(rep: FiberedRep, a: AlgebraElement, k) -> np.ndarray:
    """sum a_{n,m} U(k)^n V(k)^m from matrix powers of the `generators` at k.

    u-powers to the left of v-powers, negative powers through the adjoint.
    """
    U, V = generators(rep, k)
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for (n, m), c in a.coeffs.items():
        out += c * (_unitary_power(U, n) @ _unitary_power(V, m))
    return out


def _unitary_power(A: np.ndarray, p: int) -> np.ndarray:
    """A^p for unitary A, negative powers through the adjoint."""
    return np.linalg.matrix_power(A if p >= 0 else A.conj().T, abs(p))


@dataclass(frozen=True)
class BandData:
    """Eigendecomposition of pi_k(a) on the square grid k = (i/G, j/G), G = frames.shape[1]."""

    rep: FiberedRep
    energies: np.ndarray   # (G, G, N), ascending in the last axis
    frames: np.ndarray     # (G or G//2 + 1 when k1-mirrored, G, N, N), orthonormal columns


def bands_on_grid(rep: FiberedRep, a: AlgebraElement, G: int) -> BandData:
    """eigh of pi_k(a) at every point of the G x G grid: no k1 mirror, no flip.

    `frames` holds all G rows.  The oracle of the package's band passes.
    """
    k = np.arange(G) / G
    H = evaluate_on_grid(rep, a, k, k)
    return BandData(rep, *np.linalg.eigh(0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))))


@dataclass(frozen=True)
class ProjectorField:
    """Orthogonal projector of constant rank on the square grid k = (i/G, j/G), held as its frames.

    `frames[i, j]` has orthonormal columns spanning the range of
    P(i/G, j/G), G = frames.shape[1].  Plaquette link variables are
    gauge-invariant, so any such basis serves: a Fermi field keeps the
    occupied eigenvector columns of its BandData as they are, k1-mirrored
    ones included, with row G - i the unstored conjugate of row i.
    """

    rep: FiberedRep
    frames: np.ndarray     # (G or G//2 + 1 when k1-mirrored, G, N, rank)

    def __post_init__(self):
        H, G = self.frames.shape[:2]
        if H not in (G, G // 2 + 1):
            raise ValueError(f"{H} frame rows fit neither a {G}-row grid nor its k1 mirror")

    @property
    def rank(self) -> int:
        return self.frames.shape[-1]

    def defects(self) -> dict:
        """Worst-case residuals of the projector-field invariants, on the stored rows.

        Read off the rank x rank Gram matrix g = F^dagger F of each frame F:
        with P = F F^dagger, ||P^2 - P||_F = ||g^2 - g||_F and tr P = tr g.
        P is Hermitian by construction.  A mirrored row's projector is the
        exact conjugate of a stored one.
        """
        F = self.frames
        g = F.conj().swapaxes(-1, -2) @ F
        return {
            "idempotency": float(np.linalg.norm(g @ g - g, axis=(-2, -1)).max()),
            "trace": float(np.abs(np.trace(g, axis1=-2, axis2=-1) - self.rank).max()),
        }


def fermi_projector_field(bd: BandData, fermi: float) -> ProjectorField:
    """Sum of eigenprojections below `fermi`, which must sit in a gap, FERMI_TOL clear."""
    rank = fermi_rank(bd.energies, band_edges(bd.energies), fermi)
    return ProjectorField(bd.rep, bd.frames[..., :rank])


def constant_projector_field(rep: FiberedRep, G: int, P0: np.ndarray) -> ProjectorField:
    """Field with the same projector at every grid point (P0 idempotent Hermitian)."""
    P0 = np.asarray(P0, dtype=complex)
    if np.linalg.norm(P0 @ P0 - P0) > 1e-10 or np.linalg.norm(P0 - P0.conj().T) > 1e-12:
        raise ValueError("P0 is not an orthogonal projection")
    rank = int(round(np.trace(P0).real))
    _, v = np.linalg.eigh(P0)
    F0 = v[:, len(v) - rank:]     # eigenvalue-1 columns: last in ascending order
    return ProjectorField(rep, np.broadcast_to(F0, (G, G) + F0.shape))


def identity_field(rep: FiberedRep, G: int) -> ProjectorField:
    return constant_projector_field(rep, G, np.eye(rep.dim))


def fhs_chern(field: ProjectorField) -> ChernResult:
    """Plaquette-flux Chern number of a projector field, periodic or twisted.

    A weyl-kind field closes k2 through `twist_transport` stacked over its
    stored k1 rows i/G, a reference one is periodic; a k1-mirrored field
    is summed over its half.  On the full-rank weyl field this returns the
    ambient twist winding q.
    """
    F = field.frames
    G = F.shape[1]
    weyl = field.rep.kind == "weyl"
    seam = twist_transport(field.rep.ctx, np.arange(len(F)) / G) if weyl else None
    [sums] = _kernels.plaquette_flux_sum(F, [field.rank], seam, G)
    return _rounded(*sums, G, field.rep.kind)


def connes_chern_via_derivatives(field: ProjectorField) -> float:
    """Character via the derivative formula; independent of the plaquette path.

    Valid on conjugated-form reference fields, where the algebra
    derivations act as d/dk2 and d/dk1.  Spectrally accurate for gapped
    projectors; used as the orientation cross-check oracle.
    """
    if not (field.rep.kind == "reference" and field.rep.conjugated):
        raise ValueError("derivative-formula character needs a conjugated reference field")
    F = expand_k1_mirror(field.frames, field.frames.shape[1])
    return _fft_character(F @ F.conj().swapaxes(-1, -2)).real


def pullback_field(field: ProjectorField, n1: int, n2: int) -> ProjectorField:
    """Sample P(n1 k1 mod 1, n2 k2 mod 1); Chern number scales by n1*n2.

    A k1-mirrored field's pullback is mirrored too (row G - i samples the
    mirror of row i's source), so it keeps the stored rows and reads a
    source row past G/2 as the conjugate of its stored mirror.
    """
    if n1 == 0 or n2 == 0:
        raise ValueError("pullback multipliers must be nonzero")
    if field.rep.kind != "reference":
        raise ValueError("pullback_field requires a periodic field")
    H, G = field.frames.shape[:2]
    i = n1 * np.arange(H) % G
    mirrored = i >= H                   # never on a full grid
    frames = field.frames[np.ix_(np.where(mirrored, G - i, i), n2 * np.arange(G) % G)]
    frames[mirrored] = frames[mirrored].conj()
    return ProjectorField(field.rep, frames)


def orbit_count(G: int, mirror=True, flip=True, sigma=True, chi=True) -> int:
    """Orbits of the G x G character grid under the maps named, found by a walk over each orbit.

    The k1 mirror (x, y) -> (-x, y), the flip (x, y) -> (-x, -y), sigma
    (x, y) -> (-y, x), and chi (x, y) -> (x + G/2, y + G/2) on an even grid.
    """
    maps = [f for f, on in [(lambda x, y: (-x % G, y), mirror),
                            (lambda x, y: (-x % G, -y % G), flip),
                            (lambda x, y: (-y % G, x), sigma),
                            (lambda x, y: ((x + G // 2) % G, (y + G // 2) % G), chi and G % 2 == 0)]
            if on]
    seen, count = set(), 0
    for cell in itertools.product(range(G), repeat=2):
        if cell not in seen:
            count += 1
            seen.add(cell)
            todo = [cell]
            while todo:
                x, y = todo.pop()
                for image in (f(x, y) for f in maps):
                    if image not in seen:
                        seen.add(image)
                        todo.append(image)
    return count
