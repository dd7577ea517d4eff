"""Fibered matrix families over the Brillouin torus.

Two kinds of N x N unitary pairs (U(k), V(k)) realizing u, v at each
quasi-momentum k:

  weyl        U(k) = e^{i2pi (M0/N) k2} C^{qM}
              V(k) = e^{i2pi n_r k1} S(e^{i2pi q k1})^{d_r}
  reference   U(k) = e^{i2pi k2} C^{qM}            (default, fully periodic)
              V(k) = e^{i2pi n_r k1} S(e^{i2pi q k1})^{d_r}
  reference, conjugated=True
              U(k) = e^{i2pi k2} C^{qM}
              V(k) = e^{i2pi k1} S(1)^{d_r}

with C, S the N x N clock and shift matrices.  The weyl family is
k1-periodic and pseudo-periodic in k2: translating k2 by one conjugates
every operator by the transport unitary conj(G(k1)) = S(e^{i2pi q k1})^{-1}
(see `twist_transport`).  The gluing unitary G(k1) = shift^T, the
transpose of shift_matrix(N, e^{i2pi q k1}), has superdiagonal ones and
e^{i2pi q k1} lower-left, and G(k1)^N = e^{i2pi q k1} I.  Both reference
forms are fully periodic; only the conjugated form intertwines the
algebra derivations with d/dk2, d/dk1.

The weyl and the (plain) reference family share V(k), and their U(k)
differ only in the rate of the scalar phase in k2, so
pi^w_(k1, k2) = pi^r_(k1, M0 k2 / N) exactly.  The reference family is
invariant under the magnetic translation k2 -> k2 + 1/N:
pi^r_(k1, k2 + m/N) = W^m pi^r_k W^-m with W = S(e^{i2pi q k1})^a and
a = -(qM)^{-1} mod N, because S^a C^{qM} S^-a = e^{i2pi/N} C^{qM} and W
commutes with V(k); W^p is shift_matrix_power(N, e^{i2pi q k1}, a p).
Together they put every point of both families at a cell of the grid of
central characters (`spectral`).  Two more maps carry the plain reference
family between cells: sigma (u -> v, v -> u*), through the twisted DFT
Phi of `rotate`, and for odd N chi (u, v -> -u, -v), through a monomial
Psi with Psi pi_k(a) Psi^dagger = -pi_k'(a), k' = k + (1/2, 1/(2N)), when
chi(a) = -a.  Every monomial intertwiner, W^m, the flip, Psi and that of
the conjugated form, is one row map with phases (`intertwiner_rows`).

One evaluator forms every pi_k(a): `evaluate_at_points`, from closed forms of
the powers, which `V_at` shares (`FiberedRep._v_power`); `evaluate_at_k` and
`evaluate_on_grid` are its one-point and whole-grid forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import TWO_PI, AlgebraElement, RationalTheta, ThetaMismatchError
from .arithmetic import WeylContext


# -- elementary matrices -----------------------------------------------------


def shift_matrix(q: int, lam: complex = 1.0 + 0j) -> np.ndarray:
    """Cyclic shift: ones on the subdiagonal, lam in the top-right corner.

    S e_j = e_{j+1} for j < q-1 and S e_{q-1} = lam e_0, so S^q = lam I and
    C S = e^{i2pi/q} S C.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return shift_matrix_power(q, lam, 1)


def shift_matrix_power(q: int, lam, p: int) -> np.ndarray:
    """S(q, lam)^p for any integer p, via the reduction S^q = lam I.

    An array of corner phases gives the stacked powers, lam.shape + (q, q).
    """
    wraps, p0 = divmod(p, q)
    out = np.zeros(np.shape(lam) + (q, q), dtype=complex)
    for j in range(q):
        i = j + p0
        out[..., i % q, j] = lam if i >= q else 1.0
    if wraps:
        out *= np.asarray(lam ** wraps)[..., None, None]
    return out


def twist_transport(ctx: WeylContext, k1) -> np.ndarray:
    """Unitary T with pi_{(k1, k2+1)}(a) = T pi_{(k1, k2)}(a) T^dagger.

    T = conj(G(k1)) = S(e^{i2pi q k1})^{-1}; T^N is the scalar
    e^{-i2pi q k1} I, which is why weyl projector fields are exactly
    periodic over k2 in [0, N).  An array of k1 gives the stacked
    transports, k1.shape + (N, N): the seam of a twisted Chern lattice.
    """
    lam = np.exp(1j * TWO_PI * ctx.q * k1)
    return shift_matrix_power(ctx.N, lam, -1)


# -- fibered representations -------------------------------------------------


@dataclass(frozen=True)
class FiberedRep:
    """Rule k -> (U(k), V(k)) with periodicity/twist metadata.

    At theta = r/q (M0 = 0, so N = 1) the weyl family is constant in k2.
    """

    ctx: WeylContext
    kind: str                 # "weyl" | "reference"
    conjugated: bool = False  # reference only: derivative-friendly form

    def __post_init__(self):
        if self.kind not in ("weyl", "reference"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.conjugated and self.kind != "reference":
            raise ValueError("conjugated form exists only for the reference kind")

    @property
    def dim(self) -> int:
        return self.ctx.N

    def _u_const_diag(self, n: int = 1) -> np.ndarray:
        """Diagonal of C^{qM n} with exact residue reduction."""
        N = self.ctx.N
        j = np.arange(N)
        return np.exp(1j * TWO_PI * ((self.ctx.q * self.ctx.M * n % N) * j % N) / N)

    def _u_rate(self) -> float:
        # scalar phase rate: U(k) = e^{i 2 pi rate k2} * C^{qM}
        if self.kind == "weyl":
            return self.ctx.M0 / self.ctx.N
        return 1.0

    def U_at(self, k) -> np.ndarray:
        k1, k2 = k
        return np.exp(1j * TWO_PI * self._u_rate() * k2) * np.diag(self._u_const_diag())

    def V_at(self, k) -> np.ndarray:
        k1, k2 = k
        return self._v_power(k1, np.exp(1j * TWO_PI * self.ctx.q * k1), 1)

    def _v_power(self, k1s, lam, m: int) -> np.ndarray:
        """V(k1)^m in closed form over k1s, lam = e^{i2pi q k1s}: k1s.shape + (N, N)."""
        ctx = self.ctx
        if self.conjugated:
            base = shift_matrix_power(ctx.N, 1.0 + 0j, ctx.d_r * m)
            return np.exp(1j * TWO_PI * m * k1s)[..., None, None] * base
        vm = shift_matrix_power(ctx.N, lam, ctx.d_r * m)
        vm *= np.exp(1j * TWO_PI * ctx.n_r * m * k1s)[..., None, None]
        return vm

    # expected scalars of the N-th powers, used by the invariant checks
    def u_power_scalar(self, k) -> complex:
        k1, k2 = k
        if self.kind == "weyl":
            return np.exp(1j * TWO_PI * self.ctx.M0 * k2)
        return np.exp(1j * TWO_PI * self.ctx.N * k2)

    def v_power_scalar(self, k) -> complex:
        k1, k2 = k
        if self.conjugated:
            return np.exp(1j * TWO_PI * self.ctx.N * k1)
        return np.exp(1j * TWO_PI * k1)

    def turns(self, i, j, G: int) -> tuple:
        """(u, mu, lam): U(k) = e^{i2pi u/L} C^{qM}, V(k) = e^{i2pi mu/L} S(e^{i2pi lam/L})^d_r.

        At k = (i/G, j/G), as integer numerators over L = 2 N G.
        """
        N = self.ctx.N
        i, j = 2 * N * np.asarray(i), np.asarray(j)
        if self.conjugated:
            return 2 * N * j, i, 0 * i
        return 2 * (self.ctx.M0 if self.kind == "weyl" else N) * j, self.ctx.n_r * i, self.ctx.q * i


def weyl_fibered_rep(ctx: WeylContext) -> FiberedRep:
    return FiberedRep(ctx, "weyl")


def reference_fibered_rep(ctx: WeylContext, conjugated: bool = False) -> FiberedRep:
    return FiberedRep(ctx, "reference", conjugated)


# -- evaluation ---------------------------------------------------------------


def _check_element(rep: FiberedRep, a: AlgebraElement):
    th = a.theta
    if not isinstance(th, RationalTheta) or (th.M, th.N) != (rep.ctx.M, rep.ctx.N):
        raise ThetaMismatchError(
            f"element over {th} cannot be evaluated in a context with "
            f"theta={rep.ctx.M}/{rep.ctx.N}"
        )


def evaluate_at_k(rep: FiberedRep, a: AlgebraElement, k) -> np.ndarray:
    """pi_k(a) = sum a_{n,m} U(k)^n V(k)^m: `evaluate_at_points` at the one point k."""
    k1, k2 = k
    return evaluate_at_points(rep, a, [k1], [k2], 0, 0)


def evaluate_on_grid(rep: FiberedRep, a: AlgebraElement,
                     k1s: np.ndarray, k2s: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over a k1 x k2 grid: (G1, G2, N, N) array.

    Every entry of `evaluate_at_points`' grid.
    """
    return evaluate_at_points(rep, a, k1s, k2s, np.arange(len(k1s))[:, None], np.arange(len(k2s)))


def evaluate_at_points(rep: FiberedRep, a: AlgebraElement, k1s: np.ndarray, k2s: np.ndarray,
                       i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The entries [i, j] of the k1s x k2s grid, i and j broadcast: (..., N, N) array.

    The package's one evaluator of pi_k(a), from the closed forms U(k)^n =
    phase * C^{qMn} (one diagonal per n) and V(k)^m = phase * S(lam(k1))^{d_r m}
    (once per m): no matrix power is taken.  The k1 factor of a term is
    formed once per k1 of k1s and its k2 phase once per k2 of k2s; each
    point multiplies the two it reads, so an entry equals the grid's bit
    for bit, and no entry outside [i, j] is formed.
    """
    _check_element(rep, a)
    ctx = rep.ctx
    N = ctx.N
    out = np.zeros(np.broadcast_shapes(np.shape(i), np.shape(j)) + (N, N), dtype=complex)
    if not a.coeffs:
        return out

    k1s, k2s = np.asarray(k1s), np.asarray(k2s)
    lam = np.exp(1j * TWO_PI * ctx.q * k1s)
    urate = rep._u_rate()

    ucache, vcache = {}, {}
    for (n, m), c in a.coeffs.items():
        if n not in ucache:
            ucache[n] = rep._u_const_diag(n)[:, None]
        if m not in vcache:
            vcache[m] = rep._v_power(k1s, lam, m)
        term = ucache[n] * vcache[m]    # diag(C^{qMn}) @ V^m
        uphase = c * np.exp(1j * TWO_PI * urate * n * k2s)
        out += term[i] * uphase[j][..., None, None]
    return out


def _shift_rows(N: int, d: int):
    """(m, wraps), (N, 1) each: row t of S^{d m} e_0 is reached with d m = t + N wraps."""
    m = np.arange(N) * pow(d, -1, N) % N
    return m[:, None], (d * m // N)[:, None]


def intertwiner_rows(ctx: WeylContext, src, dst, eps, s, cis: np.ndarray):
    """(rows, phase), (P, N): X F = phase[..., None] * F[rows] for the monomial X of P points.

    X pi_src(alpha(x)) X^dagger = pi_dst(x), alpha(u) = eps u^s and
    alpha(v) = eps v^s, eps, s = +-1 per point; src and dst are turns
    (`FiberedRep.turns`) over L = len(cis), cis[k] = e^{i2pi k/L}, whose
    central characters alpha must match.  Row d_r m of X F is row
    l0 + s d_r m of F, l0 the row of C^{qM} that brings alpha(U) at src onto
    U at dst's row 0.  Frames up to one scalar phase.
    """
    N, L = ctx.N, len(cis)
    (us, ms, ls), (ut, mt, lt) = src, dst
    half = (np.asarray(eps) < 0) * (L // 2)
    l0 = N * (ut - s * us - half) // L * s * pow(ctx.q * ctx.M, -1, N) % N   # exact division
    m, wraps = _shift_rows(N, ctx.d_r)
    row = l0 + s * np.arange(N)[:, None]                # (N, P), in -N+1 .. 2N-2
    carry = (row >= N).astype(int) - (row < 0)
    phase = (m * ((mt - half - s * ms) % L) + wraps * ((lt - s * ls) % L) - carry * ls) % L
    return (row - N * carry).T, cis[phase].T


def rotate(ctx: WeylContext, F: np.ndarray, k1, k2, cis: np.ndarray) -> np.ndarray:
    """Phi F for P frames F, (P, N, N): Phi pi_k(sigma(x)) Phi^dagger = pi_k'(x).

    k = (k1, k2), k' = (-N k2, k1/N) on the plain reference family, as
    numerators over L = len(cis) with N dividing k1; sigma(u) = v,
    sigma(v) = u*.  Row l of Phi is a left eigenvector of V(k), every entry
    1/sqrt(N) in modulus, so Phi F is the N x N DFT matrix times the rows of
    F, between two row maps with phases.  Frames up to one scalar phase.
    """
    N, L = ctx.N, len(cis)
    shift, wraps = _shift_rows(N, ctx.d_r)              # row t = d_r shift of V(k)'s eigenvector
    w = cis[-(shift * ((ctx.n_r * k1 - k1 // N) % L) + wraps * (ctx.q * k1 % L)) % L]
    perm = pow(ctx.q * ctx.M, -1, N) * np.arange(N) % N
    z = F.swapaxes(-1, -2)[..., perm]                   # columns of F, contiguous in the rows
    z *= w[perm].T[:, None, :]
    m = np.arange(N)[:, None]
    z = (z.reshape(-1, N) @ (cis[m * m.T * (L // N) % L] / np.sqrt(N))).reshape(z.shape)
    z *= cis[(m * ((k2 - N * ctx.n_r * k2) % L) - (m * ctx.d_r // N) * (N * ctx.q * k2 % L))
             % L].T[:, None, :]
    return z[..., shift[:, 0]].swapaxes(-1, -2)         # row d_r m of Phi F is row m of z


def check_pseudoperiodicity(rep: FiberedRep, a: AlgebraElement, k) -> float:
    """Frobenius residual of the gluing rules at k for n = (1,0) and (0,1).

    weyl kind: pi_{k+(0,1)}(a) = T pi_k(a) T^dagger with T = twist_transport;
    reference kind: plain periodicity in both directions (T = I).
    """
    k1, k2 = k
    A, A10, A01 = evaluate_at_points(rep, a, [k1, k1 + 1.0], [k2, k2 + 1.0],
                                     np.array([0, 1, 0]), np.array([0, 0, 1]))
    T = twist_transport(rep.ctx, k1) if rep.kind == "weyl" else np.eye(rep.dim)
    return float(max(np.linalg.norm(A10 - A), np.linalg.norm(A01 - T @ A @ T.conj().T)))
