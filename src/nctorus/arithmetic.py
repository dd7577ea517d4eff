"""Integer layer: twist constants, gap labels, and the conductance equations.

All quantities here are exact integers (or exact Fractions).  A
WeylContext packages the deformation parameter M/N together with the
twist pair (q, r) and every derived Bezout constant needed by the
fibered matrix families:

    beta*q - alpha*r = 1          0 <= alpha < q
    nu*q + mu*(r*N)  = r          0 <= mu < q
    d_r = beta - alpha*nu,  n_r = -mu*alpha*r,   q*d_r + n_r*N = 1
    M0  = q*M - r*N,        epsilon = M/N - r/q = M0/(N*q)

The conductance equation solved here is N*t + M0*s = q*d with the
uniqueness window 2|s| < N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import RationalTheta


class InvalidTwistError(ValueError):
    """(q, r) is not an admissible twist pair."""


class DegenerateRepresentationError(ValueError):
    """gcd(N, q) != 1: the symmetry algebra degenerates into q copies."""


class NoConstrainedSolutionError(ValueError):
    """No integer s with 2|s| < N in the forced residue class (N even only)."""


@dataclass(frozen=True)
class WeylContext:
    """Integer quadruple (N, M, q, r) plus all derived diophantine constants."""

    N: int
    M: int
    q: int
    r: int
    alpha: int
    beta: int
    mu: int
    nu: int
    d_r: int
    n_r: int
    M0: int
    epsilon: Fraction

    @property
    def theta(self) -> RationalTheta:
        return RationalTheta(self.M, self.N)

    def label(self) -> str:
        return f"theta={self.M}/{self.N} rep=({self.q},{self.r})"


def make_weyl_context(theta: RationalTheta, q: int, r: int) -> WeylContext:
    """Validate (theta, q, r) and populate every derived constant.

    Canonicalization: the windows |alpha| < q, |mu| < q do not pin the
    Bezout pairs uniquely for q > 1, so representatives with
    0 <= alpha < q and 0 <= mu < q are chosen; the identity
    q*d_r + n_r*N = 1 is re-verified and is branch-independent.
    """
    M, N = theta.M, theta.N
    if q < 1:
        raise InvalidTwistError(f"q must be >= 1, got {q}")
    if not (abs(r) < q or (q, r) == (1, 0)):
        raise InvalidTwistError(f"need |r| < q (or (q,r)=(1,0)), got (q,r)=({q},{r})")
    if math.gcd(q, abs(r)) != 1:
        raise InvalidTwistError(f"gcd(q,r) must be 1, got (q,r)=({q},{r})")
    if math.gcd(N, q) != 1:
        raise DegenerateRepresentationError(
            f"gcd(N,q) must be 1, got N={N}, q={q}"
        )

    # at (q, r) = (1, 0) every inverse mod 1 is 0: alpha = mu = nu = 0, beta = 1
    alpha = -pow(r, -1, q) % q      # beta*q - alpha*r = 1
    beta = (1 + alpha * r) // q
    mu = pow(N, -1, q)              # nu*q + mu*(rN) = r, as mu*N = 1 mod q
    nu = (r - mu * r * N) // q

    assert beta * q - alpha * r == 1 and 0 <= alpha < q
    assert nu * q + mu * (r * N) == r and 0 <= mu < q

    d_r = beta - alpha * nu
    n_r = -mu * alpha * r
    assert q * d_r + n_r * N == 1
    M0 = q * M - r * N
    assert math.gcd(abs(M0), N) == 1

    return WeylContext(
        N=N, M=M, q=q, r=r, alpha=alpha, beta=beta, mu=mu, nu=nu,
        d_r=d_r, n_r=n_r, M0=M0, epsilon=Fraction(M0, N * q),
    )


def gap_label_d(N: int, g: int) -> int:
    """Occupied-band label for gap g of the N-band lattice-flux spectrum.

    N odd: gaps g = 0..N and d = g.  N even: the two central bands touch,
    so gaps g = 0..N-1 and d skips the merged slot: d = g for
    g <= N/2 - 1, d = g + 1 otherwise.
    """
    n_max = N if N % 2 == 1 else N - 1
    if not 0 <= g <= n_max:
        raise IndexError(f"gap index {g} out of range [0, {n_max}] for N={N}")
    if N % 2 == 1:
        return g
    return g if g <= N // 2 - 1 else g + 1


def tknn_solve(ctx: WeylContext, d: int) -> tuple:
    """Unique integers (t, s) with N*t + M0*s = q*d and 2|s| < N."""
    N, M0, q = ctx.N, ctx.M0, ctx.q
    if not 0 <= d <= N:
        raise ValueError(f"gap label d={d} out of range [0, {N}]")
    s0 = (q * d * pow(M0 % N, -1, N)) % N
    if 2 * s0 < N:
        s = s0
    elif 2 * s0 == N:
        raise NoConstrainedSolutionError(
            f"forced residue class s = {s0} (mod {N}) hits N/2: no solution with 2|s| < N"
        )
    else:
        s = s0 - N
    t, rem = divmod(q * d - M0 * s, N)
    assert rem == 0
    return int(t), int(s)


def tknn_rhs_value(ncint_p: float, cc_p: int, theta: float, q: int, r: int) -> float:
    """q * [ ncint(p) + (theta - r/q) * cc(p) ]: the strong-field Chern formula.

    Works for rational and irrational theta alike; the caller judges
    integrality.
    """
    if q < 1:
        raise InvalidTwistError(f"q must be >= 1, got {q}")
    return q * (ncint_p + (theta - r / q) * cc_p)


@dataclass(frozen=True)
class TKNNRecord:
    """One gap's verified integer triple plus numeric diagnostics."""

    g: int
    d: int
    t: int
    s: int
    fermi: float
    residual: float
