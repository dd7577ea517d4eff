"""Exact arithmetic in the rational rotation algebra (noncommutative torus).

Elements are finitely supported twisted Laurent polynomials

    a = sum_{n,m} a_{n,m} u^n v^m,        u v = e^{i 2 pi theta} v u,

stored as sparse coefficient maps keyed by (n, m).  For rational
theta = M/N the twist phases are computed from the exact reduced
residue (k*M mod N), so algebraic identities (involution, trace
property, Leibniz rule) hold to machine precision rather than
accumulating phase error.  An irrational theta is carried as a plain
float and bypasses the exact-residue shortcut.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

TWO_PI = 2.0 * math.pi

Monomial = Tuple[int, int]


class ThetaMismatchError(ValueError):
    """Raised when elements over different deformation parameters are combined."""


@dataclass(frozen=True)
class RationalTheta:
    """Reduced rational deformation parameter theta = M/N with N >= 1."""

    M: int
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"denominator must be positive, got N={self.N}")
        if math.gcd(abs(self.M), self.N) != 1:
            raise ValueError(f"{self.M}/{self.N} is not in lowest terms")

    @classmethod
    def parse(cls, text: str) -> "RationalTheta":
        """Parse 'M/N' (or a bare integer) into a reduced RationalTheta."""
        frac = Fraction(text.strip())
        return cls(frac.numerator, frac.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.M, self.N)

    def __float__(self) -> float:
        return self.M / self.N

    def phase(self, k: int) -> complex:
        """e^{i 2 pi theta k} via exact residue reduction of k*M mod N."""
        return cmath.exp(1j * TWO_PI * ((k * self.M) % self.N) / self.N)


@dataclass(frozen=True)
class IrrationalTheta:
    """Float deformation parameter for the irrational extension."""

    value: float

    def phase(self, k: int) -> complex:
        return cmath.exp(1j * TWO_PI * self.value * k)

    def __float__(self) -> float:
        return self.value


Theta = Union[RationalTheta, IrrationalTheta]


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Finitely supported element of the smooth rotation algebra.

    Immutable value type; `coeffs` maps (n, m) -> complex coefficient of
    u^n v^m and must not be mutated after construction.
    """

    theta: Theta
    coeffs: Mapping[Monomial, complex]

    def __post_init__(self):
        clean = {k: complex(v) for k, v in self.coeffs.items() if v != 0}
        object.__setattr__(self, "coeffs", clean)

    # -- basic structure -------------------------------------------------

    def coeff(self, n: int, m: int) -> complex:
        return self.coeffs.get((n, m), 0j)

    def support(self) -> list:
        return sorted(self.coeffs)

    def degree(self) -> int:
        """max(|n|+|m|) over the support; 0 for the zero element."""
        if not self.coeffs:
            return 0
        return max(abs(n) + abs(m) for (n, m) in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.theta == other.theta
            and self.coeffs == other.coeffs
        )

    def approx_equal(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        if self.theta != other.theta:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(abs(self.coeff(*k) - other.coeff(*k)) <= tol for k in keys)

    # -- arithmetic -------------------------------------------------------

    def _check_theta(self, other: "AlgebraElement"):
        if self.theta != other.theta:
            raise ThetaMismatchError(
                f"cannot combine elements over {self.theta} and {other.theta}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_theta(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0j) + v
        return AlgebraElement(self.theta, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1.0) * other

    def __neg__(self) -> "AlgebraElement":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return element_mul(self, other)
        return AlgebraElement(self.theta, {k: other * v for k, v in self.coeffs.items()})

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.theta, {k: scalar * v for k, v in self.coeffs.items()})

    def __repr__(self) -> str:
        terms = ", ".join(f"({n},{m}): {c:.4g}" for (n, m), c in sorted(self.coeffs.items()))
        return f"AlgebraElement(theta={self.theta}, {{{terms}}})"


# -- constructors ----------------------------------------------------------


def zero(theta: Theta) -> AlgebraElement:
    return AlgebraElement(theta, {})


def unit(theta: Theta) -> AlgebraElement:
    return AlgebraElement(theta, {(0, 0): 1.0 + 0j})


def monomial(theta: Theta, n: int, m: int, c: complex = 1.0 + 0j) -> AlgebraElement:
    """c * u^n v^m."""
    return AlgebraElement(theta, {(int(n), int(m)): complex(c)})


def hofstadter_element(theta: Theta) -> AlgebraElement:
    """u + u* + v + v*: the universal almost-Mathieu / lattice-flux operator."""
    return AlgebraElement(
        theta, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}
    )


def random_element(theta: Theta, degree: int, rng, nterms: int = 6) -> AlgebraElement:
    """Random element with max(|n|+|m|) <= degree and unit-box coefficients."""
    coeffs: Dict[Monomial, complex] = {}
    while len(coeffs) < nterms:
        n = int(rng.integers(-degree, degree + 1))
        m = int(rng.integers(-degree, degree + 1))
        if abs(n) + abs(m) > degree:
            continue
        coeffs[(n, m)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return AlgebraElement(theta, coeffs)


def random_selfadjoint_element(theta: Theta, degree: int, rng, nterms: int = 4) -> AlgebraElement:
    a = random_element(theta, degree, rng, nterms)
    return a + element_star(a)


# -- operations -------------------------------------------------------------


def element_mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product induced by u v = e^{i 2 pi theta} v u.

    Reordering v^m past u^p costs one swap phase per (v,u) pair:
    (u^n v^m)(u^p v^s) = e^{-i 2 pi theta m p} u^{n+p} v^{m+s}.
    """
    a._check_theta(b)
    theta = a.theta
    out: Dict[Monomial, complex] = {}
    for (n, m), ca in a.coeffs.items():
        for (p, s), cb in b.coeffs.items():
            c = ca * cb * theta.phase(-m * p)
            key = (n + p, m + s)
            acc = out.get(key, 0j) + c
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    return AlgebraElement(theta, out)


def element_star(a: AlgebraElement) -> AlgebraElement:
    """Involution: (u^n v^m)* = e^{-i 2 pi theta n m} u^{-n} v^{-m}, antilinear."""
    theta = a.theta
    out = {
        (-n, -m): ca.conjugate() * theta.phase(-n * m)
        for (n, m), ca in a.coeffs.items()
    }
    return AlgebraElement(theta, out)


def nc_integral_symbolic(a: AlgebraElement) -> complex:
    """Canonical trace: picks the (0,0) Fourier coefficient."""
    return a.coeff(0, 0)


def derivation(a: AlgebraElement, axis: int) -> AlgebraElement:
    """Basic derivation: scales u^n v^m by i 2 pi n (axis 1) or i 2 pi m (axis 2)."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    idx = 0 if axis == 1 else 1
    out = {k: (1j * TWO_PI * k[idx]) * c for k, c in a.coeffs.items()}
    return AlgebraElement(a.theta, out)


def connes_chern_symbolic(p: AlgebraElement) -> complex:
    """Degree-2 cyclic cocycle (1/i2pi) * Tr( p (d1 p d2 p - d2 p d1 p) ).

    Integer-valued (real) on projections; evaluates on any element.
    """
    d1 = derivation(p, 1)
    d2 = derivation(p, 2)
    comm = element_mul(d1, d2) - element_mul(d2, d1)
    return nc_integral_symbolic(element_mul(p, comm)) / (1j * TWO_PI)
