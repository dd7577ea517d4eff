"""Algebra layer: twisted products, involution, trace, derivations."""

import cmath
import math

import pytest

from nctorus.algebra import (
    IrrationalTheta,
    RationalTheta,
    ThetaMismatchError,
    connes_chern_symbolic,
    derivation,
    element_mul,
    element_star,
    hofstadter_element,
    monomial,
    nc_integral_symbolic,
    random_element,
    unit,
    zero,
)

TH13 = RationalTheta(1, 3)
TH25 = RationalTheta(2, 5)


def swap_oracle_mul(theta, a, b):
    """Independent oracle: reduce the concatenated word one transposition at a time.

    Tokens are ('u', +-1) / ('v', +-1); moving a v-token left past a
    u-token... the normal form is all u's first, and each swap of
    ('v', s) across ('u', t) contributes exp(-i 2 pi theta s t).
    """
    n, m = a
    p, s = b

    def tokens(nn, mm):
        return [("u", 1 if nn > 0 else -1)] * abs(nn) + [("v", 1 if mm > 0 else -1)] * abs(mm)

    word = tokens(n, m) + tokens(p, s)
    phase = 1.0 + 0j
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i][0] == "v" and word[i + 1][0] == "u":
                phase *= cmath.exp(-2j * cmath.pi * float(theta.value) * word[i][1] * word[i + 1][1])
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
    return (n + p, m + s), phase


def test_rational_theta_validation():
    with pytest.raises(ValueError):
        RationalTheta(2, 4)
    with pytest.raises(ValueError):
        RationalTheta(1, 0)
    assert RationalTheta.parse("2/5") == TH25
    assert float(TH13) == pytest.approx(1 / 3)


def test_rational_phase_exact_at_multiples():
    th = RationalTheta(3, 7)
    assert th.phase(7) == 1.0
    assert th.phase(-14) == 1.0
    assert abs(th.phase(123456789)) == pytest.approx(1.0, abs=1e-15)


def test_mul_vu_is_phase_times_uv():
    u = monomial(TH13, 1, 0)
    v = monomial(TH13, 0, 1)
    prod = element_mul(v, u)
    assert prod.support() == [(1, 1)]
    assert prod.coeff(1, 1) == pytest.approx(cmath.exp(-2j * cmath.pi / 3), abs=1e-15)


def test_mul_unit_is_identity(rng):
    a = random_element(TH13, 4, rng)
    assert element_mul(unit(TH13), a).approx_equal(a, 1e-15)
    assert element_mul(a, unit(TH13)).approx_equal(a, 1e-15)


def test_mul_uv_squared():
    uv = monomial(TH13, 1, 1)
    prod = element_mul(uv, uv)
    assert prod.support() == [(2, 2)]
    assert prod.coeff(2, 2) == pytest.approx(cmath.exp(-2j * cmath.pi / 3), abs=1e-15)


@pytest.mark.parametrize("theta", [TH13, TH25, RationalTheta(3, 7)])
def test_mul_matches_swap_oracle(theta):
    rng_exp = range(-2, 3)
    for n in rng_exp:
        for m in rng_exp:
            for p in rng_exp:
                for s in rng_exp:
                    got = element_mul(monomial(theta, n, m), monomial(theta, p, s))
                    key, phase = swap_oracle_mul(theta, (n, m), (p, s))
                    assert got.support() == [key]
                    assert got.coeff(*key) == pytest.approx(phase, abs=1e-12)


def test_mul_associative_random(rng):
    for _ in range(30):
        a = random_element(TH25, 5, rng)
        b = random_element(TH25, 5, rng)
        c = random_element(TH25, 5, rng)
        lhs = element_mul(element_mul(a, b), c)
        rhs = element_mul(a, element_mul(b, c))
        assert lhs.approx_equal(rhs, 1e-12)


def test_mul_theta_mismatch():
    with pytest.raises(ThetaMismatchError):
        element_mul(monomial(TH13, 1, 0), monomial(TH25, 1, 0))
    with pytest.raises(ThetaMismatchError):
        monomial(TH13, 1, 0) + monomial(TH25, 1, 0)


def test_star_generator():
    assert element_star(monomial(TH13, 1, 0)) == monomial(TH13, -1, 0)


def test_star_uv():
    got = element_star(monomial(TH13, 1, 1))
    assert got.support() == [(-1, -1)]
    # v^{-1} u^{-1} reordered by one swap
    assert got.coeff(-1, -1) == pytest.approx(cmath.exp(-2j * cmath.pi / 3), abs=1e-15)


def test_star_is_involution(rng):
    for _ in range(20):
        a = random_element(TH25, 5, rng)
        assert element_star(element_star(a)).approx_equal(a, 1e-15)


def test_star_antihomomorphism(rng):
    for _ in range(20):
        a = random_element(TH25, 4, rng)
        b = random_element(TH25, 4, rng)
        lhs = element_star(element_mul(a, b))
        rhs = element_mul(element_star(b), element_star(a))
        assert lhs.approx_equal(rhs, 1e-12)


def test_nc_integral_monomial():
    assert nc_integral_symbolic(monomial(TH13, 3, -2)) == 0
    assert nc_integral_symbolic(unit(TH13)) == 1


def test_nc_integral_unitary_monomial():
    uv = monomial(TH13, 1, 1)
    assert nc_integral_symbolic(element_mul(uv, element_star(uv))) == pytest.approx(1.0, abs=1e-15)


def test_nc_integral_trace_property(rng):
    worst = 0.0
    for _ in range(100):
        a = random_element(TH25, 5, rng)
        b = random_element(TH25, 5, rng)
        val = nc_integral_symbolic(element_mul(a, b) - element_mul(b, a))
        worst = max(worst, abs(val))
    assert worst < 1e-12


def test_derivation_examples():
    u = monomial(TH13, 1, 0)
    assert derivation(u, 1).approx_equal(2j * math.pi * u, 1e-15)
    assert derivation(unit(TH13), 1) == zero(TH13)
    a = monomial(TH13, 2, 3)
    assert derivation(a, 2).approx_equal(6j * math.pi * a, 1e-15)
    with pytest.raises(ValueError):
        derivation(u, 3)


def test_derivation_leibniz(rng):
    for _ in range(100):
        a = random_element(TH25, 3, rng, nterms=4)
        b = random_element(TH25, 3, rng, nterms=4)
        for axis in (1, 2):
            lhs = derivation(element_mul(a, b), axis)
            rhs = element_mul(derivation(a, axis), b) + element_mul(a, derivation(b, axis))
            assert lhs.approx_equal(rhs, 1e-11)


def test_derivations_commute(rng):
    # the two orders nest the scalar products differently, so agreement is
    # structural plus one ulp of rounding per coefficient
    for _ in range(20):
        a = random_element(TH25, 5, rng)
        d12 = derivation(derivation(a, 1), 2)
        d21 = derivation(derivation(a, 2), 1)
        assert d12.support() == d21.support()
        scale = max(1.0, *(abs(c) for c in d12.coeffs.values()))
        assert max((abs(c) for c in (d12 - d21).coeffs.values()), default=0.0) <= 1e-13 * scale


def test_connes_chern_symbolic_trivial():
    assert connes_chern_symbolic(unit(TH13)) == 0
    assert connes_chern_symbolic(zero(TH13)) == 0


def test_connes_chern_symbolic_u_plus_v():
    # hand expansion: p (d1p d2p - d2p d1p) has support {(2,1),(1,2)}: no constant term
    a = monomial(TH13, 1, 0) + monomial(TH13, 0, 1)
    assert connes_chern_symbolic(a) == pytest.approx(0.0, abs=1e-15)


def test_hofstadter_element():
    h = hofstadter_element(TH13)
    assert h.support() == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert all(h.coeff(*k) == 1 for k in h.support())
    assert nc_integral_symbolic(h) == 0
    assert element_star(h) == h


def test_degree():
    assert zero(TH13).degree() == 0
    assert hofstadter_element(TH13).degree() == 1
    assert monomial(TH13, 2, -3).degree() == 5


def test_irrational_mode(rng):
    th = IrrationalTheta((math.sqrt(5) - 1) / 2)
    a = random_element(th, 4, rng)
    b = random_element(th, 4, rng)
    assert element_star(element_star(a)).approx_equal(a, 1e-12)
    lhs = element_mul(element_mul(a, b), a)
    rhs = element_mul(a, element_mul(b, a))
    assert lhs.approx_equal(rhs, 1e-11)
