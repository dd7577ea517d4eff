"""Matrix families: clock/shift pairs, twist gluing, fibered evaluation."""

import cmath
import math

import numpy as np
import pytest

from conftest import bands_of, ctx_of
from fields import evaluate_by_powers, generators, power_scalars

from nctorus.algebra import (
    RationalTheta,
    ThetaMismatchError,
    element_mul,
    hofstadter_element,
    monomial,
    random_element,
    random_selfadjoint_element,
    unit,
)
from nctorus.representations import (
    central_character,
    check_pseudoperiodicity,
    evaluate_at_k,
    evaluate_at_points,
    evaluate_on_grid,
    reference_fibered_rep,
    shift_matrix,
    shift_matrix_power,
    twist_transport,
    weyl_fibered_rep,
)
from nctorus.spectral import spectral_hausdorff

CONTEXTS = [(1, 3, 1, 0), (1, 3, 2, 1), (2, 5, 3, 1), (2, 5, 3, 2),
            (3, 7, 3, 2), (1, 2, 1, 0), (1, 5, 3, -1), (1, 7, 2, 1)]


def frob(A):
    return float(np.linalg.norm(A))


def clock(q):
    """The q x q clock matrix diag(1, w, ..., w^{q-1}), w = e^{i2pi/q}."""
    return np.diag(np.exp(2j * np.pi * np.arange(q) / q))


def test_clock_shift_small_matrices():
    assert np.allclose(shift_matrix(2), [[0, 1], [1, 0]])
    assert np.allclose(shift_matrix(1, 0.5j), [[0.5j]])


@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_clock_shift_power_and_commutation(q, rng):
    lam = cmath.exp(2j * cmath.pi * rng.random())
    lam2 = cmath.exp(2j * cmath.pi * rng.random())
    C, S = lam * clock(q), shift_matrix(q, lam2)
    assert frob(np.linalg.matrix_power(S, q) - lam2 * np.eye(q)) < 1e-13
    w = cmath.exp(2j * cmath.pi / q)
    assert frob(C @ S - w * S @ C) < 1e-13


def test_shift_cube_with_imaginary_corner():
    S = shift_matrix(3, 1j)
    assert frob(np.linalg.matrix_power(S, 3) - 1j * np.eye(3)) < 1e-15


@pytest.mark.parametrize("p", range(-7, 8))
def test_shift_matrix_power_closed_form(p, rng):
    lam = cmath.exp(2j * cmath.pi * rng.random())
    got = shift_matrix_power(5, lam, p)
    S = shift_matrix(5, lam)
    want = np.linalg.matrix_power(S if p >= 0 else S.conj().T, abs(p))
    assert frob(got - want) < 1e-13


@pytest.mark.parametrize("p", [-6, -1, 0, 1, 7])
def test_stacked_powers_and_transports_equal_the_scalar_calls(p, rng):
    # the weyl seam is twist_transport, S^-1, over an array of k1.  The stacked
    # call repeats the scalar arithmetic bit for bit, except where S^q = lam I is
    # applied -1 or 2 times: numpy raises an array to those powers through
    # reciprocal and square, which can round the last bit unlike its scalar power
    ctx = ctx_of(2, 5, 3, 1)
    lams = np.exp(2j * np.pi * rng.random(6))
    k1s = rng.random(6)
    for stacked, scalar, power in (
            (shift_matrix_power(5, lams, p), [shift_matrix_power(5, lam, p) for lam in lams], p),
            (shift_matrix_power(5, lams, -p), [shift_matrix_power(5, lam, -p) for lam in lams],
             -p),
            (twist_transport(ctx, k1s), [twist_transport(ctx, k1) for k1 in k1s], -1)):
        assert stacked.shape == (6, 5, 5)
        if power // 5 in (-1, 2):
            assert np.abs(stacked - scalar).max() <= 2 ** -52
        else:
            assert np.array_equal(stacked, scalar)


def test_twist_matrix_layout():
    # the gluing unitary G(k1) is shift_matrix(N, e^{i2pi q k1})^T
    ctx = ctx_of(1, 2, 1, 0)
    assert np.allclose(shift_matrix(ctx.N).T, [[0, 1], [1, 0]])
    ctx = ctx_of(1, 5, 2, 1)
    k1 = 0.37
    lam = cmath.exp(2j * cmath.pi * ctx.q * k1)
    G = shift_matrix(5, lam).T
    assert np.array_equal(np.diag(G, 1), np.ones(4)) and G[4, 0] == lam
    assert frob(np.linalg.matrix_power(G, 5) - lam * np.eye(5)) < 1e-13
    assert frob(np.linalg.matrix_power(shift_matrix(5).T, 5) - np.eye(5)) < 1e-13
    assert frob(twist_transport(ctx, k1) - G.conj()) < 1e-15


def _generators_of(rep, k):
    """pi_k(u) and pi_k(v) from the package's evaluator."""
    theta = rep.ctx.theta
    return (evaluate_at_k(rep, monomial(theta, 1, 0), k),
            evaluate_at_k(rep, monomial(theta, 0, 1), k))


def test_weyl_rep_at_origin_is_clock_shift():
    # the evaluator's generators and their closed forms alike
    rep = weyl_fibered_rep(ctx_of(1, 3, 1, 0))
    for U, V in (_generators_of(rep, (0.0, 0.0)), generators(rep, (0.0, 0.0))):
        assert frob(U - clock(3)) < 1e-15
        assert frob(V - shift_matrix(3)) < 1e-15


def test_reference_rep_at_origin_and_periodicity():
    rep = reference_fibered_rep(ctx_of(1, 3, 1, 0))
    for generators_at in (_generators_of, generators):
        U, V = generators_at(rep, (0.0, 0.0))
        assert frob(U - clock(3)) < 1e-15
        assert frob(V - shift_matrix(3)) < 1e-15
        k = (0.21, 0.73)
        for A, B in zip(generators_at(rep, k), generators_at(rep, (k[0] + 1.0, k[1] + 1.0))):
            assert frob(A - B) < 1e-12


@pytest.mark.parametrize("spec", CONTEXTS)
def test_family_identities_random_k(spec, rng):
    # pi_k(u) and pi_k(v) from the evaluator are the closed forms of the
    # generators, and satisfy the family identities
    M, N, q, r = spec
    ctx = ctx_of(M, N, q, r)
    phase = cmath.exp(2j * cmath.pi * M / N)
    eye = np.eye(N)
    reps = [weyl_fibered_rep(ctx), reference_fibered_rep(ctx),
            reference_fibered_rep(ctx, conjugated=True)]
    for rep in reps:
        for k in rng.random((25, 2)):
            U, V = _generators_of(rep, k)
            for A, B in zip((U, V), generators(rep, k)):
                assert frob(A - B) < 1e-13
            un, vn = power_scalars(rep, k)
            assert frob(U @ V - phase * V @ U) < 1e-12
            assert frob(U @ U.conj().T - eye) < 1e-13
            assert frob(V @ V.conj().T - eye) < 1e-13
            assert frob(np.linalg.matrix_power(U, N) - un * eye) < 1e-12
            assert frob(np.linalg.matrix_power(V, N) - vn * eye) < 1e-12


def test_power_scalars_by_kind():
    # central_character on the G grid: V^N = e^{i2pi x/G} and U^N = e^{i2pi y/G}
    # with (x, y) = (i, M0 j) (weyl), (i, N j) (reference), (N i, N j)
    # (conjugated), and so are the N-th powers of the generators' closed forms
    G = 12
    i, j = np.divmod(np.arange(G * G), G)
    for ctx in (ctx_of(*spec) for spec in CONTEXTS):
        N = ctx.N
        for rep, (a, b) in ((weyl_fibered_rep(ctx), (1, ctx.M0)),
                            (reference_fibered_rep(ctx), (1, N)),
                            (reference_fibered_rep(ctx, conjugated=True), (N, N))):
            x, y = central_character(ctx, rep.turns(i, j, G), G)
            assert np.array_equal(x, a * i % G) and np.array_equal(y, b * j % G)
            for p in range(0, G * G, 7):
                U, V = generators(rep, (i[p] / G, j[p] / G))
                for A, c in ((U, y[p]), (V, x[p])):
                    assert frob(np.linalg.matrix_power(A, N)
                                - cmath.exp(2j * cmath.pi * c / G) * np.eye(N)) < 1e-12


def test_evaluate_hofstadter_two_band_at_origin():
    # N=2, rep (1,0) at k=0: [[2, 2], [2, -2]], eigenvalues +-2*sqrt(2)
    ctx = ctx_of(1, 2, 1, 0)
    H = evaluate_at_k(weyl_fibered_rep(ctx), hofstadter_element(ctx.theta), (0.0, 0.0))
    assert np.allclose(H, [[2, 2], [2, -2]], atol=1e-14)
    vals = np.linalg.eigvalsh(H)
    assert vals == pytest.approx([-2 * math.sqrt(2), 2 * math.sqrt(2)], abs=1e-13)


def test_evaluate_unit_and_commutator_scalar(rng):
    ctx = ctx_of(2, 5, 3, 1)
    rep = weyl_fibered_rep(ctx)
    k = tuple(rng.random(2))
    assert frob(evaluate_at_k(rep, unit(ctx.theta), k) - np.eye(5)) < 1e-15
    uv = evaluate_at_k(rep, element_mul(monomial(ctx.theta, 1, 0), monomial(ctx.theta, 0, 1)), k)
    vu = evaluate_at_k(rep, element_mul(monomial(ctx.theta, 0, 1), monomial(ctx.theta, 1, 0)), k)
    assert frob(uv - cmath.exp(2j * cmath.pi * 2 / 5) * vu) < 1e-13


def test_evaluate_is_multiplicative(rng):
    ctx = ctx_of(1, 3, 2, 1)
    for rep in (weyl_fibered_rep(ctx), reference_fibered_rep(ctx),
                reference_fibered_rep(ctx, conjugated=True)):
        for _ in range(10):
            a = random_element(ctx.theta, 4, rng)
            b = random_element(ctx.theta, 4, rng)
            k = tuple(rng.random(2))
            lhs = evaluate_at_k(rep, element_mul(a, b), k)
            rhs = evaluate_at_k(rep, a, k) @ evaluate_at_k(rep, b, k)
            assert frob(lhs - rhs) < 1e-11


def test_evaluate_theta_mismatch():
    ctx = ctx_of(1, 3, 1, 0)
    with pytest.raises(ThetaMismatchError):
        evaluate_at_k(weyl_fibered_rep(ctx), monomial(RationalTheta(2, 5), 1, 0), (0, 0))


@pytest.mark.parametrize("spec", CONTEXTS)
def test_pseudoperiodicity(spec, rng):
    M, N, q, r = spec
    ctx = ctx_of(M, N, q, r)
    h = hofstadter_element(ctx.theta)
    wy, rf = weyl_fibered_rep(ctx), reference_fibered_rep(ctx)
    assert check_pseudoperiodicity(wy, unit(ctx.theta), (0.1, 0.2)) < 1e-14
    for _ in range(5):
        k = tuple(rng.random(2))
        assert check_pseudoperiodicity(wy, h, k) < 1e-12
        assert check_pseudoperiodicity(rf, h, k) < 1e-12
        a = random_element(ctx.theta, 3, rng)
        assert check_pseudoperiodicity(wy, a, k) < 1e-12


def test_evaluate_on_grid_matches_single_point(rng):
    ctx = ctx_of(2, 5, 3, 2)
    a = random_element(ctx.theta, 4, rng)
    k1s = np.arange(5) / 5
    k2s = np.arange(4) / 4
    for rep in (weyl_fibered_rep(ctx), reference_fibered_rep(ctx),
                reference_fibered_rep(ctx, conjugated=True)):
        grid = evaluate_on_grid(rep, a, k1s, k2s)
        for i in range(5):
            for j in range(4):
                single = evaluate_by_powers(rep, a, (k1s[i], k2s[j]))
                assert frob(grid[i, j] - single) < 1e-12
        # listed entries alone, from the same coefficient loop: the grid's, bit for bit
        i, j = np.divmod(np.arange(5 * 4)[::-3], 4)
        assert np.array_equal(evaluate_at_points(rep, a, k1s, k2s, i, j), grid[i, j])


def test_weyl_family_at_r_over_q_is_a_representation(rng):
    # theta = r/q (M0 = 0, N = 1): the weyl family is constant in k2, U(k) = I,
    # and it glues across k2 by the scalar transport e^{-i2pi q k1}
    ctx = ctx_of(0, 1, 1, 0)        # integer theta, untwisted rep: M0 = 0
    assert ctx.M0 == 0
    weyl, rep = weyl_fibered_rep(ctx), reference_fibered_rep(ctx)
    assert rep.dim == weyl.dim == 1
    h = hofstadter_element(ctx.theta)
    for k in rng.random((20, 2)):
        U, V = _generators_of(weyl, k)
        assert np.array_equal(U, np.eye(1))
        assert np.array_equal(V, _generators_of(rep, k)[1])
        for a in (h, random_selfadjoint_element(ctx.theta, 3, rng)):
            assert check_pseudoperiodicity(weyl, a, k) < 1e-12
    assert _generators_of(rep, (0.25, 0.0))[1][0, 0] == pytest.approx(cmath.exp(0.5j * cmath.pi))


def test_isospectrality_weyl_vs_reference():
    haus = spectral_hausdorff(bands_of(1, 3, 2, 1, "weyl", 64).energies,
                              bands_of(1, 3, 2, 1, "reference", 64).energies)
    assert haus < 1e-6


@pytest.mark.parametrize("M, N, q, r", [
    pytest.param(8, 13, 2, 1, id="M0=3"),
    pytest.param(3, 7, 3, 1, id="M0=2"),
    pytest.param(2, 5, 3, 2, id="M0=-4"),
    pytest.param(3, 7, 3, 2, id="M0=-5"),
    pytest.param(0, 1, 1, 0, id="M0=0"),
])
def test_families_are_the_reference_family_on_the_magnetic_cell(M, N, q, r, rng):
    # gather: column j of the family at scale c (N: reference, M0: weyl) is
    # cell x = cj mod G of the reference family, k2 = x/(N G), conjugated by
    # W^m, m = (cj - x)/G, W = S(e^{i2pi q k1})^a, a = -(qM)^-1 mod N: for any
    # element, since W and the k2 scaling act on the generators.  flip: cell
    # x is M conj(cell G - x) M^dagger, M = W conj Q, Q sending row t to row
    # -t mod N times e^{i2pi q k1} for t != 0: for h, which has the k1 mirror
    # and the flip.  Both at random k1, off the grid rows
    ctx = ctx_of(M, N, q, r)
    G = 16
    a = -pow(q * M, -1, N)
    h = hofstadter_element(ctx.theta)
    reference = reference_fibered_rep(ctx)
    families = {N: reference, ctx.M0: weyl_fibered_rep(ctx)}

    def pi(rep, elem, k1, k2):
        return evaluate_at_k(rep, elem, (k1, k2))

    for c, rep in families.items():
        for j in range(G):
            k1 = rng.random()
            m, x = divmod(c * j, G)
            W = shift_matrix_power(N, np.exp(2j * np.pi * q * k1), a * m)
            for elem in (h, random_selfadjoint_element(ctx.theta, 3, rng)):
                cell = pi(reference, elem, k1, x / (N * G))
                assert frob(pi(rep, elem, k1, j / G) - W @ cell @ W.conj().T) < 1e-12
    for x in range(G):
        k1 = rng.random()
        lam = np.exp(2j * np.pi * q * k1)
        Q = np.zeros((N, N), complex)
        Q[-np.arange(N) % N, np.arange(N)] = np.where(np.arange(N) == 0, 1.0, lam)
        Mx = shift_matrix_power(N, lam, a) @ Q.conj()
        mirror = pi(reference, h, k1, (G - x) / (N * G))
        assert frob(pi(reference, h, k1, x / (N * G)) - Mx @ mirror.conj() @ Mx.conj().T) < 1e-12
