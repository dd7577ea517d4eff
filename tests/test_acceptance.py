"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
pass; tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from conftest import bands_of, certs_of, ctx_of, report_of
from fields import (
    fermi_projector_field,
    fhs_chern,
    generators,
    identity_field,
    power_scalars,
    pullback_field,
)

from nctorus.algebra import hofstadter_element, monomial, random_element
from nctorus.arithmetic import tknn_rhs_value, tknn_solve
from nctorus.chern import symbolic_numeric_crosscheck
from nctorus.representations import (
    check_pseudoperiodicity,
    evaluate_at_k,
    reference_fibered_rep,
    weyl_fibered_rep,
)
from nctorus.spectral import spectral_hausdorff

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

THETAS = [(1, 3), (1, 5), (2, 5), (3, 7)]
REPS = [(1, 0), (2, 1), (3, 1), (3, 2)]


def valid_combos():
    out = []
    for (M, N) in THETAS:
        for (q, r) in REPS:
            if math.gcd(N, q) == 1:
                out.append((M, N, q, r))
    return out


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:02d}: {desc}{suffix}")
    assert ok, f"criterion {num:02d} failed: {desc}{suffix}"


def test_criterion_01_ambient_anchor():
    worst_res, worst_dt, ok = 0.0, 0.0, True
    for (N, q) in [(3, 1), (3, 2), (5, 2), (5, 3), (7, 3)]:
        ctx = ctx_of(1, N, q, 0 if q == 1 else 1)
        field = identity_field(weyl_fibered_rep(ctx), 32)
        t0 = time.perf_counter()
        res = fhs_chern(field)
        dt = time.perf_counter() - t0
        ok = ok and res.value == q and res.residual < 1e-3 and dt < 1.0
        worst_res = max(worst_res, res.residual)
        worst_dt = max(worst_dt, dt)
    _report(1, "full-field twist anchor t(identity) = q at 32^2", ok,
            f"max residual {worst_res:.2e}, max time {worst_dt * 1e3:.0f} ms")


def test_criterion_02_generalized_tknn():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    n_gaps = 0
    for (M, N, q, r) in valid_combos():
        ctx = ctx_of(M, N, q, r)
        for cert in certs_of(M, N, q, r, 64):
            rec = cert["record"]
            ok = ok and cert["diophantine_ok"] and cert["rhs_residual"] < 1e-3
            ok = ok and (N * rec.t + ctx.M0 * rec.s == q * rec.d)
            worst = max(worst, cert["rhs_residual"])
            n_gaps += 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    _report(2, "generalized conductance identity on every gap at 64^2", ok,
            f"{n_gaps} gaps, max pre-rounding residual {worst:.2e}, {dt:.1f} s")


def test_criterion_03_classical_recovery():
    ok = True
    for (M, N) in THETAS:
        ctx = ctx_of(M, N, 1, 0)
        for cert in certs_of(M, N, 1, 0, 64):
            rec = cert["record"]
            ok = ok and (N * rec.t + M * rec.s == rec.d)
            ok = ok and (2 * abs(rec.s) < N)
            ok = ok and tknn_solve(ctx, rec.d) == (rec.t, rec.s)
    _report(3, "classical equations recovered exactly for (q,r) = (1,0)", ok)


def test_criterion_04_band_counting():
    ok = True
    counts = {}
    for N in (2, 3, 4, 5, 6, 7):
        report = report_of(1, N, 1, 0)
        expected = N if N % 2 == 1 else N - 1
        counts[N] = report.bands
        ok = ok and report.bands == expected
    _report(4, "band counts N (odd) / N-1 (even) from the exact corners, tol 1e-8", ok,
            str(counts))


def test_criterion_05_isospectrality():
    haus = spectral_hausdorff(bands_of(1, 3, 2, 1, "weyl", 128).energies,
                              bands_of(1, 3, 2, 1, "reference", 128).energies)
    _report(5, "weyl(2,1) vs reference isospectral at 128^2", haus < 1e-6,
            f"Hausdorff {haus:.2e}")


def test_criterion_06_symbolic_numeric():
    rng = np.random.default_rng(606)
    worst = 0.0
    for (M, N, q, r) in [(1, 3, 1, 0), (2, 5, 3, 1), (3, 7, 2, 1)]:
        ctx = ctx_of(M, N, q, r)
        for _ in range(50):
            a = random_element(ctx.theta, 4, rng)
            worst = max(worst, symbolic_numeric_crosscheck(a, ctx, 32))
    _report(6, "symbolic vs numeric trace/character, 150 random elements", worst < 1e-10,
            f"max discrepancy {worst:.2e}")


def test_criterion_07_pullback_lemma():
    gap = report_of(1, 3, 1, 0).internal()[0]
    field = fermi_projector_field(bands_of(1, 3, 1, 0, "reference", 32), gap.fermi)
    base = fhs_chern(field).value
    ok = base == -1
    for (n1, n2) in ((2, 1), (1, 3), (2, 3)):
        scaled = fhs_chern(pullback_field(field, n1, n2)).value
        ok = ok and scaled == n1 * n2 * base
    _report(7, "pullback Chern scaling by n1*n2 on the gap-1 field", ok,
            f"base {base}")


def test_criterion_08_algebraic_invariants():
    rng = np.random.default_rng(808)
    worst = 0.0
    for (M, N, q, r) in valid_combos():
        ctx = ctx_of(M, N, q, r)
        phase = np.exp(2j * np.pi * M / N)
        eye = np.eye(N)
        h = hofstadter_element(ctx.theta)
        u, v = monomial(ctx.theta, 1, 0), monomial(ctx.theta, 0, 1)
        reps = (weyl_fibered_rep(ctx), reference_fibered_rep(ctx))
        for k in rng.random((100, 2)):
            for rep in reps:
                # the generators' closed forms, and the evaluator's pi_k(u), pi_k(v) against them
                U, V = generators(rep, k)
                un, vn = power_scalars(rep, k)
                worst = max(
                    worst,
                    np.linalg.norm(evaluate_at_k(rep, u, k) - U),
                    np.linalg.norm(evaluate_at_k(rep, v, k) - V),
                    np.linalg.norm(U @ V - phase * V @ U),
                    np.linalg.norm(U @ U.conj().T - eye),
                    np.linalg.norm(np.linalg.matrix_power(U, N) - un * eye),
                    np.linalg.norm(np.linalg.matrix_power(V, N) - vn * eye),
                )
        for k in rng.random((100, 2)):
            for rep in reps:
                worst = max(worst, check_pseudoperiodicity(rep, h, tuple(k)))
    _report(8, "commutation/unitarity/power/gluing residuals at 100 random k", worst < 1e-12,
            f"max residual {worst:.2e}")


def test_criterion_09_duality():
    ok = True
    for (M, N, q, r) in valid_combos():
        ctx = ctx_of(M, N, q, r)
        for cert in certs_of(M, N, q, r, 64):
            rec, cc = cert["record"], cert["cc"].value
            ok = ok and (N * rec.t == ctx.M0 * cc + rec.d * q)
    _report(9, "bundle duality N*t = M0*cc + rank*q in exact integers", ok)


def test_criterion_10_grid_stability():
    ok = True
    for (M, N, q, r) in [(1, 3, 1, 0), (1, 3, 2, 1), (1, 5, 1, 0),
                         (1, 5, 2, 1), (2, 5, 1, 0), (2, 5, 2, 1)]:
        a = [(c["record"].t, c["cc"].value) for c in certs_of(M, N, q, r, 24)]
        b = [(c["record"].t, c["cc"].value) for c in certs_of(M, N, q, r, 48)]
        ok = ok and a == b
    _report(10, "integer Chern values identical between 24^2 and 48^2", ok)


def test_criterion_11_irrational_stability():
    G = 64
    data = {}
    intervals = {}
    for (M, N) in [(13, 21), (21, 34)]:
        intervals[(M, N)] = [(g.lower, g.upper) for g in report_of(M, N, 1, 0).internal()]
    # widest gap interval common to both approximants
    best = None
    for (a1, b1) in intervals[(13, 21)]:
        for (a2, b2) in intervals[(21, 34)]:
            lo, hi = max(a1, a2), min(b1, b2)
            if hi - lo > 0 and (best is None or hi - lo > best[1] - best[0]):
                best = (lo, hi)
    assert best is not None
    fermi = 0.5 * (best[0] + best[1])
    for (M, N) in [(13, 21), (21, 34)]:
        bd = bands_of(M, N, 1, 0, "reference", G)
        field = fermi_projector_field(bd, fermi)
        cc = fhs_chern(field).value
        m = round(field.rank / N + (M / N) * cc)
        data[(M, N)] = (cc, m)
    pair = set(data.values())
    ok = len(pair) == 1
    cc, m = data[(13, 21)]
    worst = 0.0
    for (q, r) in [(1, 0), (5, 2)]:
        # trace of the gap projector extends off the rational points as m - theta*cc
        val = tknn_rhs_value(m - GOLDEN * cc, cc, GOLDEN, q, r)
        worst = max(worst, abs(val - round(val)))
    ok = ok and worst < 1e-6
    _report(11, "golden-mean invariants stable across 13/21 and 21/34", ok,
            f"(cc, m) = {data[(13, 21)]}, max dist to int {worst:.2e}")
