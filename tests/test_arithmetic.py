"""Integer layer: twist constants, gap labels, conductance equation solver."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from nctorus import cli
from nctorus.algebra import RationalTheta
from nctorus.arithmetic import (
    DegenerateRepresentationError,
    InvalidTwistError,
    NoConstrainedSolutionError,
    TKNNRecord,
    gap_label_d,
    make_weyl_context,
    tknn_rhs_value,
    tknn_solve,
)


def all_small_contexts(nmax=12, qmax=12):
    for N in range(1, nmax + 1):
        Ms = [1] if N == 1 else [M for M in range(1, N) if math.gcd(M, N) == 1]
        for M in Ms:
            for q in range(1, qmax + 1):
                if math.gcd(N, q) != 1:
                    continue
                rs = [0] if q == 1 else [r for r in range(-q + 1, q) if r != 0 and math.gcd(q, abs(r)) == 1]
                for r in rs:
                    yield M, N, q, r


def bezout_window_oracle(q, r):
    """Exhaustive search for beta*q - alpha*r = 1 with 0 <= alpha < q."""
    sols = [
        (a, b)
        for a in range(0, q)
        for b in range(-3 * q - 3, 3 * q + 4)
        if b * q - a * r == 1
    ]
    assert len(sols) == 1
    return sols[0]


def test_identity_twist_context():
    ctx = make_weyl_context(RationalTheta(1, 3), 1, 0)
    assert (ctx.alpha, ctx.beta, ctx.mu, ctx.nu) == (0, 1, 0, 0)
    assert (ctx.d_r, ctx.n_r, ctx.M0) == (1, 0, 1)
    assert ctx.epsilon == Fraction(1, 3)


def test_spec_context_example_2_1():
    ctx = make_weyl_context(RationalTheta(1, 3), 2, 1)
    assert (ctx.alpha, ctx.beta, ctx.mu, ctx.nu) == (1, 1, 1, -1)
    assert (ctx.d_r, ctx.n_r, ctx.M0) == (2, -1, -1)
    assert 2 * ctx.d_r + ctx.n_r * 3 == 1
    assert ctx.epsilon == Fraction(1, 3) - Fraction(1, 2)


def test_context_validation_errors():
    with pytest.raises(DegenerateRepresentationError):
        make_weyl_context(RationalTheta(1, 2), 2, 1)
    with pytest.raises(InvalidTwistError):
        make_weyl_context(RationalTheta(1, 3), 2, 0)      # r=0 forces q=1
    with pytest.raises(InvalidTwistError):
        make_weyl_context(RationalTheta(1, 3), 4, 2)      # gcd(q,r)=2
    with pytest.raises(InvalidTwistError):
        make_weyl_context(RationalTheta(1, 3), 0, 0)
    with pytest.raises(InvalidTwistError):
        make_weyl_context(RationalTheta(1, 3), 2, 3)      # |r| >= q


def test_all_small_contexts_invariants():
    count = 0
    for M, N, q, r in all_small_contexts():
        ctx = make_weyl_context(RationalTheta(M, N), q, r)
        assert ctx.beta * q - ctx.alpha * r == 1
        assert 0 <= ctx.alpha < q
        assert ctx.nu * q + ctx.mu * (r * N) == r
        assert 0 <= ctx.mu < q
        assert q * ctx.d_r + ctx.n_r * N == 1
        assert math.gcd(abs(ctx.M0), N) == 1
        assert ctx.epsilon == Fraction(M, N) - Fraction(r, q)
        if q > 1:
            assert (ctx.alpha, ctx.beta) == bezout_window_oracle(q, r)
        count += 1
    assert count > 500


def test_gap_label_examples():
    assert gap_label_d(3, 1) == 1
    assert gap_label_d(4, 2) == 3
    assert gap_label_d(5, 0) == 0


def test_gap_label_full_maps():
    assert [gap_label_d(3, g) for g in range(4)] == [0, 1, 2, 3]
    assert [gap_label_d(4, g) for g in range(4)] == [0, 1, 3, 4]
    assert [gap_label_d(6, g) for g in range(6)] == [0, 1, 2, 4, 5, 6]
    with pytest.raises(IndexError):
        gap_label_d(4, 4)
    with pytest.raises(IndexError):
        gap_label_d(5, 6)
    with pytest.raises(IndexError):
        gap_label_d(3, -1)


def solve_oracle(N, M0, q, d):
    """Exhaustive search over the open window 2|s| < N."""
    sols = [
        ((q * d - M0 * s) // N, s)
        for s in range(-N, N + 1)
        if 2 * abs(s) < N and (q * d - M0 * s) % N == 0
    ]
    return sols


def test_tknn_solve_matches_exhaustive_oracle():
    for (M, N, q, r) in [(1, 3, 1, 0), (1, 3, 2, 1), (2, 5, 3, 1), (2, 5, 3, 2),
                         (3, 7, 2, 1), (1, 5, 3, -2), (1, 7, 3, 2)]:
        ctx = make_weyl_context(RationalTheta(M, N), q, r)
        for d in range(N + 1):
            sols = solve_oracle(N, ctx.M0, q, d)
            assert len(sols) == 1
            assert tknn_solve(ctx, d) == sols[0]


def test_tknn_solve_examples():
    ctx = make_weyl_context(RationalTheta(1, 3), 1, 0)
    assert tknn_solve(ctx, 1) == (0, 1)
    assert tknn_solve(ctx, 0) == (0, 0)
    assert tknn_solve(ctx, 3) == (1, 0)
    ctx21 = make_weyl_context(RationalTheta(1, 3), 2, 1)
    assert tknn_solve(ctx21, 0) == (0, 0)
    assert tknn_solve(ctx21, 3) == (2, 0)
    assert tknn_solve(ctx21, 1) == (1, 1)


def test_tknn_solve_no_solution_on_even_central_class():
    ctx = make_weyl_context(RationalTheta(1, 4), 1, 0)
    with pytest.raises(NoConstrainedSolutionError):
        tknn_solve(ctx, 2)     # the closed central gap of N=4
    with pytest.raises(ValueError):
        tknn_solve(ctx, 5)


def test_tknn_solve_additivity():
    for (M, N, q, r) in [(1, 3, 1, 0), (2, 5, 3, 1), (3, 7, 3, 2)]:
        ctx = make_weyl_context(RationalTheta(M, N), q, r)
        for d in range(N + 1):
            t1, s1 = tknn_solve(ctx, d)
            t2, s2 = tknn_solve(ctx, N - d)
            assert t1 + t2 == q
            assert s1 + s2 == 0


def test_classical_reduction():
    # q=1, r=0: N t + M s = d with 2|s| < N
    for (M, N) in [(1, 3), (1, 5), (2, 5), (3, 7)]:
        ctx = make_weyl_context(RationalTheta(M, N), 1, 0)
        assert ctx.M0 == M
        for d in range(N + 1):
            t, s = tknn_solve(ctx, d)
            assert N * t + M * s == d
            assert 2 * abs(s) < N or s == 0


def test_tknn_rhs_value_examples():
    assert tknn_rhs_value(1.0, 0, 0.377, 3, 1) == pytest.approx(3.0)
    assert tknn_rhs_value(1 / 3, -1, 1 / 3, 1, 0) == pytest.approx(0.0, abs=1e-15)
    assert tknn_rhs_value(1 / 3, -1, 1 / 3, 2, 1) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvalidTwistError):
        tknn_rhs_value(1.0, 0, 0.5, 0, 0)


def test_record_json_schema(tmp_path):
    # the labels JSON is the TKNNRecord fields, in field order
    assert cli.main(["labels", "--theta", "1/3", "--grid", "16", "--out", str(tmp_path)]) == 0
    d = json.loads((tmp_path / "labels_1_3_q1r0.json").read_text())[1]
    assert list(d.keys()) == [f.name for f in dataclasses.fields(TKNNRecord)]
    assert list(d.keys()) == ["g", "d", "t", "s", "fermi", "residual"]
    assert (d["g"], d["d"], d["t"], d["s"]) == (1, 1, 0, 1)
    assert isinstance(d["fermi"], float) and isinstance(d["residual"], float)
