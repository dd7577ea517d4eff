"""The plaquette flux kernel on hand-built frames."""

import math

import numpy as np
import pytest

from conftest import bands_of

from nctorus import _kernels
from nctorus.representations import _shift_power_grid


def random_frames(*shape, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    q, _ = np.linalg.qr(raw)
    return q


def test_numpy_flux_constant_frames_is_zero():
    F = np.zeros((6, 6, 3, 2), complex)
    F[..., 0, 0] = 1.0
    F[..., 1, 1] = 1.0
    [(total, min_abs)] = _kernels.plaquette_flux_sum(F, [2])
    assert total == pytest.approx(0.0, abs=1e-14)
    assert min_abs == pytest.approx(1.0, abs=1e-14)


def test_flux_is_gauge_invariant():
    # any orthonormal basis of each occupied space gives the same flux,
    # which is why projector fields keep their eigenvector frames as they are
    F = random_frames(6, 7, 4, 2, seed=1)
    U = random_frames(6, 7, 2, 2, seed=2)
    for seam in (None, random_frames(6, 4, 4, seed=3)):
        [(total, min_abs)] = _kernels.plaquette_flux_sum(F, [2], seam)
        [(total_u, min_abs_u)] = _kernels.plaquette_flux_sum(F @ U, [2], seam)
        assert total_u == pytest.approx(total, abs=1e-12)
        assert min_abs_u == pytest.approx(min_abs, abs=1e-12)


@pytest.mark.parametrize("N,q", [(1, 1), (3, 2), (5, 3)])
def test_identity_frames_through_the_weyl_seam_carry_flux_2pi_q(N, q):
    # the whole twisted field: every bulk link is 1, and det of the seam
    # transport winds q times around k1
    G = 8
    F = np.broadcast_to(np.eye(N, dtype=complex), (G, G, N, N))
    seam = _shift_power_grid(N, np.exp(2j * math.pi * q * np.arange(G) / G), -1)
    [(total, min_abs)] = _kernels.plaquette_flux_sum(F, [N], seam)
    assert total == pytest.approx(2 * math.pi * q, abs=1e-12)
    assert min_abs == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("frames", [
    pytest.param(lambda: random_frames(6, 7, 5, 5, seed=4), id="random-unitary"),
    pytest.param(lambda: bands_of(8, 13, 2, 1, "weyl", 16).frames, id="bands-8/13-(2,1)-G16"),
])
@pytest.mark.parametrize("with_seam", [False, True])
def test_multi_rank_call_matches_one_rank_at_a_time(frames, with_seam):
    # ranks up to N/2 read leading blocks of the shared overlaps, ranks
    # above it det(O) conj(det(trailing block)); R = N is det(O) alone
    F = frames()
    G1, _, N, _ = F.shape
    seam = random_frames(G1, N, N, seed=5) if with_seam else None
    ranks = list(range(1, N + 1))
    multi = _kernels.plaquette_flux_sum(F, ranks, seam)
    assert len(multi) == N
    for R, (total, min_abs) in zip(ranks, multi):
        [(total_1, min_abs_1)] = _kernels.plaquette_flux_sum(F[..., :R], [R], seam)
        assert total == pytest.approx(total_1, abs=1e-10), R
        assert min_abs == pytest.approx(min_abs_1, abs=1e-12), R
