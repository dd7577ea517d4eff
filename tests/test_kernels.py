"""The plaquette flux kernel on hand-built frames."""

import numpy as np
import pytest

from nctorus import _kernels


def random_frames(G1, G2, N, R, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(G1, G2, N, R)) + 1j * rng.normal(size=(G1, G2, N, R))
    q, _ = np.linalg.qr(raw)
    return q


def test_numpy_flux_constant_frames_is_zero():
    F = np.zeros((6, 6, 3, 2), complex)
    F[..., 0, 0] = 1.0
    F[..., 1, 1] = 1.0
    total, min_abs = _kernels.plaquette_flux_sum(F)
    assert total == pytest.approx(0.0, abs=1e-14)
    assert min_abs == pytest.approx(1.0, abs=1e-14)


def test_flux_is_gauge_invariant():
    # any orthonormal basis of each occupied space gives the same flux,
    # which is why projector fields keep their eigenvector frames as they are
    F = random_frames(6, 7, 4, 2, seed=1)
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(6, 7, 2, 2)) + 1j * rng.normal(size=(6, 7, 2, 2))
    U, _ = np.linalg.qr(raw)
    total, min_abs = _kernels.plaquette_flux_sum(F)
    total_u, min_abs_u = _kernels.plaquette_flux_sum(F @ U)
    assert total_u == pytest.approx(total, abs=1e-12)
    assert min_abs_u == pytest.approx(min_abs, abs=1e-12)
