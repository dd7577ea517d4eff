"""Shared fixtures: cached contexts, band data, and gap certificates.

Band computations and certificates are memoized per session so the
module tests and the acceptance suite can share the expensive spectra.
"""

import numpy as np
import pytest

from nctorus import chern, cli, spectral, suite
from nctorus.algebra import RationalTheta, hofstadter_element
from nctorus.arithmetic import make_weyl_context
from nctorus.chern import gap_certificates
from nctorus.representations import evaluate_on_grid, reference_fibered_rep, weyl_fibered_rep
from nctorus.spectral import BandData, bands_on_grid, hofstadter_gap_report

_BANDS = {}
_CERTS = {}


def ctx_of(M, N, q, r):
    return make_weyl_context(RationalTheta(M, N), q, r)


def bands_of(M, N, q, r, kind, G):
    key = (M, N, q, r, kind, G)
    if key not in _BANDS:
        ctx = ctx_of(M, N, q, r)
        rep = weyl_fibered_rep(ctx) if kind == "weyl" else reference_fibered_rep(ctx)
        _BANDS[key] = bands_on_grid(rep, hofstadter_element(ctx.theta), G)
    return _BANDS[key]


def full_grid_bands(rep, a, G):
    """eigh of pi_k(a) at every point of the G x G grid, no k1 mirror."""
    k = np.arange(G) / G
    H = evaluate_on_grid(rep, a, k, k)
    return BandData(rep, k, k, *np.linalg.eigh(0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))))


def report_of(M, N, q, r):
    """The exact gap report of h, from its four corner characters: no grid."""
    return hofstadter_gap_report(ctx_of(M, N, q, r))


def certs_of(M, N, q, r, G):
    key = (M, N, q, r, G)
    if key not in _CERTS:
        _CERTS[key] = gap_certificates(ctx_of(M, N, q, r), G)
    return _CERTS[key]


@pytest.fixture
def band_passes(monkeypatch):
    """Records (M, N, kind, G) for every spectral pass the package makes.

    `bands_on_grid` and `band_energies` are passes over the same matrices,
    with and without eigenvectors, and record their family's kind; the
    eigenvector passes are counted in `spectral._bands`, which
    `bands_on_grid` and `dual_bands` share;
    `hofstadter_energies`, which reads the energies of h off its central
    characters, records the kind "character".
    """
    calls = []

    def counting(fn):
        def counted(rep, a, G, *n):
            calls.append((rep.ctx.M, rep.ctx.N, rep.kind, G))
            return fn(rep, a, G, *n)
        return counted

    def counting_characters(fn):
        def counted(ctx, G):
            calls.append((ctx.M, ctx.N, "character", G))
            return fn(ctx, G)
        return counted

    for name, wrap in (("_bands", counting), ("band_energies", counting),
                       ("hofstadter_energies", counting_characters)):
        counted = wrap(getattr(spectral, name))
        for mod in (cli, spectral, suite):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counted)
    return calls


def _count_matrices(monkeypatch, name):
    counted = []
    solver = getattr(np.linalg, name)

    def counting(H, *args, **kwargs):
        counted.append(int(np.prod(H.shape[:-2])))
        return solver(H, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return counted


@pytest.fixture
def eigh_matrices(monkeypatch):
    """Counts the matrices handed to numpy.linalg.eigh."""
    return _count_matrices(monkeypatch, "eigh")


@pytest.fixture
def eigvalsh_matrices(monkeypatch):
    """Counts the matrices handed to numpy.linalg.eigvalsh."""
    return _count_matrices(monkeypatch, "eigvalsh")


@pytest.fixture
def shifted_solver(monkeypatch):
    """Makes `chern.tknn_solve` return (t + 1, s - 1), a solver that disagrees."""
    solve = chern.tknn_solve

    def shifted(ctx, d):
        t, s = solve(ctx, d)
        return t + 1, s - 1

    monkeypatch.setattr(chern, "tknn_solve", shifted)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
