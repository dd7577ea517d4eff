"""Shared fixtures: cached contexts, band data, and gap certificates.

Band computations and certificates are memoized per session so the
module tests and the acceptance suite can share the expensive spectra.
"""

import numpy as np
import pytest

from fields import BandData

from nctorus import chern, cli, spectral, suite
from nctorus.algebra import RationalTheta, hofstadter_element
from nctorus.arithmetic import make_weyl_context
from nctorus.chern import gap_certificates
from nctorus.representations import reference_fibered_rep, weyl_fibered_rep
from nctorus.spectral import expand_k1_mirror, hofstadter_gap_report

_BANDS = {}
_CERTS = {}


def ctx_of(M, N, q, r):
    return make_weyl_context(RationalTheta(M, N), q, r)


def bands_of(M, N, q, r, kind, G):
    key = (M, N, q, r, kind, G)
    if key not in _BANDS:
        ctx = ctx_of(M, N, q, r)
        rep = weyl_fibered_rep(ctx) if kind == "weyl" else reference_fibered_rep(ctx)
        _BANDS[key] = package_bands(rep, hofstadter_element(ctx.theta), G)
    return _BANDS[key]


def package_bands(rep, a, G):
    """The package's band pass of `rep`'s family (`spectral.band_blocks`), whole, as BandData.

    For h the k1-mirrored frames of the stored rows, the flipped columns
    filled; the energies are rows[index] of the diagonalized points'
    spectra and their `spectral.grid_index`.  `fields.bands_on_grid` is
    the unmirrored oracle.
    """
    blocks = list(spectral.band_blocks(rep, a, G))
    E = np.concatenate([energies for _, energies, _ in blocks])
    rows = E.reshape(-1, rep.dim)
    return BandData(rep, rows[spectral.grid_index(E.shape[1], G)],
                    np.concatenate([F for _, _, F in blocks]))


def dense_projector(field):
    """The dense projector F F^dagger of a field at every grid point: (G, G, N, N)."""
    F = expand_k1_mirror(field.frames, field.frames.shape[1])
    return F @ np.conj(np.swapaxes(F, -1, -2))


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

    `band_blocks` and `band_energies` are passes over the same matrices,
    with and without eigenvectors, and record their family's kind;
    `dual_band_blocks`, the row-block pass of both families
    (`chern.gap_certificates`), reads both off one orbit table and records
    the kind "dual".  `hofstadter_energies`, which reads the energies of h
    off its central characters, records the kind "character".
    """
    calls = []

    def counting(fn):
        def counted(rep, a, G):
            calls.append((rep.ctx.M, rep.ctx.N, rep.kind, G))
            return fn(rep, a, G)
        return counted

    def counting_contexts(kind):
        def wrap(fn):
            def counted(ctx, *args):
                calls.append((ctx.M, ctx.N, kind, args[-1]))
                return fn(ctx, *args)
            return counted
        return wrap

    for name, wrap in (("band_blocks", counting), ("band_energies", counting),
                       ("dual_band_blocks", counting_contexts("dual")),
                       ("hofstadter_energies", counting_contexts("character"))):
        counted = wrap(getattr(spectral, name))
        for mod in (chern, cli, spectral, suite):
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
