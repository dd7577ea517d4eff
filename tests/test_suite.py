"""Invariant suite: one spectral pass per context, failures as FAIL rows."""

from conftest import ctx_of

from nctorus.suite import run_invariant_suite


def test_suite_one_spectral_pass_per_rep_and_grid(band_passes):
    # isospectral_grid(1/3 (2,1), 32) == 32, so the certificates' bands serve every check
    rows = run_invariant_suite(ctx_of(1, 3, 2, 1), 32)
    assert all(r.ok for r in rows)
    assert sorted(band_passes) == [(1, 3, "reference", 32), (1, 3, "reference", 64),
                                   (1, 3, "weyl", 32)]


def test_suite_records_numerical_failures_as_rows():
    rows = {r.name: r for r in run_invariant_suite(ctx_of(3, 7, 3, 2), 6)}
    assert not rows["tknn-gaps"].ok
    assert "lattice sum" in rows["tknn-gaps"].detail
