"""Invariant suite: one spectral pass per context, failures as FAIL rows."""

from conftest import ctx_of

from nctorus.suite import run_invariant_suite


def test_suite_one_spectral_pass_per_rep_and_grid(band_passes):
    # isospectral_grid(1/3 (2,1), 32) == 32, so the certificates' bands serve every
    # check; the reference pass at 2G is the pullback lemma's own
    rows = run_invariant_suite(ctx_of(1, 3, 2, 1), 32)
    assert all(r.ok for r in rows)
    assert sorted(band_passes) == [(1, 3, "reference", 32), (1, 3, "reference", 64),
                                   (1, 3, "weyl", 32)]


def test_suite_records_numerical_failures_as_rows():
    rows = {r.name: r for r in run_invariant_suite(ctx_of(3, 7, 3, 2), 6)}
    # the twisted Chern number is an integer, but a wrong one at G = 6:
    # the diophantine identity catches it
    assert not rows["tknn-gaps"].ok
    assert rows["tknn-gaps"].value == float("inf")
    assert "N*t + M0*s" in rows["tknn-gaps"].detail
