"""The golden certificate sweep: every certified integer and failure type stays put.

`data/sweep.json` holds, for 672 (theta, rep, G) runs of
`gap_certificates`, the certified (g, d, t, s, cc) of every gap or the
type of the `NumericalFailure` raised (`record_sweep.py` writes it).
A certified integer that changes, a certificate that turns into a
failure, or a failure of another type fails this test.  A failure that
turns into a certificate fails it too, so that the re-recorded file
shows it in its diff.  Every run with q/G = 1/2 is recorded as a typed
failure: its weyl seam plaquettes sit on the +-pi branch cut, so the
last digits of the frames cannot move its integer.
"""

import json

import pytest

from record_sweep import DATA, GRIDS, sweep

EXPECTED = json.loads(DATA.read_text())


def test_the_file_keeps_every_run():
    assert len(EXPECTED) == 672
    assert {key.rsplit(" G=", 1)[1] for key in EXPECTED} == {str(G) for G in GRIDS}


def test_runs_on_the_branch_cut_are_typed_failures():
    # q/G = 1/2: the weyl seam plaquettes read pi to 12 digits
    half = [value for key, value in EXPECTED.items()
            if 2 * int(key.split("(")[1].split(",")[0]) == int(key.rsplit(" G=", 1)[1])]
    assert len(half) == 58
    assert all(isinstance(value, str) for value in half)


@pytest.mark.parametrize("G", GRIDS)
def test_sweep_matches_the_recorded_certificates(G):
    runs = sweep(grids=(G,))
    assert set(runs) == {k for k in EXPECTED if k.endswith(f" G={G}")}
    changed = [f"{key}: recorded {EXPECTED[key]}, now {value}"
               for key, value in runs.items() if value != EXPECTED[key]]
    assert not changed, "\n".join(changed)
