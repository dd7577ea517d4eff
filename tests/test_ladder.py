"""The golden ladder: every certified integer and failure type at N = 8 ... 34 stays put.

`data/ladder.json` holds, for 36 (theta, rep, G) runs of
`gap_certificates` on the Fibonacci convergents 5/8 ... 21/34, what
`data/sweep.json` holds for the sweep (`record_ladder.py` writes it).
Any difference fails, as in `test_sweep.py`.
"""

import json

import pytest

from record_ladder import DATA, GRIDS, ladder

EXPECTED = json.loads(DATA.read_text())


def test_the_file_keeps_every_run():
    assert len(EXPECTED) == 36
    assert {key.rsplit(" G=", 1)[1] for key in EXPECTED} == {str(G) for G in GRIDS}


@pytest.mark.parametrize("G", GRIDS)
def test_ladder_matches_the_recorded_certificates(G):
    runs = ladder(grids=(G,))
    assert set(runs) == {k for k in EXPECTED if k.endswith(f" G={G}")}
    changed = [f"{key}: recorded {EXPECTED[key]}, now {value}"
               for key, value in runs.items() if value != EXPECTED[key]]
    assert not changed, "\n".join(changed)
