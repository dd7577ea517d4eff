"""Record the golden ladder at the large-N edge into `tests/data/ladder.json`.

    python3 tests/record_ladder.py --record

Runs `gap_certificates` over the Fibonacci convergents 5/8, 8/13, 13/21
and 21/34 x reps (1,0), (2,1), (3,2) x G in {16, 24, 32, 48}, skipping
the (theta, rep) pairs with gcd(N, q) > 1: 36 runs.  Each run keeps what
the golden sweep keeps (`record_sweep.py`): the certified (g, d, t, s, cc)
of every gap, or the type name of the `NumericalFailure` it raised.  The
sweep stops at N = 9; the ladder pins the kernel and the band passes at
N >= 13.  `tests/test_ladder.py` compares a fresh ladder with the file.
Without `--record` the script prints the ladder's summary and writes
nothing.
"""

from __future__ import annotations

import sys
from pathlib import Path

from record_sweep import HERE, report, runs

DATA = HERE / "data" / "ladder.json"
CONVERGENTS = ("5/8", "8/13", "13/21", "21/34")
REPS = ((1, 0), (2, 1), (3, 2))
GRIDS = (16, 24, 32, 48)


def ladder(grids=GRIDS) -> dict:
    """The golden ladder's runs, at the given grids."""
    from nctorus.algebra import RationalTheta

    return runs([RationalTheta.parse(text) for text in CONVERGENTS], REPS, grids)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    report(ladder(), DATA, sys.argv[1:])
