"""Record the golden certificate sweep into `tests/data/sweep.json`.

    python3 tests/record_sweep.py --record

Runs `gap_certificates` over Farey(9) x reps (1,0), (2,1), (3,1), (3,2),
(5,2) x G in {4, 6, 8, 15, 16, 32}, skipping the (theta, rep) pairs with
gcd(N, q) > 1: 672 runs.  Each run keeps the certified (g, d, t, s, cc)
of every gap, or the type name of the `NumericalFailure` it raised.
Failure messages are not kept: a run that fails on a wrong integer
may print a different wrong integer when the last digits of the frames
move.  The 58 runs with q/G = 1/2 are typed failures: their weyl seam
plaquettes sit on the +-pi branch cut, so 28 raise GridTooCoarseError
(`chern.BRANCH_CUT_TOL`) and 30 fail an identity on an earlier gap.
`tests/test_sweep.py` compares a fresh sweep with the file.
Without `--record` the script prints the sweep's summary and writes
nothing.

The golden ladder at the large-N edge, `tests/data/ladder.json`, is
recorded the same way by `tests/record_ladder.py`:

    python3 tests/record_ladder.py --record
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data" / "sweep.json"
FAREY = 9
REPS = ((1, 0), (2, 1), (3, 1), (3, 2), (5, 2))
GRIDS = (4, 6, 8, 15, 16, 32)


def contexts(thetas, reps):
    """(key prefix, WeylContext) for every valid pair of thetas x reps."""
    from nctorus.arithmetic import make_weyl_context

    for theta in thetas:
        for q, r in reps:
            if math.gcd(theta.N, q) == 1:
                yield f"{theta.M}/{theta.N} ({q},{r})", make_weyl_context(theta, q, r)


def outcome(ctx, G):
    """[[g, d, t, s, cc], ...] of the certified gaps, or the failure's type name."""
    from nctorus.chern import gap_certificates
    from nctorus.spectral import NumericalFailure

    try:
        certs = gap_certificates(ctx, G)
    except NumericalFailure as exc:
        return type(exc).__name__
    return [[c["record"].g, c["record"].d, c["record"].t, c["record"].s, c["cc"].value]
            for c in certs]


def runs(thetas, reps, grids) -> dict:
    """{"M/N (q,r) G=g": outcome} over thetas x reps x grids."""
    return {f"{prefix} G={G}": outcome(ctx, G)
            for prefix, ctx in contexts(thetas, reps) for G in grids}


def sweep(grids=GRIDS) -> dict:
    """The golden sweep's runs, at the given grids."""
    from nctorus.cli import farey_fractions

    return runs(farey_fractions(FAREY), REPS, grids)


def dumps(runs: dict) -> str:
    """One run per line, so that a re-recording diffs run by run."""
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in runs.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def report(runs: dict, path: Path, argv) -> None:
    """Prints the summary of runs, and writes them to path when argv holds `--record`."""
    failed = {}
    for value in runs.values():
        if isinstance(value, str):
            failed[value] = failed.get(value, 0) + 1
    print(f"{len(runs)} runs: {len(runs) - sum(failed.values())} certify, failures {failed}")
    if "--record" in argv:
        path.parent.mkdir(exist_ok=True)
        path.write_text(dumps(runs))
        print(f"wrote {path}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    report(sweep(), DATA, sys.argv[1:])
