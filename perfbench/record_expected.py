"""Record the gate's expected tables into `expected.json`.

    python3 perfbench/record_expected.py

Runs every workload once, in its full and its tiny size, and keeps what
the gate compares: the integers (g, d, t, s, cc) and energies of every
certificate, and for the butterfly sweep the CSV row counts, per-band
min/max/mean energies and the SVG band segments of every theta.  The
committed table was recorded from the unmodified seed toolkit; a change
that moves any of these values is a change in the package's answers,
not a reason to record the table again.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CERT_KEYS = ("g", "d", "t", "s", "cc", "fermi", "lower", "upper")


def _cert_rows(rows: list) -> list:
    for c in rows:
        if not (c["diophantine_ok"] and c["duality_ok"] and c["rhs_residual"] < 1e-3):
            raise SystemExit(f"refusing to record a failing certificate: {c}")
    return [{k: c[k] for k in CERT_KEYS if k in c} for c in rows]


def record(wl, workdir: Path):
    from nctorus import cli

    out = wl.run(random.Random(0), workloads.reset_dir(workdir))
    summary = wl.summarize(out, workdir)
    if wl.name == "certify_small":
        return {key: _cert_rows(rows) for key, rows in sorted(summary.items())}
    if wl.name == "chern_large_n":
        return {"certificates": _cert_rows(summary["certificates"])}
    csv, svg = summary["csv"], summary["svg"]
    thetas = {}
    for key, th in csv["thetas"].items():
        M, N = (int(v) for v in key.split("/"))
        x = cli.fmt(cli._svg_x(M / N))
        thetas[key] = {"rows": th["rows"], "bands": th["bands"], "x": x,
                       "segments": svg["columns"][x]}
    return {"header": csv["header"], "rows": csv["rows"], "paths": svg["paths"],
            "thetas": thetas}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    tables = {}
    for name in workloads.WORKLOADS:
        for tiny in (True, False):
            wl = workloads.make(name, tiny)
            tables[wl.table_key] = record(wl, HERE / "out" / "record")
            print(f"recorded {wl.table_key}", flush=True)
    (HERE / "expected.json").write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
