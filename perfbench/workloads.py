"""The three pipeline workloads and the correctness gate of each.

A workload knows how to build its first context (part of set-up), how to
run once (the timed part), how to reduce its outputs to a small summary,
and how to check that summary against the table in `expected.json`.

Gate policy.  Integers are compared exactly: they are what the package
certifies.  Energies (gap edges, Fermi levels, CSV band edges and means,
SVG segment ends) are compared within ENERGY_TOL rather than by a digest
of the bytes.  A digest would also flag a last-digit change from a
different eigh batch layout or BLAS build, which is not a wrong answer;
1e-6 sits six orders above that rounding noise and well below the
narrowest gap in these workloads (0.016, at theta = 8/13).
"""

from __future__ import annotations

import json
import math
import re
import shutil
from pathlib import Path

ENERGY_TOL = 1e-6
RHS_TOL = 1e-3

CERTIFY_THETAS = [(1, 3), (1, 5), (2, 5), (3, 7)]
CERTIFY_REPS = [(1, 0), (2, 1), (3, 1), (3, 2)]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= ENERGY_TOL


def _finite_or_none(x):
    x = float(x)
    return x if math.isfinite(x) else None


def combo_key(combo) -> str:
    M, N, q, r = combo
    return f"{M}/{N} q{q}r{r}"


def check_certificates(got: list, expected: list) -> tuple:
    """One check per expected certificate; extra certificates fail too.

    Returns (attempted, failure messages).
    """
    failures = []
    for i, exp in enumerate(expected):
        if i >= len(got):
            failures.append(f"certificate g={exp['g']} missing")
            continue
        c = got[i]
        for key in ("g", "d", "t", "s", "cc"):
            if c[key] != exp[key]:
                failures.append(f"g={exp['g']}: {key}={c[key]} expected {exp[key]}")
                break
        else:
            if not (c["diophantine_ok"] and c["duality_ok"]):
                failures.append(f"g={exp['g']}: diophantine_ok={c['diophantine_ok']} "
                                f"duality_ok={c['duality_ok']}")
            elif not c["rhs_residual"] < RHS_TOL:
                failures.append(f"g={exp['g']}: rhs_residual {c['rhs_residual']:.3g}")
            elif c["solver_match"] is False:
                failures.append(f"g={exp['g']}: tknn_solve disagrees")
            elif not all(_close(c.get(k), exp.get(k)) for k in ("fermi", "lower", "upper")):
                failures.append(f"g={exp['g']}: energies differ from the table by > {ENERGY_TOL}")
    extra = max(0, len(got) - len(expected))
    failures.extend(f"unexpected certificate #{len(expected) + i}" for i in range(extra))
    return len(expected) + extra, failures


# -- certify_small --------------------------------------------------------------


class CertifySmall:
    """`chern.gap_certificates(ctx, G=64)` over the 14 valid (theta, rep) pairs."""

    name = "certify_small"
    # a pass takes about as long as a benchmark run's --seconds; two passes
    # keep the sample count from flipping between one and two with machine speed
    min_passes = 2

    def __init__(self, tiny: bool = False):
        combos = [(M, N, q, r) for (M, N) in CERTIFY_THETAS for (q, r) in CERTIFY_REPS
                  if math.gcd(N, q) == 1]
        self.combos = [(1, 3, 1, 0), (1, 3, 2, 1), (2, 5, 3, 2)] if tiny else combos
        self.grid = 24 if tiny else 64
        self.table_key = self.name + ("_tiny" if tiny else "")

    def first_context(self):
        M, N, q, r = self.combos[0]
        return (M, N), (q, r)

    def run(self, rng, workdir: Path):
        from nctorus import chern
        from nctorus.algebra import RationalTheta
        from nctorus.arithmetic import make_weyl_context

        order = list(self.combos)
        rng.shuffle(order)
        out = {}
        for (M, N, q, r) in order:
            ctx = make_weyl_context(RationalTheta(M, N), q, r)
            out[combo_key((M, N, q, r))] = chern.gap_certificates(ctx, G=self.grid)
        return out

    @staticmethod
    def summarize(out, workdir: Path) -> dict:
        summary = {}
        for key, certs in out.items():
            rows = []
            for cert in certs:
                rec, gap = cert["record"], cert["gap"]
                rows.append({
                    "g": rec.g, "d": rec.d, "t": rec.t, "s": rec.s,
                    "cc": cert["cc"].value,
                    "fermi": float(rec.fermi),
                    "lower": _finite_or_none(gap.lower),
                    "upper": _finite_or_none(gap.upper),
                    "diophantine_ok": bool(cert["diophantine_ok"]),
                    "duality_ok": bool(cert["duality_ok"]),
                    "rhs_residual": float(cert["rhs_residual"]),
                    "solver_match": cert["solver_match"],
                })
            summary[key] = rows
        return summary

    def n_checks(self, expected: dict) -> int:
        return sum(len(v) for v in expected.values())

    @staticmethod
    def check(summary: dict, expected: dict) -> tuple:
        attempted, failures = 0, []
        for key, exp in expected.items():
            a, f = check_certificates(summary.get(key, []), exp)
            attempted += a
            failures.extend(f"{key} {msg}" for msg in f)
        for key in summary:
            if key not in expected:
                attempted += 1
                failures.append(f"{key}: context not in the table")
        return attempted, failures


# -- chern_large_n --------------------------------------------------------------


class ChernLargeN:
    """`nctorus chern --theta 8/13 --rep 2,1 --grid 64` through `cli.main`."""

    name = "chern_large_n"
    min_passes = 1

    def __init__(self, tiny: bool = False):
        self.theta, self.rep, self.grid = ((3, 7), (3, 2), 24) if tiny else ((8, 13), (2, 1), 64)
        self.table_key = self.name + ("_tiny" if tiny else "")

    def first_context(self):
        return self.theta, self.rep

    def argv(self, workdir: Path) -> list:
        (M, N), (q, r) = self.theta, self.rep
        return ["chern", "--theta", f"{M}/{N}", "--rep", f"{q},{r}",
                "--grid", str(self.grid), "--out", str(workdir)]

    def run(self, rng, workdir: Path):
        from nctorus import cli
        return cli.main(self.argv(workdir))

    def output_path(self, workdir: Path) -> Path:
        (M, N), (q, r) = self.theta, self.rep
        return workdir / f"chern_{M}_{N}_q{q}r{r}.json"

    def summarize(self, exit_code, workdir: Path) -> dict:
        payload = json.loads(self.output_path(workdir).read_text())
        rows = []
        for c in payload["certificates"]:
            rows.append({
                "g": c["g"], "d": c["d"], "t": c["t"]["value"], "s": -c["cc"]["value"],
                "cc": c["cc"]["value"], "fermi": c["fermi"],
                "diophantine_ok": c["diophantine_ok"], "duality_ok": c["duality_ok"],
                "rhs_residual": c["rhs_residual"], "solver_match": c["solver_match"],
            })
        return {"exit_code": exit_code, "certificates": rows}

    def n_checks(self, expected: dict) -> int:
        return len(expected["certificates"])

    @staticmethod
    def check(summary: dict, expected: dict) -> tuple:
        attempted, failures = check_certificates(summary["certificates"],
                                                 expected["certificates"])
        if summary["exit_code"] != 0:
            failures = [f"exit code {summary['exit_code']}"] * attempted
        return attempted, failures


# -- butterfly_sweep ------------------------------------------------------------

_PATH_RE = re.compile(r'<path d="M (\S+) (\S+) L (\S+) (\S+)"')


def _svg_energy(y: str) -> float:
    return (400.0 - float(y)) / 80.0      # inverse of cli._svg_y


def csv_summary(path: Path) -> dict:
    """Streamed reduction of the spectrum CSV: rows and per-band min/max/mean."""
    per = {}
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        rows = 0
        for line in fh:
            M, N, _k1, _k2, b, e = line.split(",")
            rows += 1
            th = per.setdefault(f"{M}/{N}", {"rows": 0, "bands": {}})
            th["rows"] += 1
            e = float(e)
            acc = th["bands"].get(b)
            if acc is None:
                th["bands"][b] = [e, e, e, 1]
            else:
                acc[0] = min(acc[0], e)
                acc[1] = max(acc[1], e)
                acc[2] += e
                acc[3] += 1
    thetas = {}
    for key, th in per.items():
        bands = [th["bands"][b] for b in sorted(th["bands"], key=int)]
        thetas[key] = {"rows": th["rows"],
                       "bands": [[lo, hi, s / n] for lo, hi, s, n in bands]}
    return {"header": header, "rows": rows, "thetas": thetas}


def svg_summary(path: Path) -> dict:
    """Band segments per x column, as energy pairs in document order."""
    text = path.read_text()
    columns = {}
    for x1, y1, x2, y2 in _PATH_RE.findall(text):
        if x1 != x2:
            continue
        columns.setdefault(x1, []).append([_svg_energy(y1), _svg_energy(y2)])
    return {"closed": text.rstrip().endswith("</svg>"),
            "paths": sum(len(v) for v in columns.values()), "columns": columns}


class ButterflySweep:
    """`nctorus butterfly --farey 10 --grid 48 --format csv --format svg`."""

    name = "butterfly_sweep"
    min_passes = 1

    def __init__(self, tiny: bool = False):
        self.farey, self.grid = (4, 12) if tiny else (10, 48)
        self.table_key = self.name + ("_tiny" if tiny else "")

    def first_context(self):
        return (0, 1), (1, 0)

    def argv(self, workdir: Path) -> list:
        return ["butterfly", "--farey", str(self.farey), "--grid", str(self.grid),
                "--format", "csv", "--format", "svg", "--out", str(workdir)]

    def run(self, rng, workdir: Path):
        from nctorus import cli
        return cli.main(self.argv(workdir))

    @staticmethod
    def summarize(exit_code, workdir: Path) -> dict:
        return {"exit_code": exit_code,
                "csv": csv_summary(workdir / "spectrum_q1r0.csv"),
                "svg": svg_summary(workdir / "butterfly_q1r0.svg")}

    def n_checks(self, expected: dict) -> int:
        return 2 + 2 * len(expected["thetas"])

    @staticmethod
    def check(summary: dict, expected: dict) -> tuple:
        """Per theta: CSV rows, curve count and band stats; SVG segment count and ends.

        Plus one check on the whole CSV (header, total rows) and one on the
        whole SVG (closed document, total paths).
        """
        csv, svg = summary["csv"], summary["svg"]
        failures = []
        if csv["header"] != expected["header"] or csv["rows"] != expected["rows"]:
            failures.append(f"csv: {csv['rows']} rows, expected {expected['rows']}")
        if not svg["closed"] or svg["paths"] != expected["paths"]:
            failures.append(f"svg: {svg['paths']} paths, closed={svg['closed']}, "
                            f"expected {expected['paths']}")
        for key, exp in expected["thetas"].items():
            got = csv["thetas"].get(key)
            if got is None or got["rows"] != exp["rows"] or len(got["bands"]) != len(exp["bands"]):
                failures.append(f"csv theta={key}: rows or band count differ")
            elif not all(_close(a, b) for g, e in zip(got["bands"], exp["bands"])
                         for a, b in zip(g, e)):
                failures.append(f"csv theta={key}: band min/max/mean differ by > {ENERGY_TOL}")
            segs = svg["columns"].get(exp["x"])
            if segs is None or len(segs) != len(exp["segments"]):
                n = 0 if segs is None else len(segs)
                failures.append(f"svg theta={key}: {n} segments, expected {len(exp['segments'])}")
            elif not all(_close(a, b) for g, e in zip(segs, exp["segments"])
                         for a, b in zip(g, e)):
                failures.append(f"svg theta={key}: segment ends differ by > {ENERGY_TOL}")
        attempted = 2 + 2 * len(expected["thetas"])
        if summary["exit_code"] != 0:
            failures = [f"exit code {summary['exit_code']}"] * attempted
        return attempted, failures


WORKLOADS = {cls.name: cls for cls in (CertifySmall, ChernLargeN, ButterflySweep)}


def make(name: str, tiny: bool = False):
    return WORKLOADS[name](tiny)


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
