"""Command-line front end: sweeps, gap labeling, Chern certificates, verification.

Subcommands
    butterfly   Farey sweep of spectra -> CSV (optional SVG, gap-colored)
    gaps        gap report for each (theta, q, r)
    labels      verified conductance-triple table, one record per gap
    chern       full per-gap Chern certificates
    verify      the whole invariant suite; exit 0 iff everything passes

Exit codes: 0 success, 1 numerical failure (a check or certificate that
does not hold on the grid; verify still writes its report), 2
configuration or validation error, 3 I/O error.  Every explicit --theta
is validated against every --rep before any context is computed.  All
emitted CSV/JSON is byte-stable for a fixed configuration: fixed
ordering, floats at 12 significant digits (`fmt`).  The JSON records are
the fields of the result dataclasses (`GapReport`, `TKNNRecord`,
`ChernResult`, `CheckResult`); `_write_json` alone applies the number
policy, writing every non-finite float as null.  The first format in
`_WRITES` is each command's default.  The butterfly CSV is formatted
theta by theta as the worker jobs finish and written in one pass after
the last job, so a failing job leaves no partial file.
Worker threads for parameter sweeps come from NCTORUS_THREADS (positive
integer; default: available parallelism).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

from .algebra import RationalTheta
from .arithmetic import DegenerateRepresentationError, InvalidTwistError, make_weyl_context
from .chern import certify_gaps, gap_bands, gap_certificates
from .spectral import (
    GAP_TOL,
    NumericalFailure,
    band_rows,
    detect_gaps_refined,
    hofstadter_energies,
    hofstadter_gap_report,
)
from .suite import run_invariant_suite

THREADS_ENV = "NCTORUS_THREADS"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3

GAP_COLORS = ["#cc3311", "#0077bb", "#009988", "#ee7733", "#33bbee",
              "#ee3377", "#bbbbbb", "#999933", "#882255", "#117733"]


class ConfigError(ValueError):
    pass


def fmt(x) -> str:
    """12-significant-digit float formatting used for every emitted number."""
    return format(float(x), ".12g")


# -- configuration ------------------------------------------------------------


@dataclass
class RunConfig:
    thetas: List[RationalTheta] = field(default_factory=list)
    farey: Optional[int] = None
    reps: List[Tuple[int, int]] = field(default_factory=lambda: [(1, 0)])
    grid: int = 64
    out: Path = Path(".")
    formats: List[str] = field(default_factory=list)
    color_gaps: bool = False


def parse_theta(text: str) -> RationalTheta:
    try:
        return RationalTheta.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad theta {text!r}: {exc}") from None


def parse_rep(text: str) -> Tuple[int, int]:
    try:
        q_str, r_str = text.split(",")
        return int(q_str), int(r_str)
    except ValueError:
        raise ConfigError(f"bad rep {text!r}: expected 'q,r'") from None


_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def parse_bool(key: str, text: str) -> bool:
    """A config-file switch: true/false, yes/no, on/off or 1/0, in any case."""
    try:
        return _BOOL_WORDS[text.lower()]
    except KeyError:
        raise ConfigError(
            f"bad {key} {text!r}: expected true/false, yes/no, on/off or 1/0") from None


_CONFIG_KEYS = ("theta", "farey", "rep", "grid", "out", "format", "color_gaps")


def parse_config_file(path: str) -> dict:
    """Flat 'key = value' file mirroring the flags; unknown keys are errors."""
    values: dict = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "format":
            values.setdefault(key, []).extend(v.strip() for v in val.split(",") if v.strip())
        elif key in ("theta", "rep"):
            values.setdefault(key, []).append(val)   # repeat the line to repeat the flag
        else:
            values[key] = val
    return values


# the formats each subcommand writes, its default first; any other --format is a
# configuration error
_WRITES = {"butterfly": ("csv", "svg"), "gaps": ("json", "csv"),
           "labels": ("json",), "chern": ("json",), "verify": ("json",)}


def build_config(args: argparse.Namespace) -> RunConfig:
    filed = parse_config_file(args.config) if args.config else {}

    def pick(flag, key, default):
        return flag if flag is not None else filed.get(key, default)

    cfg = RunConfig()
    thetas = pick(args.theta, "theta", [])
    cfg.thetas = [parse_theta(t) for t in thetas]
    farey = pick(args.farey, "farey", None)
    cfg.farey = int(farey) if farey is not None else None
    reps = pick(args.rep, "rep", None)
    cfg.reps = [parse_rep(r) for r in reps] if reps else [(1, 0)]
    cfg.grid = int(pick(args.grid, "grid", 64))
    cfg.out = Path(pick(args.out, "out", "."))
    accepted = _WRITES[args.command]
    cfg.formats = list(pick(args.format, "format", None) or accepted[:1])
    raw_cg = pick(getattr(args, "color_gaps", None) or None, "color_gaps", False)
    cfg.color_gaps = raw_cg if isinstance(raw_cg, bool) else parse_bool("color_gaps", raw_cg)

    if cfg.grid < 2:
        raise ConfigError(f"grid must be >= 2, got {cfg.grid}")
    if cfg.farey is not None and cfg.farey < 1:
        raise ConfigError(f"farey bound must be >= 1, got {cfg.farey}")
    for f in cfg.formats:
        if f not in ("csv", "json", "svg"):
            raise ConfigError(f"unknown format {f!r}")
        if f not in accepted:
            raise ConfigError(f"{args.command} cannot write {f!r}: it writes "
                              f"{' or '.join(accepted)}")
    return cfg


def worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        # the CPUs this process may run on (taskset, cpusets), not the host's
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer, got {n}")
    return n


# -- output helpers ------------------------------------------------------------


def _write_text(path: Path, *chunks: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.writelines(chunks)


def _write_json(path: Path, obj):
    """`obj` as indented JSON: finite floats at 12 significant digits, non-finite as null."""
    def policed(x):
        if isinstance(x, float):
            return float(fmt(x)) if math.isfinite(x) else None
        if isinstance(x, dict):
            return {key: policed(v) for key, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [policed(v) for v in x]
        return x
    _write_text(path, json.dumps(policed(obj), indent=2) + "\n")


def _tag(ctx) -> str:
    return f"{ctx.M}_{ctx.N}_q{ctx.q}r{ctx.r}"


def farey_fractions(bound: int) -> List[RationalTheta]:
    """All reduced M/N with 0 <= M/N <= 1 and N <= bound, value-ordered."""
    fracs = {Fraction(0, 1), Fraction(1, 1)}
    for N in range(1, bound + 1):
        for M in range(0, N + 1):
            if math.gcd(M, N) == 1:
                fracs.add(Fraction(M, N))
    return [RationalTheta(f.numerator, f.denominator) for f in sorted(fracs)]


# -- butterfly -----------------------------------------------------------------


def _butterfly_job(theta: RationalTheta, q: int, r: int, cfg: RunConfig):
    ctx = make_weyl_context(theta, q, r)
    if "svg" in cfg.formats and cfg.color_gaps:
        # band segments and gap rectangles come from the exact gap report the
        # certificates are read from, the CSV energies from their weyl bands at G
        report, bd_r, bd_w = gap_bands(ctx, cfg.grid)
        certs = certify_gaps(ctx, report, bd_r, bd_w)
        return theta, (bd_r if bd_w is None else bd_w).energies, report, certs
    # the uncolored SVG keeps sampled grid detection on the weyl energies, read
    # off the central character; the CSV grid is computed only when a CSV is written
    energies = None
    report = None
    if "svg" in cfg.formats:
        fine = hofstadter_energies(ctx, 2 * max(8, cfg.grid // 2))
        report = detect_gaps_refined(fine)
        if len(fine) == cfg.grid:
            energies = fine       # refinement's fine grid is the CSV grid
    if energies is None and "csv" in cfg.formats:
        energies = hofstadter_energies(ctx, cfg.grid)
    return theta, energies, report, None


def cmd_butterfly(cfg: RunConfig) -> int:
    if cfg.farey is None and not cfg.thetas:
        raise ConfigError("butterfly needs --farey or at least one --theta")
    base = farey_fractions(cfg.farey) if cfg.farey is not None else []
    for th in cfg.thetas:
        if th not in base:
            base.append(th)
    base.sort(key=lambda t: (Fraction(t.M, t.N), t.N))

    for th in cfg.thetas:
        for (q, r) in cfg.reps:
            make_weyl_context(th, q, r)   # explicit thetas must validate

    for (q, r) in cfg.reps:
        jobs = []
        for th in base:
            if math.gcd(th.N, q) != 1:
                print(f"note: skipping theta={th.M}/{th.N} for rep ({q},{r}): gcd(N,q) != 1",
                      file=sys.stderr)
                continue
            jobs.append(th)
        results = []
        chunks = ["theta_num,theta_den,k1,k2,band,energy\n"]
        with concurrent.futures.ThreadPoolExecutor(max_workers=worker_count()) as pool:
            for th, energies, report, certs in pool.map(lambda t: _butterfly_job(t, q, r, cfg),
                                                        jobs):
                if "csv" in cfg.formats:
                    chunks.append(band_rows(energies, f"{th.M},{th.N},"))
                results.append((th, report, certs))

        if "csv" in cfg.formats:
            _write_text(cfg.out / f"spectrum_q{q}r{r}.csv", *chunks)

        if "svg" in cfg.formats:
            _write_text(cfg.out / f"butterfly_q{q}r{r}.svg",
                        _butterfly_svg(results, q, r))
    return EXIT_OK


def _svg_x(theta_value: float) -> float:
    return 60.0 + 880.0 * theta_value


def _svg_y(energy: float) -> float:
    return 400.0 - 80.0 * energy      # E in [-4.5, 4.5] spans y in [760, 40]


def _butterfly_svg(results, q: int, r: int) -> str:
    """Scatter of band segments; one <path> per (theta, band) region.

    viewBox is 0 0 1000 800: theta in [0,1] maps to x = 60 + 880*theta,
    energy E maps to y = 400 - 80*E.
    """
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 800">',
        f'<!-- flux butterfly, rep q={q} r={r}; x = 60 + 880*theta, y = 400 - 80*E -->',
        '<rect x="0" y="0" width="1000" height="800" fill="white"/>',
    ]
    for th, report, certs in results:
        x = _svg_x(th.M / th.N)
        if certs is not None:
            for cert in certs:
                gap = cert["gap"]
                if not (math.isfinite(gap.lower) and math.isfinite(gap.upper)):
                    continue
                t_int = cert["record"].t
                color = GAP_COLORS[t_int % len(GAP_COLORS)]
                y1, y0 = _svg_y(gap.lower), _svg_y(gap.upper)
                parts.append(
                    f'<rect x="{fmt(x - 2)}" y="{fmt(y0)}" width="4" '
                    f'height="{fmt(y1 - y0)}" fill="{color}" data-t="{t_int}">'
                    f'<title>t={t_int}</title></rect>'
                )
    for th, report, certs in results:
        x = _svg_x(th.M / th.N)
        for gap, nxt in zip(report.gaps[:-1], report.gaps[1:]):
            parts.append(
                f'<path d="M {fmt(x)} {fmt(_svg_y(gap.upper))} '
                f'L {fmt(x)} {fmt(_svg_y(nxt.lower))}" '
                'stroke="black" stroke-width="2" fill="none"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- gaps / labels / chern ------------------------------------------------------


def _iter_contexts(cfg: RunConfig):
    if not cfg.thetas and cfg.farey is None:
        raise ConfigError("need at least one --theta (or --farey)")
    # every explicit pair is validated before the first context does any work
    yield from [make_weyl_context(th, q, r) for th in cfg.thetas for (q, r) in cfg.reps]
    if cfg.farey is not None:
        for th in farey_fractions(cfg.farey):
            if th in cfg.thetas:
                continue
            for (q, r) in cfg.reps:
                if math.gcd(th.N, q) != 1:
                    print(f"note: skipping theta={th.M}/{th.N} for rep ({q},{r}): "
                          "gcd(N,q) != 1", file=sys.stderr)
                    continue
                yield make_weyl_context(th, q, r)


def cmd_gaps(cfg: RunConfig) -> int:
    for ctx in _iter_contexts(cfg):
        report = hofstadter_gap_report(ctx)     # exact edges: no grid
        if "json" in cfg.formats:
            _write_json(cfg.out / f"gaps_{_tag(ctx)}.json", asdict(report))
        if "csv" in cfg.formats:
            rows = ["g,lower,upper,d,fermi\n"]
            for gap in report.gaps:
                lower, upper = (fmt(x) if math.isfinite(x) else "" for x in (gap.lower, gap.upper))
                rows.append(f"{gap.g},{lower},{upper},{gap.d},{fmt(gap.fermi)}\n")
            _write_text(cfg.out / f"gaps_{_tag(ctx)}.csv", *rows)
        print(f"{ctx.label()}: {report.bands} bands, "
              f"{len(report.internal())} internal gaps")
    return EXIT_OK


def _each_certified(cfg: RunConfig, write) -> int:
    """`write(ctx, certs)` for each context whose certificates hold, a FAIL line for the rest."""
    status = EXIT_OK
    for ctx in _iter_contexts(cfg):
        try:
            certs = gap_certificates(ctx, cfg.grid)
        except NumericalFailure as exc:
            print(f"FAIL {ctx.label()}: {exc}")
            status = EXIT_VERIFICATION
            continue
        write(ctx, certs)
    return status


def cmd_labels(cfg: RunConfig) -> int:
    def write(ctx, certs):
        records = [cert["record"] for cert in certs]
        _write_json(cfg.out / f"labels_{_tag(ctx)}.json", [asdict(rec) for rec in records])
        print(f"{ctx.label()}  (g, d, t, s):")
        for rec in records:
            print(f"  g={rec.g} d={rec.d} t={rec.t} s={rec.s} "
                  f"fermi={fmt(rec.fermi)} residual={fmt(rec.residual)}")
    return _each_certified(cfg, write)


def cmd_chern(cfg: RunConfig) -> int:
    def write(ctx, certs):
        rows = []
        for cert in certs:
            t, cc, rec = cert["t"], cert["cc"], cert["record"]
            rows.append({"g": rec.g, "d": rec.d, "fermi": rec.fermi,
                         "t": asdict(t), "cc": asdict(cc),
                         **{key: cert[key] for key in ("ncint", "rhs", "rhs_residual",
                                                       "diophantine_ok", "duality_ok",
                                                       "solver_match")}})
            print(f"{ctx.label()} g={rec.g}: t={t.value} cc={cc.value} d={rec.d} "
                  f"(residuals {fmt(t.residual)}, {fmt(cc.residual)})")
        _write_json(cfg.out / f"chern_{_tag(ctx)}.json",
                    {"theta": {"M": ctx.M, "N": ctx.N}, "q": ctx.q, "r": ctx.r,
                     "grid": cfg.grid, "certificates": rows})
    return _each_certified(cfg, write)


def cmd_verify(cfg: RunConfig) -> int:
    status = EXIT_OK
    for ctx in _iter_contexts(cfg):
        results = run_invariant_suite(ctx, cfg.grid)
        _write_json(cfg.out / f"verify_{_tag(ctx)}.json", [asdict(r) for r in results])
        print(f"== {ctx.label()} (grid {cfg.grid}, tol {fmt(GAP_TOL)})")
        for r in results:
            mark = "ok  " if r.ok else "FAIL"
            extra = f" [{r.detail}]" if r.detail else ""
            print(f"  {mark} {r.name}: {r.value:.3g} (<= {r.threshold:.3g}){extra}")
            if not r.ok:
                status = EXIT_VERIFICATION
    return status


# -- entry point ----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, color: bool = False):
    p.add_argument("--theta", action="append", metavar="M/N",
                   help="deformation parameter, repeatable")
    p.add_argument("--farey", type=int, metavar="D",
                   help="sweep all reduced fractions with denominator <= D")
    p.add_argument("--rep", action="append", metavar="q,r",
                   help="representation twist pair, repeatable (default 1,0)")
    p.add_argument("--grid", type=int, metavar="G", help="k-grid size per axis (default 64)")
    p.add_argument("--out", metavar="DIR", help="output directory (default .)")
    p.add_argument("--format", action="append", choices=("csv", "json", "svg"),
                   help="output format, repeatable")
    p.add_argument("--config", metavar="FILE", help="flat key=value config file")
    if color:
        p.add_argument("--color-gaps", dest="color_gaps", action="store_true", default=None,
                       help="color gap regions by their integer t (svg only)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nctorus",
        description="Matrix-valued torus representations, flux spectra, "
                    "and quantized-conductance verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("butterfly", help="Farey sweep of spectra"), color=True)
    _add_common(sub.add_parser("gaps", help="gap report"))
    _add_common(sub.add_parser("labels", help="verified conductance records"))
    _add_common(sub.add_parser("chern", help="per-gap Chern certificates"))
    _add_common(sub.add_parser("verify", help="full invariant suite"))
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        worker_count()
        handler = {
            "butterfly": cmd_butterfly,
            "gaps": cmd_gaps,
            "labels": cmd_labels,
            "chern": cmd_chern,
            "verify": cmd_verify,
        }[args.command]
        return handler(cfg)
    except NumericalFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ConfigError, InvalidTwistError, DegenerateRepresentationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
