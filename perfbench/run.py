"""Pipeline benchmark for nctorus: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload certify_small --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` (nothing needs installing) and the command fails with exit code 2
when `src/nctorus` is missing.  Workloads (all deterministic; `--seed`
only permutes the order in which certify_small processes its contexts,
and the gate requires the same answers in every order):

    certify_small    chern.gap_certificates(ctx, G=64) over the 14 valid
                     (theta, rep) pairs of acceptance criterion 02: 88 certificates
    chern_large_n    nctorus chern --theta 8/13 --rep 2,1 --grid 64 (cli.main)
    butterfly_sweep  nctorus butterfly --farey 10 --grid 48 --format csv --format svg

Each run starts a few set-up probes and then fresh worker processes
(`worker.py`) with pinned thread counts.  Untraced, every worker runs the
workload once, and workers are started until `--seconds` have passed and
the workload's minimum number of passes is reached.  Traced, a single worker alternates untraced and traced
passes for `--seconds` (see `worker.py`).  Every pass's outputs are
checked against `expected.json`.

With `--trace 0` the last stdout line reports the end-to-end metrics:

    wall_s       median wall time of one pass of the workload
    cpu_s        median user+sys CPU time of one pass (all threads)
    peak_rss_mb  median ru_maxrss of the workers, each of which ran one pass
    setup_s      median, over the probes and the workers, of the time from
                 process start to `import nctorus` done and the first
                 context built

With `--trace 1` the worker alternates untraced and traced runs, and the
last line reports the per-layer metrics of `BENCHMARK.json`: span calls,
busy time (summed across threads), self time and exact counts per
wrapped function (see `spans.py`), `span_self_share` (sum of all span
self times over the traced wall time) and `tracing_overhead_s` (traced
minus untraced median wall time).  The exact counts must repeat between
the traced runs; a mismatch is a failed check.

`attempted`/`failed` count gate checks: one per certificate on the
certify workloads, per-theta and whole-file artifact checks on the
butterfly sweep; the failure ratio is printed on its own line.  Both
modes also merge their figures, with provenance, into
`perfbench/out/<workload>.json`.

`--tiny` runs a seconds-long version of each workload (used by
`smoke.py`).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
DEADLINE_S = 170.0
MARGIN_S = 20.0       # left free below the deadline when planning another pass
EXACT_COUNTS = ("calls", "matrices", "link_dets", "certs", "bytes_written",
                "frames_bytes_max", "eigh_matrices")


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(threads: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nctorus").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "threads": threads,
    }


def pinned_env() -> tuple:
    """Environment for the worker with every thread pool set explicitly."""
    nproc = len(os.sched_getaffinity(0))
    threads = {"NCTORUS_THREADS": str(min(2, nproc)), "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env = dict(os.environ)
    env.update(threads)
    return env, threads


def spawn(args: list, env: dict, result: Path, timeout: float) -> dict:
    """Run worker.py to completion; its JSON result, or None on any failure."""
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--result", str(result), "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.is_file():
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def exact_counts(row: dict) -> dict:
    return {k: v for k, v in row.items() if k.rsplit(".", 1)[-1] in EXACT_COUNTS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="seconds-long workload sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nctorus" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'nctorus'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()
    env, threads = pinned_env()
    prov = provenance(threads)
    table_key = args.workload + ("_tiny" if args.tiny else "")
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    scratch = outdir / f"{table_key}.result.json"
    base = ["--workload", args.workload] + (["--tiny"] if args.tiny else [])

    setup = []
    for _ in range(SETUP_PROBES):
        probe = spawn(base + ["--probe"], env, scratch, 30.0)
        if probe is None:
            return 1
        setup.append(probe["setup_s"])

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    workers = []
    if args.trace:
        res = spawn(base + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", "1"], env, scratch, remaining())
        workers.append(res)
    else:
        # one fresh process per pass, so every sample (peak RSS too) comes
        # from a process that ran only this workload once
        rng = random.Random(args.seed)
        min_passes = workloads.WORKLOADS[args.workload].min_passes
        measuring = time.monotonic()
        while True:
            res = spawn(base + ["--seed", str(rng.randrange(2**31)), "--trace", "0"],
                        env, scratch, remaining())
            workers.append(res)
            elapsed = time.monotonic() - measuring
            if (res is None or (elapsed >= args.seconds and len(workers) >= min_passes)
                    or elapsed / len(workers) > remaining() - MARGIN_S):
                break
    scratch.unlink(missing_ok=True)
    if None in workers:
        return 1
    setup += [w["setup_s"] for w in workers]

    runs = [r for w in workers for r in w["runs"]]
    untraced = [r for r in runs if r["mode"] == "U"]
    traced = [r for r in runs if r["mode"] == "T"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]

    walls = [r["wall_s"] for r in untraced]
    samples = {"wall_s": walls, "cpu_s": [r["cpu_s"] for r in untraced],
               "peak_rss_mb": [w["peak_rss_mb"] for w in workers], "setup_s": setup}
    if args.trace:
        rows = [r["layer"] for r in traced]
        attempted += len(rows) - 1
        if any(exact_counts(row) != exact_counts(rows[0]) for row in rows[1:]):
            failed += 1
            failures.append("exact counts differ between traced runs")
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layer = {k: statistics.median(row.get(k, 0) for row in rows)
                 for k in sorted(set().union(*rows))}
        layer.update(exact_counts(rows[0]))
        layer["tracing_overhead_s"] = traced_wall - statistics.median(walls)
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = {n: layer.get(n, 0) for n, _ in names}
        section = {"per_layer": layer, "traced_wall_s": traced_wall,
                   "absent_spans": traced[0]["absent"]}
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = {n: statistics.median(samples[n]) for n, _ in names}
        section = {"end_to_end": {n: {"median": values[n], "q1_q3": quartiles(samples[n])[::2],
                                      "samples": samples[n]} for n, _ in names}}

    print(f"nctorus pipeline benchmark: workload={table_key} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for n, unit in names:
        line = f"  {n:<54} {values[n]:.10g} {unit}"
        if n in samples:
            q1, _, q3 = quartiles(samples[n])
            line += f"  (q1 {q1:.10g}, q3 {q3:.10g}, n={len(samples[n])})"
        print(line)
    if args.trace and section["absent_spans"]:
        print("  absent spans (reported as 0): " + ", ".join(section["absent_spans"]))
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for f in failures[:10]:
        print(f"  FAILED: {f}")

    record_path = outdir / f"{table_key}.json"
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    record.update(section)
    record.update(workload=table_key, provenance=prov)
    record[f"trace{args.trace}"] = {"seed": args.seed, "seconds": args.seconds,
                                    "attempted": attempted, "failed": failed,
                                    "fail_ratio": failed / attempted, "passes": len(runs)}
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": u} for n, u in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
