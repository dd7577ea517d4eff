"""One fresh benchmark process: set up, run one workload, check its outputs.

`run.py` starts this file; it is not meant to be run by hand.  The
process imports the package from the checkout's `src/` and builds the
workload's first context (the end of set-up).  With `--trace 0` it then
runs the workload once.  With `--trace 1` it runs the schedule U, T, T,
then U, T pairs until `--seconds` have passed, where U is an untraced
pass and T a pass with the span wrappers installed; the wrappers are
removed again after each T pass.  Every pass's outputs go through the
workload's gate.  The results are written as JSON to `--result`.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAST_START_S = 100.0     # no optional run starts once this much time has gone


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _schedule(trace: bool):
    if not trace:
        yield "U"
        return
    yield from ("U", "T", "T")
    while True:
        yield from ("U", "T")


def _layer_row(tracer, wall: float, bytes_written: int) -> dict:
    row = {}
    self_sum = 0.0
    for name, agg in tracer.aggregate().items():
        for key, value in agg.items():
            row[f"{name}.{key}"] = value
        self_sum += agg["self_s"]
    for (name, key), value in list(tracer.counts.items()) + list(tracer.maxima.items()):
        row[f"{name}.{key}"] = value
    row["cli.main.bytes_written"] = bytes_written if row["cli.main.calls"] else 0
    row["span_self_share"] = self_sum / wall
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--probe", action="store_true", help="set up, report, exit")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    # -- set-up: import the package and build the first context
    sys.path.insert(0, str(ROOT / "src"))
    import nctorus
    import nctorus.cli  # noqa: F401  (the CLI workloads start here)
    from nctorus.algebra import RationalTheta, hofstadter_element
    from nctorus.arithmetic import make_weyl_context
    from nctorus.representations import reference_fibered_rep

    import workloads

    wl = workloads.make(args.workload, args.tiny)
    (M, N), (q, r) = wl.first_context()
    ctx = make_weyl_context(RationalTheta(M, N), q, r)
    hofstadter_element(ctx.theta)
    reference_fibered_rep(ctx)
    setup_s = time.monotonic() - args.spawned_at

    if not Path(nctorus.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: nctorus imported from {nctorus.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    result_path = Path(args.result)
    if args.probe:
        result_path.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    from spans import Tracer

    expected = json.loads((HERE / "expected.json").read_text())[wl.table_key]
    n_checks = wl.n_checks(expected)
    workdir = HERE / "out" / "work" / wl.table_key
    rng = random.Random(args.seed)
    peak_rss_mb = None
    runs = []
    started = time.perf_counter()
    for mode in _schedule(bool(args.trace)):
        elapsed = time.perf_counter() - started
        pair_done = len(runs) >= 3 and runs[-1]["mode"] == "T"
        if pair_done and (elapsed >= args.seconds
                          or elapsed + runs[-1]["wall_s"] > LAST_START_S):
            break
        workloads.reset_dir(workdir)
        tracer = Tracer() if mode == "T" else None
        error = None
        out = None
        if tracer:
            tracer.install()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            out = wl.run(rng, workdir)
        except Exception:
            error = traceback.format_exc()
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
            if tracer:
                tracer.uninstall()
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if error is not None:
            print(error, file=sys.stderr)
            attempted, failures = n_checks, ["exception in the workload"] * n_checks
        else:
            try:
                attempted, failures = wl.check(wl.summarize(out, workdir), expected)
            except Exception as exc:    # a missing or malformed artifact fails every check
                print(traceback.format_exc(), file=sys.stderr)
                attempted, failures = n_checks, [f"outputs unreadable: {exc!r}"] * n_checks
        bytes_written = workloads.dir_bytes(workdir)
        run = {"mode": mode, "wall_s": wall, "cpu_s": cpu, "attempted": attempted,
               "failed": len(failures), "failures": failures[:10],
               "bytes_written": bytes_written}
        if tracer:
            run["layer"] = _layer_row(tracer, wall, bytes_written)
            run["absent"] = tracer.absent
        runs.append(run)

    result_path.write_text(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                                       "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
