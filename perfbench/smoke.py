"""Smoke check of the benchmark itself; finishes in well under a minute.

    python3 perfbench/smoke.py

1. Runs every workload in its tiny size through `run.py`, traced and
   untraced, and confirms that the last line is the result object, that
   it names exactly the metrics of `BENCHMARK.json`, and that the gate
   passed.
2. Checks that the tracer wraps a function under every name the package
   binds it to, restores every original, and lists a missing target as
   absent instead of failing.
3. Shows that the gate catches tampering: a changed certificate integer,
   a certificate flag turned false, a changed chern JSON, a truncated
   spectrum CSV and a truncated SVG each fail checks, while the untouched
   outputs pass.
4. Copies only `BENCHMARK.json` and `perfbench/` into an empty directory
   and confirms that `run.py` exits non-zero there without a result.
Exit code 0 when every step passes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "smoke"


class Smoke:
    def __init__(self):
        self.failed = 0

    def expect(self, ok: bool, what: str):
        print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
        self.failed += not ok


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_emitted(smoke: Smoke, spec: dict):
    for workload in ("certify_small", "chern_large_n", "butterfly_sweep"):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            what = f"{workload} trace={trace}"
            if proc.returncode != 0:
                smoke.expect(False, f"{what}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            names = [m["name"] for m in spec[section]]
            units = {m["name"]: m["unit"] for m in spec[section]}
            metrics = result["metrics"]
            smoke.expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                         f"{what}: result keys")
            smoke.expect(sorted(metrics) == sorted(names)
                         and all(metrics[n]["unit"] == units[n] for n in names)
                         and all(math.isfinite(metrics[n]["value"]) for n in names),
                         f"{what}: all {len(names)} {section} metrics emitted with units")
            if trace == 0:
                smoke.expect(all(metrics[n]["value"] > 0 for n in names),
                             f"{what}: end-to-end metrics are positive")
            smoke.expect(result["correct"] and result["failed"] == 0
                         and result["attempted"] >= 1,
                         f"{what}: gate passed {result['attempted']} checks")


def quiet_run(wl, rng, workdir: Path):
    """Run a workload in-process without the CLI's progress lines."""
    with contextlib.redirect_stdout(io.StringIO()):
        return wl.run(rng, workdir)


def check_gate(smoke: Smoke):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    tables = json.loads((HERE / "expected.json").read_text())

    wl = workloads.make("certify_small", tiny=True)
    exp = tables[wl.table_key]
    summary = wl.summarize(quiet_run(wl, random.Random(0), OUT), OUT)
    smoke.expect(wl.check(summary, exp)[1] == [], "certify: untouched certificates pass")
    key = next(iter(summary))
    bad = copy.deepcopy(summary)
    bad[key][1]["t"] += 1
    smoke.expect(len(wl.check(bad, exp)[1]) == 1, "certify: a changed t fails one check")
    bad = copy.deepcopy(summary)
    bad[key][0]["duality_ok"] = False
    smoke.expect(len(wl.check(bad, exp)[1]) == 1, "certify: a false duality flag fails")

    wl = workloads.make("chern_large_n", tiny=True)
    exp = tables[wl.table_key]
    workdir = workloads.reset_dir(OUT / "chern")
    code = quiet_run(wl, None, workdir)
    smoke.expect(wl.check(wl.summarize(code, workdir), exp)[1] == [],
                 "chern: untouched JSON passes")
    path = wl.output_path(workdir)
    payload = json.loads(path.read_text())
    payload["certificates"][2]["cc"]["value"] += 1
    path.write_text(json.dumps(payload))
    smoke.expect(len(wl.check(wl.summarize(code, workdir), exp)[1]) == 1,
                 "chern: a tampered certificate in the JSON fails one check")

    wl = workloads.make("butterfly_sweep", tiny=True)
    exp = tables[wl.table_key]
    workdir = workloads.reset_dir(OUT / "butterfly")
    code = quiet_run(wl, None, workdir)
    smoke.expect(wl.check(wl.summarize(code, workdir), exp)[1] == [],
                 "butterfly: untouched CSV and SVG pass")
    csv = workdir / "spectrum_q1r0.csv"
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[: len(lines) * 9 // 10]))
    failures = wl.check(wl.summarize(code, workdir), exp)[1]
    smoke.expect(any(f.startswith("csv:") for f in failures)
                 and any(f.startswith("csv theta=") for f in failures),
                 f"butterfly: a truncated CSV fails {len(failures)} checks")
    code = quiet_run(wl, None, workloads.reset_dir(workdir))
    svg = workdir / "butterfly_q1r0.svg"
    svg.write_text(svg.read_text()[: svg.stat().st_size // 2])
    failures = wl.check(wl.summarize(code, workdir), exp)[1]
    smoke.expect(any(f.startswith("svg") for f in failures),
                 f"butterfly: a truncated SVG fails {len(failures)} checks")


def check_tracer(smoke: Smoke):
    sys.path.insert(0, str(ROOT / "src"))
    import nctorus.cli
    import nctorus.suite
    from nctorus import chern
    import spans

    original = chern.gap_certificates
    missing = ("nctorus._kernels", "no_such_kernel", "kernels.no_such_kernel", None)
    tracer = spans.Tracer(spans.TARGETS + [missing])
    tracer.install()
    try:
        wrapped = [m.gap_certificates is not original for m in (chern, nctorus.cli, nctorus.suite)]
    finally:
        tracer.uninstall()
    smoke.expect(all(wrapped), "tracer: gap_certificates wrapped in chern, cli and suite")
    smoke.expect(all(m.gap_certificates is original for m in (chern, nctorus.cli, nctorus.suite)),
                 "tracer: originals restored by uninstall")
    smoke.expect(tracer.absent == ["kernels.no_such_kernel"],
                 "tracer: a missing target is reported as absent")


def check_bare_directory(smoke: Smoke):
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(bare, "certify_small", 0)
    smoke.expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
                 f"without src/ the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    smoke = Smoke()
    OUT.mkdir(parents=True, exist_ok=True)
    check_emitted(smoke, spec)
    check_tracer(smoke)
    check_gate(smoke)
    check_bare_directory(smoke)
    print(f"{smoke.failed} failed")
    return 1 if smoke.failed else 0


if __name__ == "__main__":
    sys.exit(main())
