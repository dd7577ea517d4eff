"""Run thirty-three fixed CLI commands under two source trees and diff what they emit.

    python3 tests/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `nctorus` package,
such as `src` of two checkouts.  Each command runs as `python -m nctorus`
with that tree first on PYTHONPATH and NCTORUS_THREADS=2, in a fresh
working directory, writing its files under `out/`.  The script compares
the exit code, stdout, stderr and the bytes of every written file, prints
one line per command and then the line count of each tree's
`nctorus/*.py`, and exits 1 when any command's output differs, 0 otherwise.
Each command's line ends with the child's peak RSS on both trees
(`ru_maxrss` from `os.wait4`, in MB of 1024 KB): for information only, it
does not enter the exit status.  Linux carries a process's peak RSS over
`exec`, so a child's reads at least the script's own peak when it was
started: the script keeps the written files on disk and compares them
there, and reads a file whole only when it differs.
A JSON file that differs is also parsed on both sides: the line says
whether every non-float value (integer, bool, string, null, key and list
length) matches, gives the largest difference between two floats, and
names the records that hold a float that moved: the `name` of the nearest
enclosing object that has one (a verify row), or else the float's JSON
path, such as `$[0].gaps[3].t_raw`.
A CSV file, stdout or stderr that differs is compared line by line: the
line says whether the line count and every non-float token match, how
many lines differ, and the largest difference between two float tokens.
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ("gaps", "--theta", "1/4", "--theta", "8/9", "--format", "json", "--format", "csv"),
    ("gaps", "--farey", "5", "--rep", "2,1", "--format", "json", "--format", "csv"),
    ("chern", "--theta", "8/13", "--rep", "2,1", "--grid", "64"),
    ("chern", "--theta", "13/21", "--grid", "64"),
    ("chern", "--theta", "1/3", "--rep", "2,1", "--grid", "16"),
    ("chern", "--theta", "5/8", "--rep", "3,-2", "--grid", "24"),
    ("chern", "--theta", "0/1", "--grid", "8"),
    ("labels", "--theta", "3/7", "--rep", "3,2", "--grid", "32"),
    ("labels", "--farey", "4", "--rep", "2,1", "--grid", "16"),
    ("verify", "--theta", "1/3", "--rep", "2,1", "--grid", "32"),
    ("verify", "--theta", "3/7", "--rep", "3,2", "--grid", "6"),
    ("verify", "--theta", "0/1", "--grid", "12"),
    ("verify", "--theta", "13/21", "--grid", "32"),
    ("verify", "--theta", "13/21", "--grid", "64"),
    ("verify", "--theta", "2/5", "--rep", "3,2", "--grid", "12"),
    ("butterfly", "--farey", "6", "--grid", "32",
     "--format", "csv", "--format", "svg", "--color-gaps"),
    ("butterfly", "--farey", "10", "--grid", "48", "--format", "csv", "--format", "svg"),
    # repeated flags and an explicit theta inside the Farey sweep: context order and
    # deduplication across the subcommands
    ("butterfly", "--theta", "2/7", "--theta", "2/7", "--farey", "3", "--rep", "2,1",
     "--grid", "8", "--format", "csv", "--format", "svg"),
    ("labels", "--theta", "2/7", "--theta", "2/7", "--farey", "3", "--rep", "2,1",
     "--grid", "8"),
    # odd grids: the flux kernel closes a k1-mirrored grid through its middle plaquette row
    ("chern", "--theta", "8/13", "--rep", "2,1", "--grid", "15"),
    ("chern", "--theta", "5/8", "--rep", "3,-2", "--grid", "33"),
    ("labels", "--theta", "3/7", "--rep", "3,2", "--grid", "15"),
    ("verify", "--theta", "2/5", "--rep", "3,1", "--grid", "9"),
    # the pullback lemma's wrong-integer FAIL row: 3/8 (3,1) at G = 4 reads 8
    ("verify", "--theta", "3/8", "--rep", "3,1", "--grid", "4"),
    # gcd(M0, G) = 4 (M0 = -4): every weyl point reads a cell of every fourth column
    ("chern", "--theta", "2/5", "--rep", "3,2", "--grid", "16"),
    # odd butterfly grids: the CSV's own pass (its fine grid is 16), and the
    # certificates of an odd grid beside the same CSV
    ("butterfly", "--farey", "5", "--grid", "15", "--format", "csv", "--format", "svg"),
    ("butterfly", "--farey", "5", "--grid", "15", "--format", "csv", "--format", "svg",
     "--color-gaps"),
    # q/G = 1/2: weyl seam plaquettes on the +-pi branch cut, a typed failure
    ("chern", "--theta", "1/5", "--rep", "3,1", "--grid", "6"),
    # and at theta = r/q, where t is read off the same weyl seam
    ("chern", "--theta", "0/1", "--grid", "2"),
    # gaps 2 and 21 are 1.86e-8 wide: their midpoints must clear FERMI_TOL
    ("chern", "--theta", "2/25", "--grid", "32"),
    # verify's largest isospectrality pass, in blocks of k1 rows: the RSS column
    ("verify", "--theta", "21/34", "--grid", "64"),
    # the largest orbit table of the list, 289 frames of 55 x 55: the RSS column
    ("chern", "--theta", "34/55", "--grid", "64"),
    # a colored sweep away from rep (1,0): its CSV is the uncolored one
    ("butterfly", "--farey", "4", "--grid", "12", "--rep", "2,1", "--format", "csv",
     "--format", "svg", "--color-gaps"),
)


def run(src: Path, argv, cwd: Path) -> dict:
    """{"exit", "stdout", "stderr", "files", "rss_mb"} of one command under the tree `src`.

    The command runs in `cwd`; files maps each written file's name to its
    path there.  stdout and stderr go to files, so that the child can be
    reaped by `os.wait4`, which also reports its peak RSS.
    """
    env = dict(os.environ, PYTHONPATH=str(src), NCTORUS_THREADS="2")
    streams = cwd / "stdout", cwd / "stderr"
    with open(streams[0], "wb") as stdout, open(streams[1], "wb") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "nctorus", *argv, "--out", "out"],
                                cwd=cwd, env=env, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = cwd / "out"
    return {"exit": proc.returncode, "stdout": streams[0].read_bytes(),
            "stderr": streams[1].read_bytes(),
            "files": {str(p.relative_to(out)): p for p in sorted(out.rglob("*")) if p.is_file()},
            "rss_mb": usage.ru_maxrss / 1024.0}


def differences(old: dict, new: dict) -> list:
    """What differs between two runs, as short descriptions.

    Written files are compared on disk and read whole only when they differ.
    """
    diffs = ["exit"] if old["exit"] != new["exit"] else []
    diffs += [key + lines_summary(old[key], new[key])
              for key in ("stdout", "stderr") if old[key] != new[key]]
    for name in sorted(set(old["files"]) | set(new["files"])):
        if name not in old["files"] or name not in new["files"]:
            diffs.append(f"{name} written by one tree only")
        elif not filecmp.cmp(old["files"][name], new["files"][name], shallow=False):
            summary = SUMMARIES.get(Path(name).suffix, lambda a, b: "")
            diffs.append(f"{name} differs" + summary(old["files"][name].read_bytes(),
                                                     new["files"][name].read_bytes()))
    return diffs


def json_summary(old: bytes, new: bytes) -> str:
    """How two JSON documents differ: in floats only or not, the largest float change, and where.

    A moved float is named by its record: the `name` of the nearest
    enclosing object that has a string one, or else its JSON path.
    """
    try:
        a, b = json.loads(old), json.loads(new)
    except ValueError:
        return ""
    floats, moved = [], {}      # moved: an ordered set of record names

    # lists, not generators, inside all(): every float is visited after a mismatch too
    def same(x, y, path, record=None) -> bool:
        if isinstance(x, float) and isinstance(y, float):
            floats.append(abs(x - y))
            if x != y:
                moved[record or path] = None
            return True
        if isinstance(x, dict) and isinstance(y, dict):
            record = x["name"] if isinstance(x.get("name"), str) else record
            return x.keys() == y.keys() and all([same(x[k], y[k], f"{path}.{k}", record)
                                                 for k in x])
        if isinstance(x, list) and isinstance(y, list):
            return len(x) == len(y) and all([same(u, v, f"{path}[{i}]", record)
                                             for i, (u, v) in enumerate(zip(x, y))])
        return type(x) is type(y) and x == y

    verdict = "every non-float value matches" if same(a, b, "$") else "non-float values differ"
    where = f", floats moved in {', '.join(moved)}" if moved else ""
    return f" ({verdict}, largest float difference {max(floats, default=0.0):.3g}{where})"


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def lines_summary(old: bytes, new: bytes) -> str:
    """How two texts differ: in float tokens only or not, lines that differ, largest change.

    Each line is split into numbers and the text between them.  Two
    differing numbers differ as floats unless both are integer literals
    (a band index, a Chern number or a theta is one).
    """
    a, b = old.decode().splitlines(), new.decode().splitlines()
    same = len(a) == len(b)
    floats = []
    lines = abs(len(a) - len(b))
    for x, y in zip(a, b):
        if x == y:
            continue
        lines += 1
        tx, ty = NUMBER.split(x), NUMBER.split(y)
        same = same and len(tx) == len(ty)
        # split() alternates text (even indices) and numbers (odd indices)
        for k, (u, v) in enumerate(zip(tx, ty)):
            if u == v:
                continue
            if k % 2 == 0 or (_is_int(u) and _is_int(v)):
                same = False
            else:
                floats.append(abs(float(u) - float(v)))
    verdict = ("line count and every non-float token match" if same
               else "line count or non-float tokens differ")
    return (f" ({verdict}, {lines} of {max(len(a), len(b))} lines differ, "
            f"largest float difference {max(floats, default=0.0):.3g})")


def _is_int(text: str) -> bool:
    return text.lstrip("-+").isdigit()


SUMMARIES = {".json": json_summary, ".csv": lines_summary}


def line_count(src: Path) -> int:
    """Lines in the package modules `nctorus/*.py` of the tree `src`."""
    return sum(len(p.read_bytes().splitlines()) for p in (src / "nctorus").glob("*.py"))


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tests/compare_cli.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in argv)
    failed = 0
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as old_cwd, tempfile.TemporaryDirectory() as new_cwd:
            old = run(old_src, command, Path(old_cwd))
            new = run(new_src, command, Path(new_cwd))
            diffs = differences(old, new)
        failed += bool(diffs)
        status = "DIFFERS: " + "; ".join(diffs) if diffs else (
            f"identical (exit {new['exit']}, {len(new['files'])} files)")
        rss = f"peak RSS {old['rss_mb']:.1f} -> {new['rss_mb']:.1f} MB"
        print(f"{' '.join(command)}: {status}; {rss}", flush=True)
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} runs byte-identical")
    print(f"nctorus/*.py: {line_count(old_src)} lines -> {line_count(new_src)} lines")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
