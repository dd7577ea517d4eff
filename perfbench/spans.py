"""Span tracer that wraps the package's public functions from outside.

`Tracer.install()` replaces each target with a wrapper that records a
span (id, parent id, name, start, end) and a few exact counts, then
`uninstall()` puts every original back.  Nothing in the package itself
is edited: a function is replaced under every name that any loaded
`nctorus` module binds it to (`chern`, `cli` and `suite` import
`bands_on_grid` and friends by name), and a method is replaced on its
class.  A target that does not exist in the code under test is listed in
`absent` and reports zeros.

Self time is a span's duration minus the union of its children's
intervals, so children that ran in parallel on worker threads are not
subtracted twice.  A span opened on a worker thread with nothing open on
that thread takes as parent the innermost span open on the main thread
(for the butterfly sweep that is `cli.main`, which owns the pool).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


def _count_bands(args, kwargs, result):
    G1, G2 = result.energies.shape[:2]
    return {"matrices": G1 * G2}, {}


def _count_flux(args, kwargs, result):
    frames = args[0] if args else kwargs["frames"]
    return ({"link_dets": 2 * frames.shape[0] * frames.shape[1]},
            {"frames_bytes_max": frames.nbytes})


def _count_certs(args, kwargs, result):
    return {"certs": len(result)}, {}


# (module, attribute path inside it, span name, count function or None)
TARGETS = [
    ("nctorus.representations", "evaluate_on_grid", "representations.evaluate_on_grid", None),
    ("nctorus.spectral", "bands_on_grid", "spectral.bands_on_grid", _count_bands),
    ("nctorus.spectral", "detect_gaps_refined", "spectral.detect_gaps_refined", None),
    ("nctorus.spectral", "ProjectorField.occupied_frames",
     "spectral.ProjectorField.occupied_frames", None),
    ("nctorus.spectral", "fermi_projector_field", "spectral.fermi_projector_field", None),
    ("nctorus.chern", "fhs_chern_twisted", "chern.fhs_chern_twisted", None),
    ("nctorus.chern", "fhs_chern", "chern.fhs_chern", None),
    ("nctorus.chern", "gap_certificates", "chern.gap_certificates", _count_certs),
    ("nctorus._kernels", "plaquette_flux_sum", "kernels.plaquette_flux_sum", _count_flux),
    ("nctorus.arithmetic", "tknn_solve", "arithmetic.tknn_solve", None),
    ("nctorus.algebra", "hofstadter_element", "algebra.hofstadter_element", None),
    ("nctorus.cli", "main", "cli.main", None),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a target, or None when it is absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    return None if original is None else (owner, parts[-1], original)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []                      # (sid, parent, name, t0, t1)
        self.counts = defaultdict(int)       # (span name, counter) -> exact sum
        self.maxima = defaultdict(int)       # (span name, counter) -> max
        self.absent = []
        self._patches = []                   # (owner, attribute, original)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name, counts, maxima):
        with self._lock:
            for key, v in counts.items():
                self.counts[(name, key)] += v
            for key, v in maxima.items():
                self.maxima[(name, key)] = max(self.maxima[(name, key)], v)

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1][0]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append((sid, name))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1))
            if count is not None:
                tracer._add(name, *count(args, kwargs, result))
            return result

        return wrapper

    def _eigh_counter(self, eigh):
        tracer = self

        @functools.wraps(eigh)
        def counted(a, *args, **kwargs):
            stack = tracer._stack()
            if stack:
                shape = np.shape(a)
                tracer._add(stack[-1][1], {"eigh_matrices": int(np.prod(shape[:-2]))}, {})
            return eigh(a, *args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every present target; call from the main thread."""
        self._main_stack = self._stack()
        found = [(path, name, count, _resolve(module_name, path))
                 for module_name, path, name, count in self.targets]
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "nctorus" or n.startswith("nctorus.")]
        for path, name, count, target in found:
            if target is None:
                self.absent.append(name)
                continue
            owner, attr, original = target
            wrapper = self._wrap(name, original, count)
            if "." in path:                  # a method: replace it on its class
                self._patch(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)
        self._patch(np.linalg, "eigh", self._eigh_counter(np.linalg.eigh))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> dict:
        """Per span name: calls, busy_s (summed durations) and self_s."""
        children = defaultdict(list)
        for sid, parent, name, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = {t[2]: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for t in self.targets}
        for sid, parent, name, t0, t1 in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - covered
        return out
