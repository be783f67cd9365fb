"""Run one starklab CLI command with its layer functions wrapped in spans.

    python3 perfbench/tracer.py TRACE.json COMMAND --config PATH

The functions in TARGETS are replaced, in this process only, by wrappers
that record a span per call: in their defining module, and in every other
starklab module that imported them by name (``experiments`` and ``cli``
call most of them that way).  Then ``starklab.cli.main`` runs in this
process exactly as the console script would, and the spans are written to
TRACE.json when it returns.  Nothing under ``src/`` changes.

A span is {name, parent, start, end, excluded, counts}: ``parent`` is the
index of the enclosing span (-1 at the top), ``excluded`` is time spent
inside the span on the tracer's own measurements (the bare-eigh floor, file
sizes), and ``counts`` holds per-call counters.  Self time is computed by
the harness from these.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

# module -> public functions whose calls are timed; "Class.method" names a
# method.  Helpers they call (ladder anchors, centers, CSV rows) stay
# inside the caller's self time.
TARGETS = {
    "operators": ("build_operator", "PotentialSpec.perturbation_values"),
    "kernels": ("weighted_norm",),
    "spectra": ("diagonalize", "save_spectral", "load_spectral"),
    "localization": ("check_eigenvalue_asymptotics",
                     "uniform_decay_constants", "bootstrap_decay_check"),
    "dynamics": ("moment_series", "envelope", "moment_bound_verdict"),
    "_format": ("write_csv", "write_json"),
    "experiments": ("run", "load_config"),
    "cli": ("main",),
}


def span_name(module: str, qualname: str) -> str:
    """Metric prefix of a target, e.g. ``format.write_csv``."""
    return f"{module.lstrip('_')}.{qualname.rpartition('.')[2]}"


def _eigh_floor(counts, result, op, *args, **kwargs):
    start = time.perf_counter()
    np.linalg.eigh(op.matrix)
    counts["eigh_floor_s"] = time.perf_counter() - start


def _saved_bytes(counts, result, *args, **kwargs):
    counts["bytes"] = sum(os.path.getsize(path) for path in result)


def _loaded_bytes(counts, result, base_path, *args, **kwargs):
    counts["bytes"] = (os.path.getsize(f"{base_path}.json")
                       + os.path.getsize(f"{base_path}.bin"))


def _sites_checked(counts, result, *args, **kwargs):
    counts["sites_checked"] = int(result.n_checked)


def _samples(counts, result, *args, **kwargs):
    counts["samples"] = int(result.times.size)


MEASURES = {
    "spectra.diagonalize": _eigh_floor,
    "spectra.save_spectral": _saved_bytes,
    "spectra.load_spectral": _loaded_bytes,
    "localization.bootstrap_decay_check": _sites_checked,
    "dynamics.moment_series": _samples,
}


class Tracer:
    """Keeps every span in memory until the traced command ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.excluded = 0.0
        self._open: list[int] = []

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name,
                    "parent": self._open[-1] if self._open else -1,
                    "counts": {}}
            self._open.append(len(self.spans))
            self.spans.append(span)
            excluded_before = self.excluded
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                span["excluded"] = self.excluded - excluded_before
            if measure is not None:
                # after the span ends, so only enclosing spans exclude it
                start = time.perf_counter()
                measure(span["counts"], result, *args, **kwargs)
                self.excluded += time.perf_counter() - start
            return result
        return traced

    def install(self) -> None:
        import starklab.cli  # noqa: F401 - loads every starklab module

        modules = [m for n, m in sys.modules.items()
                   if n == "starklab" or n.startswith("starklab.")]
        for module_name, qualnames in TARGETS.items():
            module = sys.modules[f"starklab.{module_name}"]
            for qualname in qualnames:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                name = span_name(module_name, qualname)
                traced = self.wrap(name, original, MEASURES.get(name))
                setattr(owner, attr, traced)
                if owner_name:
                    continue
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, traced)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import starklab.cli

    try:
        return starklab.cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "excluded_s": tracer.excluded},
                      fh)


if __name__ == "__main__":
    sys.exit(main())
