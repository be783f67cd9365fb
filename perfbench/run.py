#!/usr/bin/env python3
"""Benchmark of the starklab command line on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload powerlaw-study --seed 1 --seconds 35 --trace 0

Each workload is a fixed config plus one or two CLI commands.  The seed
becomes the config's ``seed``, which the uniform disorder inherits; it
reaches the program only through the generated config.  One rep runs the
workload's commands, each in a fresh ``python3 -m starklab.cli`` process
(the way the console script runs) with the BLAS thread count pinned to at
most ``nproc``.  Reps repeat in a closed loop, one after the other, until
``--seconds`` is spent (at least one rep).

``--trace 0`` reports the end-to-end metrics:

    wall_s         median wall time of one rep (its commands, end to end)
    peak_rss_mb    median over reps of the largest child ru_maxrss
    setup_s        median of SETUP_RUNS fresh interpreters doing
                   ``import starklab`` plus ``load_config`` of the config
    output_mb      bytes in the output directory after a rep, in MB
    success_share  1 - error_share: commands that passed over attempted

``--trace 1`` alternates untraced reps with traced ones, which run each
command through ``perfbench/tracer.py`` and report per-layer self times
and counts (medians over traced reps), the traced wall and the tracing
overhead (traced wall minus untraced median).

A command fails on a nonzero exit, on a required stage that did not end
``ok``/``reused``, or on an output fingerprint outside tolerance: against
the run's first rep, against ``reference.json`` at the default seed, and
against the trace and Frobenius norm of the operator (any seed).  The
JSON object on the last line of standard output carries ``attempted`` and
``failed`` (error_share = failed / attempted); the line before it records
the environment, the samples and the checks.

``--quick`` runs every workload at N <= 200 with a short time grid, for
the smoke test.  ``--record-reference`` rewrites ``reference.json`` from
one rep of every workload, full and quick, at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import fingerprint
from tracer import TARGETS, span_name

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
TRACER_PATH = os.path.join(BENCH_DIR, "tracer.py")
WORK_DIR = ".perfbench-work"
DEFAULT_SEED = 1
BLAS_THREADS = 2           # pinned for every child, capped at nproc
SETUP_RUNS = 9
HARD_LIMIT_S = 165.0       # a run never outlives this, whatever --seconds says
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

_POWER_LAW = {"family": "power_law", "exponent": 4.0}
_LOCALIZATION = {"asymptotics": True, "decay": {"alphas": [2.0, 3.0]},
                 "bootstrap": {}}
_QUICK_GRID = {"dt": 0.5, "t_max": 100.0, "quasi_random": 20,
               "far_horizon": 1e6}


def _disorder(amplitude: float) -> dict:
    return {"slope": 1.0, "perturbation": {"kind": "uniform_random",
                                           "amplitude": amplitude}}


# name -> config (without seed and output), quick half_widths, commands.
# A command is (subcommand, stages that must end ok/reused, fingerprint
# parts its outputs carry).
WORKLOADS = {
    "powerlaw-study": {
        "config": {"kernel": _POWER_LAW, "potential": _disorder(0.5),
                   "half_widths": [500, 1000], "analyses": _LOCALIZATION},
        "quick_half_widths": [60, 120],
        "commands": [("study", ("spectrum", "asymptotics", "ule",
                                "bootstrap", "study"),
                      ("eigenvalues", "decay", "bootstrap"))],
    },
    "nn-spectrum-report": {
        "config": {"kernel": {"family": "nearest_neighbor", "amplitude": 1.0},
                   "potential": _disorder(2.0),
                   "half_widths": [700, 1400], "analyses": _LOCALIZATION},
        "quick_half_widths": [100, 200],
        "commands": [("spectrum", ("spectrum",), ("eigenvalues",)),
                     ("report", ("spectrum", "asymptotics", "ule",
                                 "bootstrap"), ("decay", "bootstrap"))],
    },
    "dynamics-long-grid": {
        "config": {"kernel": _POWER_LAW, "potential": _disorder(0.5),
                   "half_widths": [200, 400],
                   "analyses": {"decay": {"alphas": [3.0]},
                                "dynamics": {"sources": [0],
                                             "moments": [2.0, 2.5]}}},
        "quick_half_widths": [50, 100],
        "commands": [("evolve", ("spectrum", "dynamics"),
                      ("eigenvalues", "moments", "envelope"))],
    },
}

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "output_mb": "MB", "success_share": "ratio"}

# per-layer metrics: (metric, span name, field of the span summary, unit)
_TIMED = [span_name(module, qualname)
          for module, qualnames in TARGETS.items() for qualname in qualnames]
SPAN_METRICS = [(f"{span}.self_s", span, "self_s", "s") for span in _TIMED] + [
    ("spectra.diagonalize.eigh_floor_s", "spectra.diagonalize",
     "eigh_floor_s", "s"),
    ("localization.bootstrap_decay_check.sites_checked",
     "localization.bootstrap_decay_check", "sites_checked", "count"),
    ("localization.uniform_decay_constants.calls",
     "localization.uniform_decay_constants", "calls", "count"),
    ("spectra.save_spectral.bytes", "spectra.save_spectral", "bytes",
     "bytes"),
    ("spectra.load_spectral.bytes", "spectra.load_spectral", "bytes",
     "bytes"),
    ("dynamics.moment_series.samples", "dynamics.moment_series", "samples",
     "count"),
    ("dynamics.envelope.calls", "dynamics.envelope", "calls", "count"),
    ("operators.perturbation_values.calls", "operators.perturbation_values",
     "calls", "count"),
    ("kernels.weighted_norm.calls", "kernels.weighted_norm", "calls",
     "count"),
]
LAYERS = tuple(module.lstrip("_") for module in TARGETS)
# cli.process_s: interpreter start, imports and exit around cli.main, so
# the function self times plus cli.process_s add up to trace.wall_s
TRACE_METRICS = {"cli.process_s": "s", "trace.wall_s": "s",
                 "trace.overhead_s": "s",
                 **{f"layer.{layer}.self_s": "s" for layer in LAYERS}}


class BenchError(Exception):
    """The benchmark itself cannot run here."""


def workload_config(name: str, seed: int, quick: bool) -> dict:
    spec = WORKLOADS[name]
    config = json.loads(json.dumps(spec["config"]))
    config["seed"] = seed
    config["output"] = {"directory": "out"}
    if quick:
        config["half_widths"] = list(spec["quick_half_widths"])
        dynamics = config["analyses"].get("dynamics")
        if dynamics is not None:
            dynamics["grid"] = dict(_QUICK_GRID)
    return config


def reference_key(name: str, quick: bool) -> str:
    return f"{name}/quick" if quick else name


def summarize_spans(spans: list) -> tuple[dict, float]:
    """Per-name self time, calls and counters; and the top-level time."""
    dur = [s["end"] - s["start"] - s["excluded"] for s in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            child[span["parent"]] += dur[i]
    out: dict = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(span["name"], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += dur[i] - child[i]
        entry["calls"] += 1
        for key, value in span["counts"].items():
            entry[key] = entry.get(key, 0) + value
    top = sum(d for d, span in zip(dur, spans) if span["parent"] < 0)
    return out, top


class Session:
    """One benchmark run: a work directory, a pinned child environment and
    the tally of attempted and failed commands."""

    def __init__(self, root: str, name: str, seed: int, quick: bool,
                 reference: dict | None):
        self.seed = seed
        self.commands = WORKLOADS[name]["commands"]
        self.config = workload_config(name, seed, quick)
        self.start = time.perf_counter()
        self.work = os.path.join(root, WORK_DIR, f"{name}-{os.getpid()}")
        self.out = os.path.join(self.work, "out")
        threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)
        for var in THREAD_VARIABLES:
            self.env[var] = str(threads)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_fp: dict = {}
        self.reference = reference
        self.reference_delta = None

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        with open(os.path.join(self.work, "config.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(self.config, fh, indent=2)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, argv: list) -> tuple[float, int, int]:
        """Run one child to completion: (wall s, exit code, ru_maxrss KiB).

        The child is killed at the run's hard limit, so the run ends in time.
        """
        log_path = os.path.join(self.work, "child.log")
        with open(log_path, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(HARD_LIMIT_S - self.elapsed, 1.0),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def probe(self) -> dict:
        """Environment record, from a child that imports what the CLI does."""
        code = ("import json, platform, sys, numpy, starklab\n"
                "blas = numpy.__config__.CONFIG['Build Dependencies']['blas']\n"
                "print(json.dumps({'python': platform.python_version(),"
                " 'numpy': numpy.__version__, 'blas': {'name': blas['name'],"
                " 'version': blas['version']}, 'starklab': starklab.__version__,"
                " 'starklab_file': starklab.__file__}))\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=self.work,
                              env=self.env, capture_output=True, text=True,
                              timeout=60, check=False)
        if proc.returncode != 0:
            raise BenchError(f"cannot import starklab from ./src: "
                             f"{proc.stderr.strip()}")
        env = json.loads(proc.stdout)
        if not os.path.realpath(env.pop("starklab_file")).startswith(
                os.path.realpath(self.src) + os.sep):
            raise BenchError("starklab was not imported from ./src")
        env.update(nproc=len(os.sched_getaffinity(0)), seed=self.seed,
                   blas_threads={v: self.env[v] for v in THREAD_VARIABLES})
        return env

    def measure_setup(self) -> list[float]:
        code = "import sys, starklab; starklab.load_config(sys.argv[1])"
        samples = []
        for _ in range(SETUP_RUNS):
            wall, rc, _ = self.spawn([sys.executable, "-c", code,
                                      "config.json"])
            if rc != 0:
                raise BenchError(f"setup probe exited {rc}")
            samples.append(wall)
        return samples

    def check_command(self, subcommand, stages, parts, rc) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            with open(os.path.join(self.out, "manifest.json"),
                      encoding="utf-8") as fh:
                status = {s["name"]: s["status"]
                          for s in json.load(fh)["stages"]}
            fp = fingerprint.take(self.out, parts)
        except (OSError, KeyError, ValueError) as exc:
            return [f"outputs unreadable: {exc!r}"]
        problems = [f"stage {s}: {status.get(s)}" for s in stages
                    if status.get(s) not in ("ok", "reused")]
        if "eigenvalues" in parts:
            problems += fingerprint.spectral_invariants(self.out, self.config)
        if subcommand not in self.first_fp:
            self.first_fp[subcommand] = fp
        else:
            problems += [f"differs from the first rep: {p}" for p in
                         fingerprint.compare(fp, self.first_fp[subcommand])]
        if self.reference is not None:
            ref = {part: self.reference[part] for part in fp
                   if part in self.reference}
            problems += [f"differs from the reference: {p}" for p in
                         fingerprint.compare(fp, ref)]
            if "eigenvalues" in fp:
                delta = fingerprint.max_eigenvalue_delta(fp, ref)
                self.reference_delta = max(self.reference_delta or 0.0, delta)
        return problems

    def rep(self, traced: bool) -> dict:
        """Run the workload's commands once into a fresh output directory."""
        shutil.rmtree(self.out, ignore_errors=True)
        result = {"wall_s": 0.0, "peak_rss_kib": 0, "spans": {},
                  "excluded_s": 0.0, "top_s": 0.0}
        for subcommand, stages, parts in self.commands:
            argv = [subcommand, "--config", "config.json"]
            trace_path = os.path.join(self.work, "trace.json")
            if traced:
                argv = [sys.executable, TRACER_PATH, trace_path] + argv
            else:
                argv = [sys.executable, "-m", "starklab.cli"] + argv
            wall, rc, maxrss = self.spawn(argv)
            self.attempted += 1
            problems = self.check_command(subcommand, stages, parts, rc)
            if problems:
                self.failed += 1
                self.problems += [f"{subcommand}: {p}" for p in problems]
            result["wall_s"] += wall
            result["peak_rss_kib"] = max(result["peak_rss_kib"], maxrss)
            if traced and rc == 0:
                with open(trace_path, encoding="utf-8") as fh:
                    trace = json.load(fh)
                spans, top = summarize_spans(trace["spans"])
                for span, entry in spans.items():
                    merged = result["spans"].setdefault(span, {})
                    for key, value in entry.items():
                        merged[key] = merged.get(key, 0) + value
                result["excluded_s"] += trace["excluded_s"]
                result["top_s"] += top
        result["output_bytes"] = sum(
            os.path.getsize(os.path.join(self.out, f))
            for f in (os.listdir(self.out) if os.path.isdir(self.out) else ()))
        return result

    def loop(self, seconds: float, trace: bool) -> list[dict]:
        """Reps (alternating untraced and traced with trace) for seconds."""
        reps = []
        start = time.perf_counter()
        rounds = 0
        while True:
            for traced in ((False, True) if trace else (False,)):
                rep = self.rep(traced)
                rep["traced"] = traced
                reps.append(rep)
            rounds += 1
            spent = time.perf_counter() - start
            if (spent * (rounds + 1) / rounds > seconds
                    or self.elapsed + spent / rounds > HARD_LIMIT_S):
                return reps


def end_to_end_metrics(reps: list, setup: list, session: Session) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_kib"] for r in reps)
        / 1024.0,
        "setup_s": statistics.median(setup),
        "output_mb": statistics.median(r["output_bytes"] for r in reps) / 1e6,
        "success_share": 1.0 - session.failed / session.attempted,
    }


def per_layer_metrics(reps: list) -> dict:
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    def median_of(fn):
        return statistics.median(fn(r) for r in traced)

    metrics = {}
    for metric, span, field, _ in SPAN_METRICS:
        metrics[metric] = median_of(
            lambda r: r["spans"].get(span, {}).get(field, 0))
    # the harness sees the traced children's wall; the tracer's own
    # measurements (bare eigh, file sizes) are taken out of it
    wall = [r["wall_s"] - r["excluded_s"] for r in traced]
    metrics["trace.wall_s"] = statistics.median(wall)
    metrics["cli.process_s"] = statistics.median(
        w - r["top_s"] for w, r in zip(wall, traced))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        r["wall_s"] for r in untraced)
    for layer in LAYERS:
        extra = metrics["cli.process_s"] if layer == "cli" else 0.0
        metrics[f"layer.{layer}.self_s"] = extra + median_of(
            lambda r: sum(e["self_s"] for s, e in r["spans"].items()
                          if s.split(".")[0] == layer))
    return metrics


def run_benchmark(root: str, name: str, seed: int, seconds: float,
                  trace: bool, quick: bool) -> tuple[dict, dict]:
    reference = None
    if seed == DEFAULT_SEED:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)["workloads"][reference_key(name, quick)]
    with Session(root, name, seed, quick, reference) as session:
        env = session.probe()
        setup = [] if trace else session.measure_setup()
        reps = session.loop(seconds, trace)
    if trace:
        values = per_layer_metrics(reps)
        units = {m: u for m, _, _, u in SPAN_METRICS} | TRACE_METRICS
    else:
        values = end_to_end_metrics(reps, setup, session)
        units = END_TO_END
    untraced_walls = [r["wall_s"] for r in reps if not r["traced"]]
    record = {
        "workload": name, "quick": quick, "trace": trace,
        "environment": env,
        "wall_samples": len(untraced_walls), "walls_s": untraced_walls,
        "setup_samples_s": setup,
        "error_share": session.failed / session.attempted,
        "reference": ("compared" if session.reference is not None else
                      f"none recorded for seed {seed}"),
        "max_eigenvalue_delta_vs_reference": session.reference_delta,
        "problems": session.problems[:50],
    }
    result = {"correct": session.failed == 0,
              "attempted": session.attempted, "failed": session.failed,
              "metrics": {m: {"value": values[m], "unit": units[m]}
                          for m in units}}
    return result, record


def record_reference(root: str) -> int:
    """Rewrite reference.json from one rep per workload at DEFAULT_SEED."""
    entries = {}
    env = None
    for name in WORKLOADS:
        for quick in (False, True):
            with Session(root, name, DEFAULT_SEED, quick, None) as session:
                env = session.probe()
                session.rep(traced=False)
                if session.failed:
                    print("\n".join(session.problems), file=sys.stderr)
                    return 1
                fp: dict = {}
                for part_fp in session.first_fp.values():
                    fp.update(part_fp)
                entries[reference_key(name, quick)] = fp
    doc = {"seed": DEFAULT_SEED, "environment": env,
           "tolerances": {"eigenvalue_abs": fingerprint.EIGENVALUE_ABS_TOL,
                          "decay_rel": fingerprint.DECAY_REL_TOL,
                          "moment_rel": fingerprint.MOMENT_REL_TOL},
           "workloads": entries}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "starklab", "cli.py")):
        print("perfbench: no ./src/starklab here; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.record_reference:
        return record_reference(root)
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 bits")
    try:
        result, record = run_benchmark(root, args.workload, args.seed,
                                       args.seconds, bool(args.trace),
                                       args.quick)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
