#!/usr/bin/env python3
"""Per-box-size timing of the spectrum layers.

Run from the repository root:

    python3 tools/bench_spectrum.py --out BENCH.json

For every kernel in KERNELS and half-width N in HALF_WIDTHS, a fresh
Python process builds the operator and times, each as the median of
REPEATS runs:

    build_operator   operator assembly, perturbation sampling included
    diagonalize      the gated solve (LAPACK's tridiagonal ?stevd for the
                     nearest-neighbour kernel, dense for the power laws)
    column_scan      the one pass down the rows that gives every
                     eigenvector's peak row (its center) and its first
                     and last nonzero row, to which the gates and the
                     localization checks restrict their rows
    residual_gate    the eigenpair residuals: the three-term sum on the
                     row supports for the nearest-neighbour kernels, the
                     product H @ vec for the power laws
    gram_gate        the orthonormality defect, against the later modes
                     whose supports meet each block's rows
    matrix           the dense fill of the operator's matrix on its first
                     read, which the tridiagonal solve never makes
    eigh             a bare np.linalg.eigh of that matrix, the dense
                     reference the solver is compared with
    save_spectral    writing the dump pair
    load_spectral    reading it back
    envelope         the envelope bound for q = 2 and 2.5 from site 0
    moment_series    M_q(t) from that envelope on the default time grid
                     (20101 times); null above N = MOMENT_MAX_N.  The
                     kernels span strong localization (p=4, nearest
                     neighbour), slow decay (p=2.5) and a complex
                     spectrum (nearest neighbour with amplitude 0.6+0.8i)
    uniform_decay_constants
                     the decay sups for alpha = 2 and 3 in one call
    check_eigenvalue_asymptotics
                     the pinning check
    bootstrap_decay_check
                     the bootstrap inequality at the default gamma, the
                     box's pinning bound

Each case runs in its own process, so its peak RSS (``ru_maxrss``) is its
own; a small untimed solve first loads the solver modules.  The case
reports the peak twice: after the diagonalize runs, and at the end,
which includes the dense eigh reference.  The BLAS thread count is pinned to min(2, nproc) unless the
caller sets OPENBLAS_NUM_THREADS; the report records it with the
library versions.  The script is not part of the test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

KERNELS = {
    "nearest_neighbor_B2": ({"family": "nearest_neighbor"}, 2.0),
    "power_law_p4_B0.5": ({"family": "power_law", "exponent": 4.0}, 0.5),
    "power_law_p2.5_B0.5": ({"family": "power_law", "exponent": 2.5}, 0.5),
    "nearest_neighbor_0.6+0.8i_B2": (
        {"family": "nearest_neighbor", "amplitude": {"re": 0.6, "im": 0.8}},
        2.0),
}
HALF_WIDTHS = (200, 700, 1400, 2000)
REPEATS = 3
MOMENT_MAX_N = 700
MOMENT_QS = (2.0, 2.5)
DECAY_ALPHAS = (2.0, 3.0)
SEED = 7
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _median_time(fn):
    """Median wall time of fn() over REPEATS calls, and its last result."""
    times = []
    result = None
    for _ in range(REPEATS):
        result = None  # drop the previous result before the next call
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def run_case(kernel_name: str, half_width: int) -> dict:
    """Time one (kernel, N) case in this process; return its record."""
    import numpy as np

    import starklab as sl
    from starklab import spectra

    spec, amplitude = KERNELS[kernel_name]
    kernel = sl.build_kernel(**spec)
    potential = sl.PotentialSpec(perturbation=sl.UniformRandomPerturbation(
        amplitude=amplitude, seed=SEED))
    # untimed: import the solver modules and start the BLAS threads
    sl.diagonalize(sl.build_operator(kernel, potential, 10))
    seconds = {}
    seconds["build_operator"], op = _median_time(
        lambda: sl.build_operator(kernel, potential, half_width))
    seconds["diagonalize"], sd = _median_time(
        lambda: sl.diagonalize(op))
    diagonalize_rss = _peak_rss_mb()
    vec = sd.eigenvectors
    seconds["column_scan"], (_, support) = _median_time(
        lambda: spectra._column_scan(vec))
    lower = spectra._subdiagonal(op)
    seconds["residual_gate"], _ = _median_time(
        lambda: spectra._residuals(op, sd.eigenvalues, vec, lower, support))
    seconds["gram_gate"], _ = _median_time(
        lambda: spectra._gram_defect(vec, support))
    # a copy of the operator has not built its matrix yet; drop the copy
    seconds["matrix"] = _median_time(
        lambda: dataclasses.replace(op).matrix)[0]
    matrix = op.matrix
    seconds["eigh"], _ = _median_time(lambda: np.linalg.eigh(matrix))
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "spectrum")
        seconds["save_spectral"], paths = _median_time(
            lambda: sl.save_spectral(sd, base))
        dump_bytes = sum(os.path.getsize(p) for p in paths)
        seconds["load_spectral"], _ = _median_time(
            lambda: sl.load_spectral(base))
    seconds["envelope"], env = _median_time(
        lambda: sl.envelope(sd, 0, MOMENT_QS))
    seconds["moment_series"] = None
    if half_width <= MOMENT_MAX_N:
        times = sl.time_grid()
        seconds["moment_series"], _ = _median_time(
            lambda: sl.moment_series(sd, env, MOMENT_QS, times))
    seconds["uniform_decay_constants"], _ = _median_time(
        lambda: sl.uniform_decay_constants(sd, DECAY_ALPHAS))
    seconds["check_eigenvalue_asymptotics"], _ = _median_time(
        lambda: sl.check_eigenvalue_asymptotics(sd))
    seconds["bootstrap_decay_check"], _ = _median_time(
        lambda: sl.bootstrap_decay_check(sd))
    return {
        "kernel": kernel_name,
        "half_width": half_width,
        "dimension": op.dimension,
        "seconds": {k: None if v is None else round(v, 4)
                    for k, v in seconds.items()},
        "max_residual": float(np.max(sd.residuals)),
        "orthonormality_defect": sd.orthonormality_defect,
        "dump_mb": round(dump_bytes / 1e6, 3),
        "peak_rss_mb_to_diagonalize": diagonalize_rss,
        "peak_rss_mb": _peak_rss_mb(),
    }


def environment(env: dict) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "threads": {v: env.get(v) for v in THREAD_VARIABLES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="path of the JSON report")
    parser.add_argument("--case", nargs=2, metavar=("KERNEL", "N"),
                        help=argparse.SUPPRESS)  # one case, in a child
    args = parser.parse_args(argv)
    if args.case:
        print(json.dumps(run_case(args.case[0], int(args.case[1]))))
        return 0
    if not args.out:
        parser.error("--out is required")

    threads = str(min(2, os.cpu_count() or 1))
    env = dict(os.environ)
    for var in THREAD_VARIABLES:
        env.setdefault(var, threads)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    cases = []
    for kernel_name in KERNELS:
        for n in HALF_WIDTHS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--case",
                 kernel_name, str(n)],
                env=env, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            case = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{kernel_name} N={n}: {case['seconds']} "
                  f"peak {case['peak_rss_mb']} MB", flush=True)
            cases.append(case)
    report = {"repeats": REPEATS, "seed": SEED,
              "environment": environment(env), "cases": cases}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
