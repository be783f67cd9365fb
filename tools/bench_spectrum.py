#!/usr/bin/env python3
"""Per-box-size timing of the spectrum layers.

Run from the repository root:

    python3 tools/bench_spectrum.py --out BENCH.json

For every kernel in KERNELS and half-width N in HALF_WIDTHS, a fresh
Python process builds the operator and times, each as the median of
REPEATS runs under "seconds", with the fastest and slowest of those runs
under "seconds_min_max" to show the spread:

    perturbation_values
                     the disorder draws b(n) over the box's 2N+1 sites
                     on their own, in one vectorized pass
    build_operator   operator assembly, perturbation sampling included
    diagonalize      the gated solve (LAPACK's tridiagonal ?stevd for the
                     nearest-neighbour kernel, dense for the power laws),
                     each repeat on a fresh copy of the operator, so that
                     no repeat finds the matrix an earlier one built
    column_scan      the one scan of the column-major eigenvectors, 64
                     modes at a time, that gives every eigenvector's
                     peak row (its center) and its first and last
                     nonzero row, to which the gates and the
                     localization checks restrict their rows
    residual_gate    the gated eigenpair residuals
                     (spectra._gated_residuals): the three-term sum on
                     the row supports for the nearest-neighbour kernels,
                     the product H @ vec less vec * lam, block by block,
                     for the power laws
    gram_gate        the orthonormality defect, against the later modes
                     whose supports meet each block's rows, over the
                     block's support rows
    matrix           the dense fill of the operator's matrix on its first
                     read; null for the nearest-neighbour kernels, whose
                     tridiagonal residual never reads it
    eigh             the bare solver that diagonalize calls, the floor it
                     is compared with, as spectra._eigh picks it in the
                     LAPACK numpy loaded: ?stevd on the diagonal and
                     subdiagonal for the nearest-neighbour kernels, gauge
                     included, the in-place ?syevd on a fresh
                     Fortran-ordered matrix for the power laws, and
                     numpy.linalg.eigh of the matrix where that LAPACK
                     lacks the routine
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
                     box's pinning bound, its right side formed only on
                     the candidate rows

Each case runs in its own process, so its peak RSS (``ru_maxrss``) is its
own; a small untimed solve first loads the solver modules.  The case
reports the peak twice: after the diagonalize runs, and at the end,
which includes the bare solver.  The BLAS thread count is pinned to
min(2, nproc) unless the caller sets OPENBLAS_NUM_THREADS; the report
records it with the library versions.

Then, end to end, one ``python -m starklab.cli study`` per kernel family
in STUDIES (p=4 at N = 500 and 1000, nearest neighbour at N = 700 and
1400), each one fresh process on that kernel's config with the
asymptotics, decay and bootstrap analyses, reports its wall time and its
own peak RSS (the child's ``ru_maxrss``).

tests/test_tools.py runs run_case and run_study on small boxes; the full
sweep is not part of the test suite.
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
# kernel -> the half-widths of its end-to-end study
STUDIES = {"power_law_p4_B0.5": (500, 1000),
           "nearest_neighbor_B2": (700, 1400)}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _timed(fn):
    """(min, median, max) wall time of fn() over REPEATS calls, and its
    last result."""
    times = []
    result = None
    for _ in range(REPEATS):
        result = None  # drop the previous result before the next call
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return (min(times), statistics.median(times), max(times)), result


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
    sites = np.arange(-half_width, half_width + 1)
    seconds["perturbation_values"], _ = _timed(
        lambda: potential.perturbation_values(sites))
    seconds["build_operator"], op = _timed(
        lambda: sl.build_operator(kernel, potential, half_width))
    seconds["diagonalize"], sd = _timed(
        lambda: sl.diagonalize(dataclasses.replace(op)))
    diagonalize_rss = _peak_rss_mb()
    vec = sd.eigenvectors
    seconds["column_scan"], (_, support) = _timed(
        lambda: spectra._column_scan(vec))
    seconds["residual_gate"], _ = _timed(
        lambda: spectra._gated_residuals(op, sd.eigenvalues, vec, support,
                                         spectra.RESIDUAL_TOL))
    seconds["gram_gate"], _ = _timed(
        lambda: spectra._gram_defect(vec, support))
    # a copy of the operator has not built its matrix yet; drop it
    seconds["matrix"] = None if spectra._subdiagonal(op) is not None else \
        _timed(lambda: dataclasses.replace(op).matrix)[0]
    seconds["eigh"], _ = _timed(lambda: spectra._eigh(op))
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "spectrum")
        seconds["save_spectral"], paths = _timed(
            lambda: sl.save_spectral(sd, base))
        dump_bytes = sum(os.path.getsize(p) for p in paths)
        seconds["load_spectral"], _ = _timed(
            lambda: sl.load_spectral(base))
    seconds["envelope"], env = _timed(
        lambda: sl.envelope(sd, 0, MOMENT_QS))
    seconds["moment_series"] = None
    if half_width <= MOMENT_MAX_N:
        times = sl.time_grid()
        seconds["moment_series"], _ = _timed(
            lambda: sl.moment_series(sd, env, MOMENT_QS, times))
    seconds["uniform_decay_constants"], _ = _timed(
        lambda: sl.uniform_decay_constants(sd, DECAY_ALPHAS))
    seconds["check_eigenvalue_asymptotics"], _ = _timed(
        lambda: sl.check_eigenvalue_asymptotics(sd))
    seconds["bootstrap_decay_check"], _ = _timed(
        lambda: sl.bootstrap_decay_check(sd))
    return {
        "kernel": kernel_name,
        "half_width": half_width,
        "dimension": op.dimension,
        "seconds": {k: None if v is None else round(v[1], 4)
                    for k, v in seconds.items()},
        "seconds_min_max": {k: None if v is None else
                            [round(v[0], 4), round(v[2], 4)]
                            for k, v in seconds.items()},
        "max_residual": float(np.max(sd.residuals)),
        "orthonormality_defect": sd.orthonormality_defect,
        "dump_mb": round(dump_bytes / 1e6, 3),
        "peak_rss_mb_to_diagonalize": diagonalize_rss,
        "peak_rss_mb": _peak_rss_mb(),
    }


def run_study(kernel_name: str, half_widths) -> dict:
    """Run one ``starklab study`` of the kernel's config at half_widths in
    a fresh process (child_environment); return its wall time and the
    process's peak RSS.  The CLI's exit code 3 (a check failed) still
    counts as a run."""
    spec, amplitude = KERNELS[kernel_name]
    config = {"kernel": spec, "seed": SEED,
              "potential": {"slope": 1.0, "perturbation": {
                  "kind": "uniform_random", "amplitude": amplitude}},
              "half_widths": list(half_widths),
              "analyses": {"asymptotics": True,
                           "decay": {"alphas": list(DECAY_ALPHAS)},
                           "bootstrap": {}}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        log_path = os.path.join(tmp, "study.log")
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "starklab.cli", "study", "--config",
                 path, "--out", os.path.join(tmp, "out")],
                env=child_environment(), stdout=log,
                stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code not in (0, 3):
            with open(log_path, encoding="utf-8") as fh:
                raise RuntimeError(f"starklab study exited {code}:\n"
                                   + fh.read())
    return {"kernel": kernel_name, "half_widths": list(half_widths),
            "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "checks_passed": code == 0}


def child_environment() -> dict:
    """This process's environment with src on PYTHONPATH and the BLAS
    thread count pinned to min(2, nproc) where the caller set none."""
    threads = str(min(2, os.cpu_count() or 1))
    env = dict(os.environ)
    for var in THREAD_VARIABLES:
        env.setdefault(var, threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def environment(env: dict) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
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

    env = child_environment()
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
    studies = []
    for kernel_name, half_widths in STUDIES.items():
        study = run_study(kernel_name, half_widths)
        print(f"study {kernel_name} N={half_widths}: {study['wall_s']} s "
              f"peak {study['peak_rss_mb']} MB", flush=True)
        studies.append(study)
    report = {"repeats": REPEATS, "seed": SEED,
              "environment": environment(env), "cases": cases,
              "studies": studies}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
