"""Output fingerprints, read back from the files the starklab CLI wrote.

A fingerprint is a small JSON-able dict with any of these parts:

    eigenvalues  {N: {ladder index: eigenvalue}} at every LADDER_STEP-th index
    decay        {N: {alpha: [sup_constant, sup_constant_by_index]}}
    bootstrap    {N: [n_checked, n_violations]}
    moments      {moments_q*.csv file name: sup of the moment column}
    envelope     {source: {N: {q: E_q}}}

Fingerprints are compared at the tolerances below, never bytewise: the
outputs move in their last bits with the BLAS thread count.  Counts must
agree exactly.

``spectral_invariants`` checks the dumped eigenvalues of any seed against
the trace and Frobenius norm of the operator, computed here from the
config's kernel and the realized disorder, without an eigensolver.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os

import numpy as np

LADDER_STEP = 10
EIGENVALUE_ABS_TOL = 1e-9
DECAY_REL_TOL = 1e-6   # sups of |phi| * dist**alpha, dist up to 2N
MOMENT_REL_TOL = 1e-9  # moment-series sups and envelope moments E_q
# |sum(lambda) - tr H| and |sum(lambda^2) - |H|_F^2|, relative to d times
# the spectral radius (squared): rounding of a backward-stable eigensolver
INVARIANT_REL_TOL = 1e-14


def _read_eigenvalues(out_dir: str) -> dict:
    """{half_width: (header, eigenvalues)} for every spectrum dump."""
    found = {}
    for header_path in glob.glob(os.path.join(out_dir, "spectrum_N*.json")):
        with open(header_path, encoding="utf-8") as fh:
            header = json.load(fh)
        d = int(header["dimension"])
        lam = np.fromfile(header_path[:-len(".json")] + ".bin", dtype="<f8",
                          count=d)
        if lam.size != d:
            raise ValueError(f"{header_path}: payload shorter than {d} values")
        found[int(header["half_width"])] = (header, lam)
    return found


def take(out_dir: str, parts) -> dict:
    """Fingerprint the requested parts of an output directory."""
    fp: dict = {}
    if "eigenvalues" in parts:
        fp["eigenvalues"] = {}
        for n, (header, lam) in sorted(_read_eigenvalues(out_dir).items()):
            anchor = int(header["anchor_position"])
            fp["eigenvalues"][str(n)] = {
                str(p - anchor): float(lam[p]) for p in range(lam.size)
                if (p - anchor) % LADDER_STEP == 0}
    if "decay" in parts or "bootstrap" in parts:
        with open(os.path.join(out_dir, "localization.json"),
                  encoding="utf-8") as fh:
            loc = json.load(fh)
        if "decay" in parts:
            fp["decay"] = {
                n: {alpha: [rep["sup_constant"], rep["sup_constant_by_index"]]
                    for alpha, rep in per_n.items()}
                for n, per_n in loc["decay"].items()}
        if "bootstrap" in parts:
            fp["bootstrap"] = {n: [rep["n_checked"], rep["n_violations"]]
                               for n, rep in loc["bootstrap"].items()}
    if "moments" in parts:
        fp["moments"] = {}
        for path in sorted(glob.glob(os.path.join(out_dir, "moments_q*.csv"))):
            with open(path, encoding="utf-8", newline="") as fh:
                rows = csv.DictReader(fh)
                fp["moments"][os.path.basename(path)] = max(
                    float(row["moment"]) for row in rows)
    if "envelope" in parts:
        with open(os.path.join(out_dir, "envelope.json"),
                  encoding="utf-8") as fh:
            env = json.load(fh)
        fp["envelope"] = {
            k: {n: {q: m["value"] for q, m in per_n["moments"].items()}
                for n, per_n in src["half_widths"].items()}
            for k, src in env["sources"].items()}
    return fp


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _leaves(tree, prefix=()):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, prefix + (key,))
    elif isinstance(tree, list):
        for key, value in enumerate(tree):
            yield from _leaves(value, prefix + (key,))
    else:
        yield prefix, tree


def max_eigenvalue_delta(fp: dict, ref: dict) -> float:
    """max |delta lambda| over ladder indices present in both fingerprints."""
    worst = 0.0
    for n, values in fp.get("eigenvalues", {}).items():
        theirs = ref.get("eigenvalues", {}).get(n, {})
        for m in values.keys() & theirs.keys():
            worst = max(worst, abs(values[m] - theirs[m]))
    return worst


def compare(fp: dict, ref: dict) -> list[str]:
    """Differences of fp from ref beyond tolerance, one line each."""
    problems = []
    for part in fp:
        if part not in ref:
            problems.append(f"{part}: missing from the reference")
            continue
        if part == "eigenvalues":
            # shared ladder indices only; each box must still be present
            if fp[part].keys() != ref[part].keys():
                problems.append(f"eigenvalues: box sizes {sorted(fp[part])} "
                                f"!= {sorted(ref[part])}")
            delta = max_eigenvalue_delta(fp, ref)
            if delta > EIGENVALUE_ABS_TOL:
                problems.append(f"eigenvalues: max |delta| {delta:.3e} > "
                                f"{EIGENVALUE_ABS_TOL:.0e}")
            continue
        mine = dict(_leaves(fp[part]))
        theirs = dict(_leaves(ref[part]))
        if mine.keys() != theirs.keys():
            problems.append(f"{part}: entries {sorted(mine)} != "
                            f"{sorted(theirs)}")
            continue
        for key, value in mine.items():
            other = theirs[key]
            where = f"{part}[{']['.join(map(str, key))}]"
            if part == "bootstrap":
                if value != other:
                    problems.append(f"{where}: {value} != {other}")
                continue
            tol = DECAY_REL_TOL if part == "decay" else MOMENT_REL_TOL
            if not _relative(value, other) <= tol:
                problems.append(f"{where}: {value!r} vs {other!r} "
                                f"(relative tolerance {tol:.0e})")
    return problems


def hopping_frobenius(kernel: dict, half_width: int) -> float:
    """sum over i != j of |a(i - j)|^2 for the box matrix of ``kernel``."""
    d = 2 * half_width + 1
    m = np.arange(1, d, dtype=float)
    if kernel["family"] == "power_law":
        amp2 = m ** (-2.0 * float(kernel["exponent"]))
    elif kernel["family"] == "nearest_neighbor":
        a = kernel.get("amplitude", 1.0)
        amp2 = np.where(m == 1.0, abs(complex(a)) ** 2, 0.0)
    else:
        raise ValueError(f"no Frobenius formula for {kernel['family']}")
    return float(2.0 * np.sum((d - m) * amp2))


def spectral_invariants(out_dir: str, config: dict) -> list[str]:
    """Check every dump's eigenvalues against tr H and |H|_F^2."""
    from starklab.operators import UniformRandomPerturbation

    pert = config["potential"]["perturbation"]
    disorder = UniformRandomPerturbation(float(pert["amplitude"]),
                                         int(config["seed"]))
    slope = float(config["potential"]["slope"])
    problems = []
    for n, (_, lam) in sorted(_read_eigenvalues(out_dir).items()):
        sites = np.arange(-n, n + 1)
        diag = slope * sites + disorder.values(sites)
        radius = float(np.max(np.abs(lam)))
        scale = lam.size * max(radius, 1.0)
        trace_err = abs(math.fsum(lam) - math.fsum(diag))
        frob = math.fsum(diag ** 2) + hopping_frobenius(config["kernel"], n)
        frob_err = abs(math.fsum(lam ** 2) - frob)
        if trace_err > INVARIANT_REL_TOL * scale:
            problems.append(f"N={n}: |sum(lambda) - tr H| = {trace_err:.3e}")
        if frob_err > INVARIANT_REL_TOL * scale * max(radius, 1.0):
            problems.append(f"N={n}: |sum(lambda^2) - |H|_F^2| = "
                            f"{frob_err:.3e}")
    return problems
