"""Experiment configs, staged runs, and deterministic output files.

A config (JSON) fixes the kernel, the potential, the box sizes, the seed,
and which analyses run.  ``run`` executes stages in order

    spectrum -> asymptotics / ule / bootstrap / dynamics -> study

writing one manifest plus per-stage artifacts into the output directory.
A failed stage marks everything downstream of it skipped, but analysis
stages are siblings: one refusing does not block another.  Reruns with the
same config and seed give byte-identical CSV and JSON payloads (the
manifest differs only in its timestamp).
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ._format import dumps_json17, write_csv, write_json
from ._version import __version__
from .dynamics import (envelope, moment_bound_verdict, moment_series,
                       time_grid)
from .kernels import HoppingKernel, KernelError, build_kernel, weighted_norm
from .localization import (asymptotics_rows, bootstrap_decay_check,
                           check_eigenvalue_asymptotics, decay_rows,
                           uniform_decay_constants)
from .operators import (ConstantPerturbation, ExplicitPerturbation,
                        MarylandPotential, NoPerturbation, PeriodicPerturbation,
                        PotentialError, PotentialSpec,
                        UniformRandomPerturbation, box_kernel, build_operator,
                        dump_matrix)
from .spectra import (DEGENERACY_GAP, ORTHONORMALITY_TOL, RESIDUAL_TOL,
                      diagonalize, load_spectral, save_spectral)

__all__ = [
    "ConfigError",
    "ProvenanceMismatchError",
    "ExperimentConfig",
    "StageRecord",
    "RunManifest",
    "load_config",
    "parse_config",
    "run",
    "convergence_study",
    "ALL_STAGES",
]

ALL_STAGES = ("spectrum", "asymptotics", "ule", "bootstrap", "dynamics",
              "study")

_TOLERANCE_DEFAULTS = {
    "residual": RESIDUAL_TOL,
    "orthonormality": ORTHONORMALITY_TOL,
    "degeneracy_gap": DEGENERACY_GAP,
    "interior_window": None,
    "bootstrap_slack": 1e-8,
    "doubling_ratio_limit": 1.1,
    "boundary_share_limit": 0.01,
    "eigenvalue_drift": 1e-8,
}

_GRID_DEFAULTS = {"dt": 0.05, "t_max": 1000.0, "quasi_random": 100,
                  "far_horizon": 1e6}


class ConfigError(ValueError):
    """One or more config fields are invalid; every problem is listed."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(
            f"  {p}" for p in self.problems))


class ProvenanceMismatchError(ValueError):
    """A spectrum dump was written under a different config."""


@dataclass(frozen=True)
class ExperimentConfig:
    kernel: HoppingKernel
    potential: PotentialSpec
    half_widths: tuple[int, ...]
    seed: int
    analyses: dict
    tolerances: dict
    output_dir: str
    dump_operator: bool
    max_dimension: int
    effective: dict

    def config_hash(self) -> str:
        hashed = {k: v for k, v in self.effective.items() if k != "output"}
        return hashlib.sha256(dumps_json17(hashed).encode()).hexdigest()

    def with_overrides(self, out_dir: str | None = None,
                       seed: int | None = None) -> "ExperimentConfig":
        raw = json.loads(json.dumps(self.effective))
        if out_dir is not None:
            raw.setdefault("output", {})["directory"] = str(out_dir)
        if seed is not None:
            # a disorder seed that inherited the run seed follows the
            # override; an explicitly different one stays pinned
            pert = raw.get("potential", {}).get("perturbation")
            if isinstance(pert, dict) and pert.get("seed") == raw.get("seed"):
                pert["seed"] = int(seed)
            raw["seed"] = int(seed)
        return parse_config(raw)


class _Checker:
    def __init__(self):
        self.problems: list[str] = []

    def error(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def expect_keys(self, path: str, obj: dict, allowed) -> None:
        for key in obj:
            if key not in allowed:
                self.error(f"{path}.{key}" if path else key,
                           "unknown field")


def _as_complex(value, path: str, chk: _Checker):
    if isinstance(value, bool):
        chk.error(path, "expected a number or {re, im}")
        return 0j
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, dict) and set(value) <= {"re", "im"}:
        try:
            return complex(float(value.get("re", 0.0)),
                           float(value.get("im", 0.0)))
        except (TypeError, ValueError):
            pass
    chk.error(path, "expected a number or {re, im}")
    return 0j


def _number(value, path, chk, *, positive=False, nonnegative=False,
            default=None):
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        chk.error(path, "expected a number")
        return default
    value = float(value)
    if positive and not value > 0:
        chk.error(path, "must be positive")
    if nonnegative and value < 0:
        chk.error(path, "must be nonnegative")
    return value


def _integer(value, path, chk, *, minimum=None, default=None):
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        chk.error(path, "expected an integer")
        return default
    if minimum is not None and value < minimum:
        chk.error(path, f"must be >= {minimum}")
    return int(value)


def _parse_kernel(raw, chk: _Checker) -> HoppingKernel | None:
    if not isinstance(raw, dict):
        chk.error("kernel", "expected an object")
        return None
    family = raw.get("family")
    if family == "nearest_neighbor":
        chk.expect_keys("kernel", raw, {"family", "amplitude"})
        params = {}
        if "amplitude" in raw:
            params["amplitude"] = _as_complex(raw["amplitude"],
                                              "kernel.amplitude", chk)
    elif family == "power_law":
        chk.expect_keys("kernel", raw, {"family", "exponent", "cutoff"})
        params = {"exponent": _number(raw.get("exponent"), "kernel.exponent",
                                      chk, default=0.0)}
        if raw.get("exponent") is None:
            chk.error("kernel.exponent", "required for power_law")
        if "cutoff" in raw and raw["cutoff"] is not None:
            params["cutoff"] = _integer(raw["cutoff"], "kernel.cutoff", chk,
                                        minimum=1)
    elif family == "finite_support":
        chk.expect_keys("kernel", raw, {"family", "half"})
        half = raw.get("half")
        if not isinstance(half, list):
            chk.error("kernel.half", "expected a list [a(1), a(2), ...]")
            return None
        params = {"half": [_as_complex(v, f"kernel.half[{i}]", chk)
                           for i, v in enumerate(half)]}
    elif family == "custom":
        chk.expect_keys("kernel", raw, {"family", "coefficients"})
        coeffs = raw.get("coefficients")
        if not isinstance(coeffs, dict):
            chk.error("kernel.coefficients", "expected {offset: amplitude}")
            return None
        table = {}
        for key, v in coeffs.items():
            try:
                off = int(key)
            except (TypeError, ValueError):
                chk.error(f"kernel.coefficients.{key}",
                          "offset keys must be integers")
                continue
            table[off] = _as_complex(v, f"kernel.coefficients.{key}", chk)
        params = {"coefficients": table}
    else:
        chk.error("kernel.family",
                  f"unknown family {family!r}; expected nearest_neighbor, "
                  "power_law, finite_support, or custom")
        return None
    if chk.problems:
        return None
    try:
        return build_kernel(family, **params)
    except KernelError as exc:
        chk.error("kernel", str(exc))
        return None


def _parse_perturbation(raw, seed: int, chk: _Checker):
    if raw is None:
        return NoPerturbation()
    if not isinstance(raw, dict):
        chk.error("potential.perturbation", "expected an object")
        return NoPerturbation()
    kind = raw.get("kind", "none")
    path = "potential.perturbation"
    try:
        if kind == "none":
            chk.expect_keys(path, raw, {"kind"})
            return NoPerturbation()
        if kind == "constant":
            chk.expect_keys(path, raw, {"kind", "offset"})
            return ConstantPerturbation(
                offset=_number(raw.get("offset"), f"{path}.offset", chk,
                               default=0.0))
        if kind == "uniform_random":
            chk.expect_keys(path, raw, {"kind", "amplitude", "seed"})
            amp = _number(raw.get("amplitude"), f"{path}.amplitude", chk,
                          nonnegative=True, default=0.0)
            own_seed = _integer(raw.get("seed"), f"{path}.seed", chk,
                                minimum=0, default=seed)
            return UniformRandomPerturbation(amplitude=amp, seed=own_seed)
        if kind == "periodic":
            chk.expect_keys(path, raw, {"kind", "pattern"})
            pattern = raw.get("pattern")
            if not isinstance(pattern, list) or not pattern:
                chk.error(f"{path}.pattern", "expected a nonempty list")
                return NoPerturbation()
            return PeriodicPerturbation(pattern=tuple(
                _number(v, f"{path}.pattern[{i}]", chk, default=0.0)
                for i, v in enumerate(pattern)))
        if kind == "explicit":
            chk.expect_keys(path, raw, {"kind", "first_site", "table"})
            table = raw.get("table")
            if not isinstance(table, list):
                chk.error(f"{path}.table", "expected a list")
                return NoPerturbation()
            return ExplicitPerturbation(
                first_site=_integer(raw.get("first_site"),
                                    f"{path}.first_site", chk, default=0),
                table=tuple(_number(v, f"{path}.table[{i}]", chk, default=0.0)
                            for i, v in enumerate(table)))
    except PotentialError as exc:
        chk.error(path, str(exc))
        return NoPerturbation()
    chk.error(f"{path}.kind", f"unknown kind {kind!r}")
    return NoPerturbation()


def _parse_potential(raw, seed: int, chk: _Checker) -> PotentialSpec | None:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        chk.error("potential", "expected an object")
        return None
    # "family" is tolerated so echoed configs round-trip; it is derived
    chk.expect_keys("potential", raw,
                    {"slope", "perturbation", "maryland", "family"})
    perturbation = _parse_perturbation(raw.get("perturbation"), seed, chk)
    maryland_raw = raw.get("maryland")
    maryland = None
    if maryland_raw is not None:
        if not isinstance(maryland_raw, dict):
            chk.error("potential.maryland", "expected an object")
        else:
            chk.expect_keys("potential.maryland", maryland_raw,
                            {"coupling", "frequency", "phase"})
            coupling = _number(maryland_raw.get("coupling"),
                               "potential.maryland.coupling", chk)
            frequency = _number(maryland_raw.get("frequency"),
                                "potential.maryland.frequency", chk)
            if coupling is None:
                chk.error("potential.maryland.coupling", "required")
            if frequency is None:
                chk.error("potential.maryland.frequency", "required")
            phase = _number(maryland_raw.get("phase"),
                            "potential.maryland.phase", chk, default=0.0)
            if coupling is not None and frequency is not None:
                maryland = MarylandPotential(coupling=coupling,
                                             frequency=frequency, phase=phase)
    slope = raw.get("slope", None if maryland is not None else 1.0)
    if slope is not None:
        slope = _number(slope, "potential.slope", chk, default=1.0)
    if maryland is not None and slope is not None:
        chk.error("potential",
                  "maryland replaces the linear field; omit slope or set "
                  "it to null")
        return None
    if chk.problems:
        return None
    try:
        return PotentialSpec(field_slope=slope, perturbation=perturbation,
                             maryland=maryland)
    except PotentialError as exc:
        chk.error("potential", str(exc))
        return None


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict exhaustively; raise ConfigError listing
    every problem with its field path."""
    chk = _Checker()
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be an object"])
    chk.expect_keys("", raw, {"kernel", "potential", "half_widths", "seed",
                              "analyses", "tolerances", "output",
                              "max_dimension"})

    seed = _integer(raw.get("seed"), "seed", chk, minimum=0, default=0)
    if seed is not None and seed >= 2 ** 64:
        chk.error("seed", "must fit in 64 bits")

    if "kernel" not in raw:
        chk.error("kernel", "required")
        kernel = None
    else:
        kernel = _parse_kernel(raw["kernel"], chk)
    potential = _parse_potential(raw.get("potential"), seed or 0, chk)

    half_widths = raw.get("half_widths")
    widths: tuple[int, ...] = ()
    if not isinstance(half_widths, list) or not half_widths:
        chk.error("half_widths", "required nonempty list of integers")
    else:
        vals = [_integer(v, f"half_widths[{i}]", chk, minimum=1, default=1)
                for i, v in enumerate(half_widths)]
        all_ints = all(isinstance(v, int) and not isinstance(v, bool)
                       for v in half_widths)
        if all_ints and any(b <= a for a, b in zip(vals, vals[1:])):
            chk.error("half_widths", "must be strictly ascending")
        widths = tuple(vals)

    if "analyses" in raw:
        analyses_raw = raw["analyses"]
    else:
        analyses_raw = {"asymptotics": True}
    analyses: dict = {"asymptotics": False, "decay": None, "bootstrap": None,
                      "dynamics": None}
    if not isinstance(analyses_raw, dict):
        chk.error("analyses", "expected an object")
    else:
        chk.expect_keys("analyses", analyses_raw,
                        {"asymptotics", "decay", "bootstrap", "dynamics"})
        asym = analyses_raw.get("asymptotics", False)
        if not isinstance(asym, bool):
            chk.error("analyses.asymptotics", "expected true or false")
        else:
            analyses["asymptotics"] = asym
        decay = analyses_raw.get("decay")
        if decay is not None:
            if not isinstance(decay, dict):
                chk.error("analyses.decay", "expected an object")
            else:
                chk.expect_keys("analyses.decay", decay, {"alphas"})
                alphas = decay.get("alphas")
                if not isinstance(alphas, list) or not alphas:
                    chk.error("analyses.decay.alphas",
                              "required nonempty list of positive numbers")
                else:
                    analyses["decay"] = {"alphas": [
                        _number(a, f"analyses.decay.alphas[{i}]", chk,
                                positive=True, default=1.0)
                        for i, a in enumerate(alphas)]}
        boot = analyses_raw.get("bootstrap")
        if boot is not None:
            if not isinstance(boot, dict):
                chk.error("analyses.bootstrap", "expected an object")
            else:
                chk.expect_keys("analyses.bootstrap", boot, {"gamma"})
                gamma = boot.get("gamma")
                if gamma is not None:
                    gamma = _number(gamma, "analyses.bootstrap.gamma", chk,
                                    positive=True)
                analyses["bootstrap"] = {"gamma": gamma}
        dyn = analyses_raw.get("dynamics")
        if dyn is not None:
            if not isinstance(dyn, dict):
                chk.error("analyses.dynamics", "expected an object")
            else:
                chk.expect_keys("analyses.dynamics", dyn,
                                {"sources", "moments", "grid"})
                sources = dyn.get("sources", [0])
                if not isinstance(sources, list) or not sources:
                    chk.error("analyses.dynamics.sources",
                              "required nonempty list of integer sites")
                    sources = [0]
                sources = [_integer(s, f"analyses.dynamics.sources[{i}]",
                                    chk, default=0)
                           for i, s in enumerate(sources)]
                moments = dyn.get("moments", [2.0])
                if not isinstance(moments, list) or not moments:
                    chk.error("analyses.dynamics.moments",
                              "required nonempty list of positive exponents")
                    moments = [2.0]
                moments = [_number(m, f"analyses.dynamics.moments[{i}]", chk,
                                   positive=True, default=2.0)
                           for i, m in enumerate(moments)]
                grid_raw = dyn.get("grid") or {}
                grid = dict(_GRID_DEFAULTS)
                if not isinstance(grid_raw, dict):
                    chk.error("analyses.dynamics.grid", "expected an object")
                else:
                    chk.expect_keys("analyses.dynamics.grid", grid_raw,
                                    set(_GRID_DEFAULTS))
                    for key in ("dt", "t_max"):
                        if key in grid_raw:
                            grid[key] = _number(
                                grid_raw[key],
                                f"analyses.dynamics.grid.{key}", chk,
                                positive=True, default=grid[key])
                    if "quasi_random" in grid_raw:
                        grid["quasi_random"] = _integer(
                            grid_raw["quasi_random"],
                            "analyses.dynamics.grid.quasi_random", chk,
                            minimum=0, default=grid["quasi_random"])
                    if "far_horizon" in grid_raw:
                        grid["far_horizon"] = _number(
                            grid_raw["far_horizon"],
                            "analyses.dynamics.grid.far_horizon", chk,
                            nonnegative=True, default=grid["far_horizon"])
                analyses["dynamics"] = {"sources": sources,
                                        "moments": moments, "grid": grid}

    tol = dict(_TOLERANCE_DEFAULTS)
    tol_raw = raw.get("tolerances") or {}
    if not isinstance(tol_raw, dict):
        chk.error("tolerances", "expected an object")
    else:
        chk.expect_keys("tolerances", tol_raw, set(_TOLERANCE_DEFAULTS))
        for key, value in tol_raw.items():
            if key not in _TOLERANCE_DEFAULTS:
                continue
            if key == "interior_window":
                if value is not None:
                    tol[key] = _integer(value, f"tolerances.{key}", chk,
                                        minimum=0)
            else:
                tol[key] = _number(value, f"tolerances.{key}", chk,
                                   positive=True,
                                   default=_TOLERANCE_DEFAULTS[key])

    out_raw = raw.get("output") or {}
    out_dir = "out"
    dump_op = False
    if not isinstance(out_raw, dict):
        chk.error("output", "expected an object")
    else:
        chk.expect_keys("output", out_raw, {"directory", "dump_operator"})
        if "directory" in out_raw:
            if not isinstance(out_raw["directory"], str):
                chk.error("output.directory", "expected a string")
            else:
                out_dir = out_raw["directory"]
        if "dump_operator" in out_raw:
            if not isinstance(out_raw["dump_operator"], bool):
                chk.error("output.dump_operator", "expected true or false")
            else:
                dump_op = out_raw["dump_operator"]

    max_dim = _integer(raw.get("max_dimension"), "max_dimension", chk,
                       minimum=3, default=8192)

    if widths and max_dim is not None:
        for i, n in enumerate(widths):
            if isinstance(n, int) and 2 * n + 1 > max_dim:
                chk.error(f"half_widths[{i}]",
                          f"box dimension {2 * n + 1} exceeds "
                          f"max_dimension {max_dim}")

    if chk.problems:
        raise ConfigError(chk.problems)
    assert kernel is not None and potential is not None

    effective = {
        "kernel": kernel.describe(),
        "potential": potential.describe(),
        "half_widths": list(widths),
        "seed": seed,
        "analyses": analyses,
        "tolerances": tol,
        "output": {"directory": out_dir, "dump_operator": dump_op},
        "max_dimension": max_dim,
    }
    return ExperimentConfig(kernel=kernel, potential=potential,
                            half_widths=widths, seed=seed,
                            analyses=analyses, tolerances=tol,
                            output_dir=out_dir, dump_operator=dump_op,
                            max_dimension=max_dim, effective=effective)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config {path} is not valid JSON: {exc}"]) from exc
    return parse_config(raw)


@dataclass
class StageRecord:
    name: str
    status: str  # ok | failed | skipped | reused
    error: str | None = None
    outputs: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "error": self.error, "outputs": sorted(self.outputs)}


@dataclass
class RunManifest:
    tool_version: str
    config_hash: str
    created_utc: str
    stages: list
    checks: dict
    effective_config: dict

    def to_dict(self) -> dict:
        return {"tool_version": self.tool_version,
                "config_hash": self.config_hash,
                "created_utc": self.created_utc,
                "stages": [s.to_dict() for s in self.stages],
                "checks": self.checks,
                "effective_config": self.effective_config}

    def stage(self, name: str) -> StageRecord:
        for rec in self.stages:
            if rec.name == name:
                return rec
        raise KeyError(name)

    @property
    def any_stage_failed(self) -> bool:
        return any(s.status == "failed" for s in self.stages)

    @property
    def all_checks_passed(self) -> bool:
        return bool(self.checks.get("passed", True))


def _kernel_box_norm(config: ExperimentConfig, half_width: int) -> float:
    kernel = config.kernel
    if kernel.infinite_support:
        cutoff = max(kernel.cutoff or 0, 2 * half_width + 1)
    else:
        cutoff = max(kernel.support_radius, 1)
    return weighted_norm(kernel, 0.0, cutoff).partial_sum


def _first_difference(want, got, path: str):
    """(path, wanted, found) at the first leaf where two JSON values differ."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in list(want) + [k for k in got if k not in want]:
            diff = _first_difference(want.get(key), got.get(key),
                                     f"{path}.{key}")
            if diff is not None:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list) \
            and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            diff = _first_difference(w, g, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    return None if want == got else (path, want, got)


def _check_provenance(config: ExperimentConfig, half_width: int, sd) -> None:
    """Refuse a reloaded dump whose provenance differs from the config.

    Compares the kernel as assembled in the box, the potential with its
    seed, the half-width, the gate tolerances and an explicitly configured
    interior window; the error names the first differing field.
    """
    tol = config.tolerances
    want = {"kernel": box_kernel(config.kernel, half_width).describe(),
            "potential": config.potential.describe(),
            "half_width": half_width,
            "residual_tol": tol["residual"],
            "orthonormality_tol": tol["orthonormality"],
            "degeneracy_gap": tol["degeneracy_gap"]}
    got = {key: sd.provenance.get(key) for key in want}
    diff = _first_difference(want, got, "provenance")
    if diff is None and tol["interior_window"] is not None:
        diff = _first_difference(tol["interior_window"], sd.interior_window,
                                 "interior_window")
    if diff is not None:
        path, wanted, found = diff
        raise ProvenanceMismatchError(
            f"spectrum_N{half_width}.json was written for another config: "
            f"{path} is {found!r} in the dump but {wanted!r} in the config")


def run(config: ExperimentConfig, stages=None, threads: int = 1,
        reuse_spectra: bool = False) -> RunManifest:
    """Execute the requested stages and write artifacts plus manifest.json.

    stages defaults to every stage enabled by the config's analyses block
    (study only when at least two half-widths are configured).  With
    reuse_spectra=True the spectrum stage loads existing dumps from the
    output directory instead of recomputing them.
    """
    if stages is None:
        stages = ["spectrum"]
        if config.analyses["asymptotics"]:
            stages.append("asymptotics")
        if config.analyses["decay"]:
            stages.append("ule")
        if config.analyses["bootstrap"]:
            stages.append("bootstrap")
        if config.analyses["dynamics"]:
            stages.append("dynamics")
        if len(config.half_widths) >= 2:
            stages.append("study")
    stages = list(stages)
    for name in stages:
        if name not in ALL_STAGES:
            raise ValueError(f"unknown stage {name!r}")
    if "study" in stages and len(config.half_widths) < 2:
        raise ConfigError(
            ["half_widths: a convergence study needs at least two box sizes"])

    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    records: list[StageRecord] = []
    failures: list[str] = []
    spectra: dict[int, object] = {}
    # (half_width, alpha) -> UniformDecayReport, kept for the study stage
    decay_reports: dict = {}
    tol = config.tolerances

    def record(name: str) -> StageRecord:
        rec = StageRecord(name=name, status="skipped")
        records.append(rec)
        return rec

    # ---- spectrum ----
    spectrum_rec = record("spectrum")
    spectrum_enabled = "spectrum" in stages or any(
        s in stages for s in ALL_STAGES[1:])
    if spectrum_enabled:
        def one_spectrum(n: int):
            base = os.path.join(out_dir, f"spectrum_N{n}")
            if reuse_spectra:
                sd = load_spectral(base)
                _check_provenance(config, n, sd)
                outs = [f"spectrum_N{n}.json", f"spectrum_N{n}.bin"]
                if os.path.exists(os.path.join(out_dir, f"operator_N{n}.bin")):
                    outs.append(f"operator_N{n}.bin")
                return n, sd, outs
            op = build_operator(config.kernel, config.potential, n,
                                max_dimension=config.max_dimension)
            sd = diagonalize(op, interior_window=tol["interior_window"],
                             residual_tol=tol["residual"],
                             orthonormality_tol=tol["orthonormality"],
                             degeneracy_gap=tol["degeneracy_gap"])
            save_spectral(sd, base)
            outs = [f"spectrum_N{n}.json", f"spectrum_N{n}.bin"]
            if config.dump_operator:
                dump_matrix(op, os.path.join(out_dir, f"operator_N{n}.bin"))
                outs.append(f"operator_N{n}.bin")
            return n, sd, outs

        try:
            if threads > 1 and len(config.half_widths) > 1 and not reuse_spectra:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    results = list(pool.map(one_spectrum, config.half_widths))
            else:
                results = [one_spectrum(n) for n in config.half_widths]
            for n, sd, outs in results:
                spectra[n] = sd
                spectrum_rec.outputs.extend(outs)
            spectrum_rec.status = "reused" if reuse_spectra else "ok"
        except Exception as exc:  # noqa: BLE001 - stage boundary
            spectrum_rec.status = "failed"
            spectrum_rec.error = f"{type(exc).__name__}: {exc}"

    spectra_ready = spectrum_rec.status in ("ok", "reused")
    localization_summary: dict = {"tolerances": {
        k: v for k, v in tol.items()}}

    # ---- asymptotics ----
    asym_rec = record("asymptotics")
    if "asymptotics" in stages and config.analyses["asymptotics"]:
        if not spectra_ready:
            asym_rec.status = "skipped"
            asym_rec.error = "upstream spectrum stage did not complete"
        else:
            try:
                rows = []
                section = {}
                for n in config.half_widths:
                    sd = spectra[n]
                    rep = check_eigenvalue_asymptotics(
                        sd, config.kernel, config.potential)
                    for row in asymptotics_rows(sd, rep):
                        rows.append((n,) + row)
                    section[str(n)] = {
                        "max_deviation": rep.max_deviation,
                        "bound": rep.bound,
                        "passed": rep.passed,
                        "hopping_norm": rep.hopping_norm,
                        "perturbation_sup": rep.perturbation_sup,
                        "center_offset_sup": rep.center_offset_sup,
                        "n_interior": rep.n_interior,
                    }
                    if not rep.passed:
                        failures.append(
                            f"asymptotics: N={n} max deviation "
                            f"{rep.max_deviation:.6g} exceeds bound "
                            f"{rep.bound:.6g}")
                write_csv(os.path.join(out_dir, "asymptotics.csv"),
                          ["half_width", "ladder_index", "eigenvalue",
                           "deviation", "center"], rows)
                asym_rec.outputs.append("asymptotics.csv")
                localization_summary["asymptotics"] = section
                asym_rec.status = "ok"
            except Exception as exc:  # noqa: BLE001 - stage boundary
                asym_rec.status = "failed"
                asym_rec.error = f"{type(exc).__name__}: {exc}"

    # ---- uniform decay ----
    ule_rec = record("ule")
    if "ule" in stages and config.analyses["decay"]:
        if not spectra_ready:
            ule_rec.status = "skipped"
            ule_rec.error = "upstream spectrum stage did not complete"
        else:
            try:
                rows = []
                section: dict = {}
                for n in config.half_widths:
                    sd = spectra[n]
                    per_n: dict = {}
                    for alpha in config.analyses["decay"]["alphas"]:
                        rep = uniform_decay_constants(sd, alpha)
                        decay_reports[n, alpha] = rep
                        for row in decay_rows(sd, rep):
                            rows.append((n, alpha) + row)
                        per_n[format(alpha, "g")] = {
                            "sup_constant": rep.sup_constant,
                            "sup_constant_by_index": rep.sup_constant_by_index,
                            "n_modes": rep.n_modes,
                        }
                    section[str(n)] = per_n
                write_csv(os.path.join(out_dir, "ule.csv"),
                          ["half_width", "alpha", "ladder_index",
                           "eigenvalue", "center", "mode_constant",
                           "mode_constant_by_index", "fit_exponent"], rows)
                ule_rec.outputs.append("ule.csv")
                localization_summary["decay"] = section
                ule_rec.status = "ok"
            except Exception as exc:  # noqa: BLE001 - stage boundary
                ule_rec.status = "failed"
                ule_rec.error = f"{type(exc).__name__}: {exc}"

    # ---- bootstrap ----
    boot_rec = record("bootstrap")
    if "bootstrap" in stages and config.analyses["bootstrap"]:
        if not spectra_ready:
            boot_rec.status = "skipped"
            boot_rec.error = "upstream spectrum stage did not complete"
        else:
            try:
                section = {}
                for n in config.half_widths:
                    sd = spectra[n]
                    gamma = config.analyses["bootstrap"]["gamma"]
                    if gamma is None:
                        b_sup = float(sd.provenance.get(
                            "perturbation_sup", 0.0))
                        gamma = _kernel_box_norm(config, n) + b_sup + 1.0
                    rep = bootstrap_decay_check(
                        sd, config.kernel, gamma,
                        base_slack=tol["bootstrap_slack"])
                    section[str(n)] = {
                        "gamma": rep.gamma,
                        "n_modes": rep.n_modes,
                        "n_checked": rep.n_checked,
                        "n_violations": len(rep.violations),
                        "passed": rep.passed,
                        "violations": [
                            {"ladder_index": v.ladder_index, "site": v.site,
                             "lhs": v.lhs, "rhs": v.rhs, "slack": v.slack}
                            for v in rep.violations[:100]],
                    }
                    if not rep.passed:
                        failures.append(
                            f"bootstrap: N={n} has {len(rep.violations)} "
                            "violations beyond slack")
                localization_summary["bootstrap"] = section
                boot_rec.status = "ok"
            except Exception as exc:  # noqa: BLE001 - stage boundary
                boot_rec.status = "failed"
                boot_rec.error = f"{type(exc).__name__}: {exc}"

    if any(k in localization_summary
           for k in ("asymptotics", "decay", "bootstrap")):
        write_json(os.path.join(out_dir, "localization.json"),
                   localization_summary)
        # the summary belongs to exactly one manifest entry: the first
        # localization stage that completed
        owner = next(rec for rec in records
                     if rec.name in ("asymptotics", "ule", "bootstrap")
                     and rec.status == "ok")
        owner.outputs.append("localization.json")

    # ---- dynamics ----
    dyn_rec = record("dynamics")
    if "dynamics" in stages and config.analyses["dynamics"]:
        if not spectra_ready:
            dyn_rec.status = "skipped"
            dyn_rec.error = "upstream spectrum stage did not complete"
        else:
            try:
                dyn = config.analyses["dynamics"]
                grid = dyn["grid"]
                times = time_grid(dt=grid["dt"], t_max=grid["t_max"],
                                  quasi_random=grid["quasi_random"],
                                  far_horizon=grid["far_horizon"])
                n_series = config.half_widths[-1]
                sd_series = spectra[n_series]
                envelope_doc: dict = {"grid": grid,
                                      "series_half_width": n_series,
                                      "sources": {}, "verdicts": []}
                for k in dyn["sources"]:
                    per_width: dict = {}
                    for n in config.half_widths:
                        env = envelope(spectra[n], k, dyn["moments"])
                        per_width[str(n)] = {
                            "moments": {
                                format(q, "g"): {
                                    "value": env.moments[float(q)][0],
                                    "boundary_share": env.moments[float(q)][1],
                                } for q in dyn["moments"]}}
                    envelope_doc["sources"][str(k)] = {
                        "half_widths": per_width}
                    for q in dyn["moments"]:
                        series = moment_series(sd_series, k, q, times)
                        name = f"moments_q{format(q, 'g')}_k{k}.csv"
                        write_csv(os.path.join(out_dir, name),
                                  ["t", "moment"],
                                  list(zip(series.times, series.values)))
                        dyn_rec.outputs.append(name)
                alphas = ((config.analyses["decay"] or {}).get("alphas")
                          or [])
                if len(config.half_widths) >= 2:
                    sd_small = spectra[config.half_widths[-2]]
                    sd_big = sd_series
                else:
                    sd_small, sd_big = sd_series, None
                for alpha in alphas:
                    for k in dyn["sources"]:
                        for q in dyn["moments"]:
                            verdict = moment_bound_verdict(
                                sd_small, alpha, q, source=k,
                                doubled=sd_big,
                                ratio_limit=tol["doubling_ratio_limit"],
                                share_limit=tol["boundary_share_limit"])
                            envelope_doc["verdicts"].append({
                                "alpha": verdict.alpha, "q": verdict.q,
                                "source": verdict.source,
                                "hypothesis_satisfied":
                                    verdict.hypothesis_satisfied,
                                "envelope_moment": verdict.envelope_moment,
                                "boundary_share": verdict.boundary_share,
                                "doubling_ratio": verdict.doubling_ratio,
                                "conclusion": verdict.conclusion,
                            })
                            if (verdict.hypothesis_satisfied
                                    and verdict.doubling_ratio is not None
                                    and not verdict.asserts_bounded
                                    and "inconclusive" not in
                                    verdict.conclusion):
                                failures.append(
                                    f"dynamics: alpha={alpha} q={q} k={k} "
                                    f"{verdict.conclusion}")
                write_json(os.path.join(out_dir, "envelope.json"),
                           envelope_doc)
                dyn_rec.outputs.append("envelope.json")
                dyn_rec.status = "ok"
            except Exception as exc:  # noqa: BLE001 - stage boundary
                dyn_rec.status = "failed"
                dyn_rec.error = f"{type(exc).__name__}: {exc}"

    # ---- study ----
    study_rec = record("study")
    if "study" in stages:
        if not spectra_ready:
            study_rec.status = "skipped"
            study_rec.error = "upstream spectrum stage did not complete"
        else:
            try:
                # reports of a ule stage that did not finish are not reused
                reused = decay_reports if ule_rec.status == "ok" else {}
                study = _study_tables(config, spectra, failures, reused)
                write_json(os.path.join(out_dir, "study.json"), study)
                study_rec.outputs.append("study.json")
                study_rec.status = "ok"
            except Exception as exc:  # noqa: BLE001 - stage boundary
                study_rec.status = "failed"
                study_rec.error = f"{type(exc).__name__}: {exc}"

    checks = {"passed": not failures, "failures": failures}
    manifest = RunManifest(
        tool_version=__version__,
        config_hash=config.config_hash(),
        created_utc=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        stages=records, checks=checks,
        effective_config=config.effective)
    write_json(os.path.join(out_dir, "manifest.json"), manifest.to_dict())
    return manifest


def _study_tables(config: ExperimentConfig, spectra: dict,
                  failures: list, decay_reports: dict) -> dict:
    """Drift of eigenvalues, decay constants, and envelope moments in N.

    Drifts compare the ladder indices trusted at both sizes.  A decay row
    holds each box's sup constant (first, second) and the largest relative
    change of a per-mode constant over the shared indices.  decay_reports
    maps (half_width, alpha) to a report already computed; missing ones
    are computed here.
    """
    tol = config.tolerances
    widths = list(config.half_widths)
    eig_rows = []
    for n1, n2 in zip(widths, widths[1:]):
        sd1, sd2 = spectra[n1], spectra[n2]
        bound = min(n1 - sd1.interior_window, n2 - sd2.interior_window)
        drifts = []
        count = 0
        for idx in range(-bound, bound + 1):
            try:
                v1 = sd1.eigenvalue_of(idx)
                v2 = sd2.eigenvalue_of(idx)
            except IndexError:
                continue
            drifts.append(abs(v1 - v2))
            count += 1
        max_drift = max(drifts) if drifts else 0.0
        within = max_drift <= tol["eigenvalue_drift"]
        if not within:
            failures.append(
                f"study: eigenvalue drift {max_drift:.3e} between N={n1} "
                f"and N={n2} exceeds {tol['eigenvalue_drift']:.1e}")
        eig_rows.append({"pair": [n1, n2], "max_drift": max_drift,
                         "indices_compared": count,
                         "within_tolerance": within})

    decay_rows_out = []
    alphas = ((config.analyses["decay"] or {}).get("alphas") or [])
    for alpha in alphas:
        reports = {n: decay_reports[n, alpha] if (n, alpha) in decay_reports
                   else uniform_decay_constants(spectra[n], alpha)
                   for n in widths}
        for n1, n2 in zip(widths, widths[1:]):
            rep1, rep2 = reports[n1], reports[n2]
            # the two sups range over different trusted sets, so the
            # drift compares the modes trusted in both boxes one by one
            second = dict(rep2.per_mode)
            changes = [abs(second[m] - c1) / max(abs(c1), 1e-300)
                       for m, c1 in rep1.per_mode if m in second]
            decay_rows_out.append({"alpha": alpha, "pair": [n1, n2],
                                   "first": rep1.sup_constant,
                                   "second": rep2.sup_constant,
                                   "indices_compared": len(changes),
                                   "relative_change": max(changes,
                                                          default=0.0)})

    env_rows = []
    dyn = config.analyses["dynamics"]
    if dyn:
        for k in dyn["sources"]:
            for q in dyn["moments"]:
                for n1, n2 in zip(widths, widths[1:]):
                    e1 = envelope(spectra[n1], k, (q,)).moments[float(q)][0]
                    e2 = envelope(spectra[n2], k, (q,)).moments[float(q)][0]
                    ratio = e2 / e1 if e1 > 0 else 1.0
                    env_rows.append({
                        "q": q, "source": k, "pair": [n1, n2],
                        "ratio": ratio,
                        "within_limit": ratio < tol["doubling_ratio_limit"]})

    return {"eigenvalue_drift": eig_rows, "decay_drift": decay_rows_out,
            "envelope_ratios": env_rows}


def convergence_study(config: ExperimentConfig, threads: int = 1,
                      reuse_spectra: bool = False) -> RunManifest:
    """Run every enabled stage plus the cross-size drift tables."""
    stages = ["spectrum"]
    if config.analyses["asymptotics"]:
        stages.append("asymptotics")
    if config.analyses["decay"]:
        stages.append("ule")
    if config.analyses["bootstrap"]:
        stages.append("bootstrap")
    if config.analyses["dynamics"]:
        stages.append("dynamics")
    stages.append("study")
    return run(config, stages=stages, threads=threads,
               reuse_spectra=reuse_spectra)
