"""Experiment configs, staged runs, and deterministic output files.

A config (JSON) fixes the kernel, the potential, the box sizes, the seed,
and which analyses run.  ``run`` executes stages in order

    spectrum -> asymptotics / ule / bootstrap / dynamics -> study

writing one manifest plus per-stage artifacts into the output directory.
A failed stage marks everything downstream of it skipped, but analysis
stages are siblings: one refusing does not block another.  Reruns with the
same config and seed give byte-identical CSV and JSON payloads (the
manifest differs in its timestamp and its per-stage timing).
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import inspect
import json
import math
import os
import resource
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import dynamics, localization, spectra
from ._format import dumps_json, write_csv, write_json
from ._version import __version__
from .dynamics import envelope, moment_bound_verdict, moment_series, time_grid
from .kernels import HoppingKernel, KernelError, build_kernel
from .localization import (bootstrap_decay_check,
                           check_eigenvalue_asymptotics,
                           uniform_decay_constants)
from .operators import (MAX_DIMENSION_DEFAULT, ConstantPerturbation,
                        ExplicitPerturbation, MarylandPotential,
                        NoPerturbation, PeriodicPerturbation, PotentialError,
                        PotentialSpec, UniformRandomPerturbation,
                        build_operator)
from .spectra import (blas_runtime, diagonalize, load_spectral, provenance,
                      recheck_residuals, save_spectral)

__all__ = [
    "ConfigError",
    "ProvenanceMismatchError",
    "ExperimentConfig",
    "StageRecord",
    "RunManifest",
    "load_config",
    "parse_config",
    "run",
    "ALL_STAGES",
    "EIGENVALUE_DRIFT",
]

# how far a trusted eigenvalue may move between two box sizes in a study
EIGENVALUE_DRIFT = 1e-8


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
    interior_window: int | None
    output_dir: str
    max_dimension: int
    effective: dict

    def config_hash(self) -> str:
        hashed = {k: v for k, v in self.effective.items() if k != "output"}
        return hashlib.sha256(dumps_json(hashed).encode()).hexdigest()

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


_ABSENT = object()  # default of a field that is left out when absent


@dataclass(frozen=True)
class _Field:
    """One entry of the config table: how to parse one field.

    kind is number, integer, bool, string, amplitude (a number or
    {re, im}), list (of item), object (of fields, or of item under
    integer keys) or any (taken as given).  An object with a tag key is
    tagged: its tag, or else tag_default, picks its fields from fields.

    An explicit null counts as absent unless the field is nullable.  An
    absent field reports required if that is set; otherwise it parses
    default as if given, except that None stays None and _ABSENT leaves
    the key out.  A value of the wrong type reports expected, or the
    kind's text, and parses as default.  A well-typed value that fails
    a test of bound, a tuple of (test, text) pairs, reports each failing
    text and is kept.
    unknown is the text, formatted with the tag, for a tag that picks
    no fields.
    """

    kind: str
    default: object = None
    required: str | None = None
    expected: str | None = None
    bound: tuple = ()
    nullable: bool = False
    item: "_Field | None" = None
    fields: dict | None = None
    tag: str | None = None
    tag_default: str | None = None
    unknown: str | None = None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# kind -> (test of a well-typed value, problem text for any other value)
_KINDS = {
    "number": (_is_number, "expected a number"),
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool),
                "expected an integer"),
    "bool": (lambda v: isinstance(v, bool), "expected true or false"),
    "string": (lambda v: isinstance(v, str), "expected a string"),
    "amplitude": (_is_number, "expected a number or {re, im}"),
    "list": (lambda v: isinstance(v, list), "expected a list"),
    "object": (lambda v: isinstance(v, dict), "expected an object"),
    "any": (lambda v: True, None),
}
_POSITIVE = ((lambda v: v > 0, "must be positive"),)
_NONNEGATIVE = ((lambda v: v >= 0, "must be nonnegative"),)


def _at_least(minimum: int) -> tuple:
    return ((lambda v: v >= minimum, f"must be >= {minimum}"),)


_SEED = _at_least(0) + ((lambda v: v < 2 ** 64, "must fit in 64 bits"),)


def _positive(default=None) -> _Field:
    return _Field("number", default=default, bound=_POSITIVE)


def _list(item: _Field, text: str, default=None, nonempty=True) -> _Field:
    """A list field whose wrong type, emptiness and absence all read text
    (absence only when it has no default)."""
    return _Field("list", item=item, expected=text, default=default,
                  required=text if default is None else None,
                  bound=((len, text),) if nonempty else ())


def _distinct(spec: _Field) -> _Field:
    """The list field whose parsed entries must differ: 2 and 2.0 collide.
    Entries of the wrong type parse as None and are left out."""
    unique = (lambda v: len(set(v) - {None}) == len(v) - v.count(None),
              "entries must be distinct")
    return replace(spec, bound=spec.bound + (unique,))


def _amplitudes(kind: str, text: str) -> _Field:
    return _Field(kind, item=_Field("amplitude"), expected=text, required=text)


_GRID = {name: p.default
         for name, p in inspect.signature(time_grid).parameters.items()}

# the table of every config field, walked in this order
_CONFIG = _Field("object", expected="config root must be an object", fields={
    "seed": _Field("integer", default=0, bound=_SEED),
    "kernel": _Field(
        "object", required="required", tag="family",
        unknown="unknown family {!r}; expected nearest_neighbor, "
                "power_law, finite_support, or custom",
        fields={
            "nearest_neighbor": {"amplitude": _Field("amplitude",
                                                     default=1.0)},
            "power_law": {
                "exponent": _Field("number",
                                   required="required for power_law")},
            "finite_support": {"half": _amplitudes(
                "list", "expected a list [a(1), a(2), ...]")},
            "custom": {"coefficients": _amplitudes(
                "object", "expected {offset: amplitude}")}}),
    "potential": _Field("object", default={}, fields={
        # null slope: no linear field; absent: 1 unless maryland is given
        "slope": _Field("number", default=_ABSENT, nullable=True),
        "perturbation": _Field(
            "object", default={}, tag="kind", tag_default="none",
            unknown="unknown kind {!r}", fields={
                "none": {},
                "constant": {"offset": _Field("number", default=0.0)},
                "uniform_random": {
                    "amplitude": _Field("number", default=0.0,
                                        bound=_NONNEGATIVE),
                    # absent: the run seed
                    "seed": _Field("integer", default=_ABSENT,
                                   bound=_SEED)},
                "periodic": {"pattern": _list(_Field("number"),
                                              "expected a nonempty list")},
                "explicit": {
                    "first_site": _Field("integer", default=0),
                    "table": _list(_Field("number"), "expected a list",
                                   nonempty=False)}}),
        "maryland": _Field("object", fields={
            "coupling": _Field("number", required="required"),
            "frequency": _Field("number", required="required"),
            "phase": _Field("number", default=0.0)}),
        # tolerated so echoed configs round-trip; the family is derived
        "family": _Field("any")}),
    "half_widths": _list(_Field("integer", bound=_at_least(1)),
                         "required nonempty list of integers"),
    "analyses": _Field("object", default={"asymptotics": True}, fields={
        "asymptotics": _Field("bool", default=False),
        "decay": _Field("object", fields={"alphas": _distinct(_list(
            _positive(), "required nonempty list of positive numbers"))}),
        "bootstrap": _Field("object", fields={"gamma": _positive()}),
        "dynamics": _Field("object", fields={
            "sources": _distinct(_list(
                _Field("integer"), "required nonempty list of integer sites",
                default=[0])),
            "moments": _distinct(_list(
                _positive(), "required nonempty list of positive exponents",
                default=[2.0])),
            "grid": _Field("object", default={}, fields={
                "dt": _positive(_GRID["dt"]),
                "t_max": _positive(_GRID["t_max"]),
                "quasi_random": _Field("integer",
                                       default=_GRID["quasi_random"],
                                       bound=_at_least(0)),
                "far_horizon": _Field("number", default=_GRID["far_horizon"],
                                      bound=_NONNEGATIVE)})})}),
    "tolerances": _Field("object", default={}, fields={
        "interior_window": _Field("integer", bound=_at_least(0))}),
    "output": _Field("object", default={}, fields={
        "directory": _Field("string", default="out",
                            bound=((len, "must not be empty"),))}),
    "max_dimension": _Field("integer", default=MAX_DIMENSION_DEFAULT,
                            bound=_at_least(3)),
})

_PERTURBATIONS = {"none": NoPerturbation, "constant": ConstantPerturbation,
                  "uniform_random": UniformRandomPerturbation,
                  "periodic": PeriodicPerturbation,
                  "explicit": ExplicitPerturbation}

def _offset(key) -> int | None:
    """The integer a coefficient key spells exactly, like "-2"; else None."""
    try:
        return int(key) if str(int(key)) == key else None
    except (TypeError, ValueError):
        return None


def _walk(spec: _Field, value, path: str, problems: list):
    """Parse value by its table entry; append 'path: problem' lines."""
    def problem(text, at=path):
        problems.append(f"{at}: {text}" if at != "" else text)

    kind = spec.kind
    parts = {path: value}
    if kind == "amplitude" and isinstance(value, dict) \
            and set(value) <= {"re", "im"}:
        parts = {f"{path}.{key}": 0.0 if value.get(key) is None
                 else value[key] for key in ("re", "im")}
    well_typed, expected = _KINDS[kind]
    if not all(map(well_typed, parts.values())):
        problem(spec.expected or expected)
        return spec.default
    if kind in ("number", "amplitude"):
        reals = []
        for at, part in parts.items():
            try:
                reals.append(float(part))
            except OverflowError:  # an integer beyond the float range
                reals.append(math.inf)
            if not math.isfinite(reals[-1]):
                problem("must be finite", at)
        if not all(map(math.isfinite, reals)):
            return spec.default
        value = complex(*reals) if kind == "amplitude" else reals[0]
    elif kind == "list":
        value = [_walk(spec.item, v, f"{path}[{i}]", problems)
                 for i, v in enumerate(value)]
    elif kind == "object" and spec.item is not None:
        items = {}
        for key, v in value.items():
            offset = _offset(key)
            if offset is None:
                problem("offset keys must be integers", f"{path}.{key}")
            else:
                items[offset] = _walk(spec.item, v, f"{path}.{key}",
                                      problems)
        value = items
    elif kind == "object":
        fields, out = spec.fields, {}
        if spec.tag is not None:
            tag = value.get(spec.tag)
            tag = spec.tag_default if tag is None else tag
            fields = spec.fields.get(tag) if isinstance(tag, str) else None
            if fields is None:
                problem(spec.unknown.format(tag), f"{path}.{spec.tag}")
                return spec.default
            out[spec.tag] = tag
        for key in value:
            if key not in fields and key not in out:
                problem("unknown field", f"{path}.{key}" if path else key)
        for key, field in fields.items():
            at = f"{path}.{key}" if path else key
            given = value.get(key)
            if given is None and not (field.nullable and key in value):
                if field.required:
                    problem(field.required, at)
                    continue
                given = field.default
            if given is None:
                out[key] = None
            elif given is not _ABSENT:
                parsed = _walk(field, given, at, problems)
                if parsed is not _ABSENT:
                    out[key] = parsed
        value = out
    for test, text in spec.bound:
        if not test(value):
            problem(text)
    return value


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict exhaustively; raise ConfigError listing
    every problem with its field path.

    The table checks each field on its own; the checks across fields
    follow, and the kernel and the potential are built from sections
    that have no problem."""
    problems: list[str] = []
    values = _walk(_CONFIG, raw, "", problems)
    if values is None:
        raise ConfigError(problems)

    def clean(section: str) -> bool:
        return not any(p.startswith((f"{section}:", f"{section}."))
                       for p in problems)

    seed, max_dim = values["seed"], values["max_dimension"]
    widths = values.get("half_widths") or []
    if all(isinstance(n, int) for n in widths) \
            and any(b <= a for a, b in zip(widths, widths[1:])):
        problems.append("half_widths: must be strictly ascending")
    for i, n in enumerate(widths):
        if isinstance(n, int) and 2 * n + 1 > max_dim:
            problems.append(f"half_widths[{i}]: box dimension {2 * n + 1} "
                            f"exceeds max_dimension {max_dim}")

    kernel = potential = None
    if clean("kernel"):
        try:
            kernel = build_kernel(**values["kernel"])
        except KernelError as exc:
            problems.append(f"kernel: {exc}")
    pot = values["potential"]
    maryland = pot.get("maryland") if clean("potential.maryland") else None
    slope = pot.get("slope", 1.0 if maryland is None else None)
    if maryland is not None and slope is not None:
        problems.append("potential: maryland replaces the linear field; "
                        "omit slope or set it to null")
    elif clean("potential"):
        params = dict(pot["perturbation"])
        kind = params.pop("kind")
        if kind == "uniform_random":
            # a bad run seed is reported once, under seed
            params.setdefault("seed", seed if clean("seed") else 0)
        try:
            potential = PotentialSpec(
                field_slope=slope, perturbation=_PERTURBATIONS[kind](**params),
                maryland=MarylandPotential(**maryland) if maryland else None)
        except PotentialError as exc:
            problems.append(f"potential: {exc}")
    if problems:
        raise ConfigError(problems)

    effective = dict(values, kernel=kernel.describe(),
                     potential=potential.describe())
    window = values["tolerances"]["interior_window"]
    return ExperimentConfig(kernel=kernel, potential=potential,
                            half_widths=tuple(widths), seed=seed,
                            analyses=values["analyses"],
                            interior_window=window,
                            output_dir=values["output"]["directory"],
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
    """One stage of a run.  budgets holds what a stage spent of its error
    budgets, outside the byte-compared outputs: the dynamics stage maps
    source -> q -> {dropped_weight} of its moment series, the bootstrap
    stage half_width -> {n_candidates, min_margin, min_margin_at} of its
    report."""

    name: str
    status: str  # ok | failed | skipped | reused
    error: str | None = None
    outputs: list = field(default_factory=list)
    budgets: dict = field(default_factory=dict)


@dataclass
class RunManifest:
    """What a run did.  timing (per stage that ran: wall and CPU seconds,
    and the process's peak RSS once it ended) and environment (what byte
    identity depends on) describe the run, not its results."""

    tool_version: str
    config_hash: str
    created_utc: str
    stages: list
    checks: dict
    effective_config: dict
    timing: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

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


def _check_provenance(config: ExperimentConfig, op, sd) -> None:
    """Refuse a reloaded dump whose provenance differs from the one
    diagonalize records for the config's box op, naming the first
    differing field, or whose eigenpairs fail the residual gate again
    (spectra.recheck_residuals: tridiagonal boxes only)."""
    diff = _first_difference(provenance(op, config.interior_window),
                             sd.provenance, "provenance")
    if diff is not None:
        path, wanted, found = diff
        raise ProvenanceMismatchError(
            f"spectrum_N{op.half_width}.json was written for another config: "
            f"{path} is {found!r} in the dump but {wanted!r} in the config")
    recheck_residuals(sd, op)


@dataclass
class _RunContext:
    """What the stages of one run share.

    A stage writes its files through write_csv/write_json, which list them
    under the running stage, and its spent error budgets into budgets.
    decay_reports and envelopes are measured by the first stage that reads
    them and reused by the later ones.
    """

    config: ExperimentConfig
    reuse_spectra: bool
    spectra: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    localization: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    budgets: dict = field(default_factory=dict)

    @cached_property
    def decay_reports(self) -> dict:
        """(half_width, alpha) -> UniformDecayReport, one call per box."""
        alphas = self.config.analyses["decay"]["alphas"]
        return {(n, rep.alpha): rep for n in self.config.half_widths
                for rep in uniform_decay_constants(self.spectra[n], alphas)}

    @cached_property
    def envelopes(self) -> dict:
        """(source, half_width) -> EnvelopeBound for every configured
        moment."""
        dyn = self.config.analyses["dynamics"]
        return {(k, n): envelope(self.spectra[n], k, dyn["moments"])
                for k in dyn["sources"] for n in self.config.half_widths}

    def write_csv(self, name: str, parts) -> None:
        """Write the tables parts (dicts of columns, one key order), one
        after the other, as the CSV name."""
        write_csv(os.path.join(self.config.output_dir, name),
                  {key: np.concatenate([part[key] for part in parts])
                   for key in parts[0]})
        self.outputs.append(name)

    def write_json(self, name: str, doc) -> None:
        write_json(os.path.join(self.config.output_dir, name), doc)
        self.outputs.append(name)


def _spectrum_stage(ctx: _RunContext) -> None:
    """Solve (or reload) every box, the largest first, so that no smaller
    box's eigenvectors are resident under the largest solve, which sets
    the run's peak; ctx.spectra then lists them in config order, which
    every later stage and file follows."""
    config = ctx.config
    solved = {}
    for n in reversed(config.half_widths):  # they ascend
        base = os.path.join(config.output_dir, f"spectrum_N{n}")
        op = build_operator(config.kernel, config.potential, n,
                            max_dimension=config.max_dimension)
        if ctx.reuse_spectra:
            sd = load_spectral(base)
            _check_provenance(config, op, sd)
        else:
            sd = diagonalize(op, config.interior_window)
            save_spectral(sd, base)
        solved[n] = sd
        ctx.outputs += [f"spectrum_N{n}.json", f"spectrum_N{n}.bin"]
    ctx.spectra.update((n, solved[n]) for n in config.half_widths)


def _asymptotics_stage(ctx: _RunContext) -> None:
    parts = []
    section = {}
    for n, sd in ctx.spectra.items():
        rep = check_eigenvalue_asymptotics(sd)
        at = sd.anchor_position + rep.ladder
        parts.append({"half_width": np.full(rep.n_interior, n),
                      "ladder_index": rep.ladder,
                      "eigenvalue": sd.eigenvalues[at],
                      "deviation": rep.deviations, "center": sd.centers[at]})
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
            ctx.failures.append(
                f"asymptotics: N={n} max deviation {rep.max_deviation:.6g} "
                f"exceeds bound {rep.bound:.6g}")
    ctx.write_csv("asymptotics.csv", parts)
    ctx.localization["asymptotics"] = section


def _ule_stage(ctx: _RunContext) -> None:
    parts = []
    section = {}
    reports = ctx.decay_reports
    for n, sd in ctx.spectra.items():
        per_n = {}
        for alpha in ctx.config.analyses["decay"]["alphas"]:
            rep = reports[n, alpha]
            at = sd.anchor_position + rep.ladder
            parts.append({
                "half_width": np.full(rep.n_modes, n),
                "alpha": np.full(rep.n_modes, alpha),
                "ladder_index": rep.ladder, "eigenvalue": sd.eigenvalues[at],
                "center": sd.centers[at], "mode_constant": rep.per_mode,
                "mode_constant_by_index": rep.per_mode_by_index,
                "fit_exponent": rep.fit_exponents})
            per_n[format(alpha, "g")] = {
                "sup_constant": rep.sup_constant,
                "sup_constant_by_index": rep.sup_constant_by_index,
                "n_modes": rep.n_modes,
            }
        section[str(n)] = per_n
    ctx.write_csv("ule.csv", parts)
    ctx.localization["decay"] = section


def _bootstrap_stage(ctx: _RunContext) -> None:
    config = ctx.config
    section = {}
    for n, sd in ctx.spectra.items():
        rep = bootstrap_decay_check(sd, config.analyses["bootstrap"]["gamma"])
        section[str(n)] = {
            "gamma": rep.gamma,
            "n_modes": rep.n_modes,
            "n_checked": rep.n_checked,
            "n_violations": len(rep.violations),
            "passed": rep.passed,
            "violations": [asdict(v) for v in rep.violations[:100]],
        }
        ctx.budgets[str(n)] = {"n_candidates": rep.n_candidates,
                               "min_margin": rep.min_margin,
                               "min_margin_at": rep.min_margin_at}
        if not rep.passed:
            ctx.failures.append(f"bootstrap: N={n} has {len(rep.violations)} "
                                "violations beyond slack")
    ctx.localization["bootstrap"] = section


def _dynamics_stage(ctx: _RunContext) -> None:
    config = ctx.config
    dyn = config.analyses["dynamics"]
    grid = dyn["grid"]
    times = time_grid(**grid)
    widths = config.half_widths
    envs = ctx.envelopes
    envelope_doc: dict = {"grid": grid, "series_half_width": widths[-1],
                          "sources": {}, "verdicts": []}
    for k in dyn["sources"]:
        envelope_doc["sources"][str(k)] = {"half_widths": {
            str(n): {"moments": {
                format(q, "g"): {
                    "value": envs[k, n].moment_bound(q),
                    "boundary_share": envs[k, n].boundary_share(q),
                } for q in dyn["moments"]}}
            for n in widths}}
        series = moment_series(ctx.spectra[widths[-1]], envs[k, widths[-1]],
                               dyn["moments"], times)
        for q, values, dropped in zip(series.qs, series.values,
                                      series.dropped):
            ctx.write_csv(f"moments_q{format(q, 'g')}_k{k}.csv",
                          [{"t": series.times, "moment": values}])
            ctx.budgets.setdefault(str(k), {})[format(q, "g")] = {
                "dropped_weight": dropped}
    alphas = (config.analyses["decay"] or {}).get("alphas") or []
    # the two largest boxes, or the one box with no doubling
    n_small, n_large = widths[-2:] if len(widths) >= 2 else (widths[-1], None)
    for alpha in alphas:
        for k in dyn["sources"]:
            for q in dyn["moments"]:
                verdict = moment_bound_verdict(envs[k, n_small], alpha, q,
                                               envs.get((k, n_large)))
                envelope_doc["verdicts"].append(asdict(verdict))
                if verdict.growth_not_excluded:
                    ctx.failures.append(f"dynamics: alpha={alpha} q={q} k={k} "
                                        f"{verdict.conclusion}")
    ctx.write_json("envelope.json", envelope_doc)


def _study_stage(ctx: _RunContext) -> None:
    """Drift of eigenvalues, decay constants, and envelope moments in N.

    Drifts compare the ladder indices trusted at both sizes.  A decay row
    holds each box's sup constant (first, second) and the largest relative
    change of a per-mode constant over the shared indices.  Decay reports
    and envelopes come from the run context, shared with the ule and
    dynamics stages.
    """
    config = ctx.config
    widths = list(config.half_widths)
    eig_rows = []
    for n1, n2 in zip(widths, widths[1:]):
        sd1, sd2 = ctx.spectra[n1], ctx.spectra[n2]
        bound = min(sd1.trusted_site_bound, sd2.trusted_site_bound)
        # ladder indices |n| <= bound that both spectra carry, ascending
        # (np.isin, not np.intersect1d, which imports numpy.ma)
        shared = sd1.ladder_indices
        shared = shared[np.isin(shared, sd2.ladder_indices)
                        & (np.abs(shared) <= bound)]
        drifts = np.abs(sd1.eigenvalues[sd1.anchor_position + shared]
                        - sd2.eigenvalues[sd2.anchor_position + shared])
        max_drift = float(drifts.max(initial=0.0))
        within = max_drift <= EIGENVALUE_DRIFT
        if not within:
            ctx.failures.append(
                f"study: eigenvalue drift {max_drift:.3e} between N={n1} "
                f"and N={n2} exceeds {EIGENVALUE_DRIFT:.1e}")
        eig_rows.append({"pair": [n1, n2], "max_drift": max_drift,
                         "indices_compared": shared.size,
                         "within_tolerance": within})

    decay_rows_out = []
    decay = config.analyses["decay"]
    if decay:
        reports = ctx.decay_reports
        for alpha in decay["alphas"]:
            for n1, n2 in zip(widths, widths[1:]):
                rep1, rep2 = reports[n1, alpha], reports[n2, alpha]
                # the two sups range over different trusted sets, so the
                # drift compares the modes trusted in both boxes one by one
                # (both ladders ascend, so the kept entries align)
                c1 = rep1.per_mode[np.isin(rep1.ladder, rep2.ladder)]
                c2 = rep2.per_mode[np.isin(rep2.ladder, rep1.ladder)]
                changes = np.abs(c2 - c1) / np.maximum(np.abs(c1), 1e-300)
                decay_rows_out.append({
                    "alpha": alpha, "pair": [n1, n2],
                    "first": rep1.sup_constant, "second": rep2.sup_constant,
                    "indices_compared": c1.size,
                    "relative_change": float(changes.max(initial=0.0))})

    env_rows = []
    dyn = config.analyses["dynamics"]
    if dyn:
        envs = ctx.envelopes
        for k in dyn["sources"]:
            for q in dyn["moments"]:
                for n1, n2 in zip(widths, widths[1:]):
                    ratio = envs[k, n1].doubling_ratio(envs[k, n2], q)
                    env_rows.append({
                        "q": q, "source": k, "pair": [n1, n2],
                        "ratio": ratio,
                        "within_limit": ratio < dynamics.DOUBLING_RATIO_LIMIT})

    ctx.write_json("study.json", {"eigenvalue_drift": eig_rows,
                                  "decay_drift": decay_rows_out,
                                  "envelope_ratios": env_rows})


# (name, enabled by the config, stage) in run order; the manifest lists
# every stage, and stages=None runs the enabled ones
_STAGES = (
    ("spectrum", lambda config: True, _spectrum_stage),
    ("asymptotics", lambda config: config.analyses["asymptotics"],
     _asymptotics_stage),
    ("ule", lambda config: config.analyses["decay"], _ule_stage),
    ("bootstrap", lambda config: config.analyses["bootstrap"],
     _bootstrap_stage),
    ("dynamics", lambda config: config.analyses["dynamics"], _dynamics_stage),
    ("study", lambda config: len(config.half_widths) >= 2, _study_stage),
)
ALL_STAGES = tuple(name for name, _, _ in _STAGES)


def _thresholds(config: ExperimentConfig) -> dict:
    """The pass marks of the checks, read when the run writes them, and
    the configured interior window: localization.json's tolerances."""
    return {"residual": spectra.RESIDUAL_TOL,
            "orthonormality": spectra.ORTHONORMALITY_TOL,
            "degeneracy_gap": spectra.DEGENERACY_GAP,
            "interior_window": config.interior_window,
            "bootstrap_slack": localization.BOOTSTRAP_SLACK,
            "doubling_ratio_limit": dynamics.DOUBLING_RATIO_LIMIT,
            "boundary_share_limit": dynamics.BOUNDARY_SHARE_LIMIT,
            "eigenvalue_drift": EIGENVALUE_DRIFT}


def _environment() -> dict:
    """Interpreter, library versions, BLAS build and thread settings, and
    the threads, core and build config numpy's BLAS reports at run time
    (None where it cannot say), on which the last digits of every output
    depend."""
    import platform

    # numpy before 1.26 has no CONFIG
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "blas_runtime": blas_runtime(),
        "cpu_count": os.cpu_count(),
    }


def run(config: ExperimentConfig, stages=None,
        reuse_spectra: bool = False) -> RunManifest:
    """Execute the requested stages and write artifacts plus manifest.json.

    stages defaults to every stage enabled by the config's analyses block
    (study only when at least two half-widths are configured).  With
    reuse_spectra=True the spectrum stage loads existing dumps from the
    output directory instead of recomputing them.
    """
    if stages is None:
        stages = [name for name, enabled, _ in _STAGES if enabled(config)]
    stages = list(stages)
    for name in stages:
        if name not in ALL_STAGES:
            raise ValueError(f"unknown stage {name!r}")
    if "study" in stages and len(config.half_widths) < 2:
        raise ConfigError(
            ["half_widths: a convergence study needs at least two box sizes"])

    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"output.directory: {exc}"]) from exc
    ctx = _RunContext(config=config, reuse_spectra=reuse_spectra)
    records: list[StageRecord] = []
    timing: dict = {}
    # localization.json belongs to exactly one manifest entry: the first
    # stage that ended ok with a localization section written
    summary_owner = None
    for name, enabled, stage in _STAGES:
        rec = StageRecord(name=name, status="skipped")
        records.append(rec)
        # every other stage reads the spectra, so any request runs spectrum
        wanted = bool(stages) if name == "spectrum" else (
            name in stages and enabled(config))
        if not wanted:
            continue
        if name != "spectrum" and records[0].status not in ("ok", "reused"):
            rec.error = "upstream spectrum stage did not complete"
            continue
        rec.outputs = ctx.outputs = []
        rec.budgets = ctx.budgets = {}
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            stage(ctx)
            rec.status = ("reused" if name == "spectrum" and reuse_spectra
                          else "ok")
            if ctx.localization and summary_owner is None:
                summary_owner = rec
        except Exception as exc:  # noqa: BLE001 - stage boundary
            rec.status = "failed"
            rec.error = f"{type(exc).__name__}: {exc}"
        timing[name] = {
            "wall_s": time.perf_counter() - wall,
            "cpu_s": time.process_time() - cpu,
            # Linux reports ru_maxrss in KiB
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    if summary_owner is not None:
        write_json(os.path.join(config.output_dir, "localization.json"),
                   {"tolerances": _thresholds(config), **ctx.localization})
        summary_owner.outputs.append("localization.json")
    for rec in records:
        rec.outputs.sort()

    manifest = RunManifest(
        tool_version=__version__,
        config_hash=config.config_hash(),
        created_utc=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        stages=records, checks={"passed": not ctx.failures,
                                "failures": ctx.failures},
        effective_config=config.effective, timing=timing,
        environment=_environment())
    write_json(os.path.join(config.output_dir, "manifest.json"),
               asdict(manifest))
    return manifest
