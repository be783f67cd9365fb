import copy
import json
import math
import os

import numpy as np
import pytest

import helpers
import starklab as sl
import starklab.spectra
from starklab.experiments import parse_config, load_config, run, \
    ConfigError


def base_config(out_dir, **overrides):
    cfg = {
        "kernel": {"family": "nearest_neighbor"},
        "potential": {"slope": 1.0,
                      "perturbation": {"kind": "uniform_random",
                                       "amplitude": 1.0}},
        "half_widths": [12, 24],
        "seed": 5,
        "analyses": {
            "asymptotics": True,
            "decay": {"alphas": [3.0]},
            "bootstrap": {"gamma": None},
            "dynamics": {"sources": [0], "moments": [2.0],
                         "grid": {"dt": 0.5, "t_max": 5.0,
                                  "quasi_random": 3, "far_horizon": 100.0}},
        },
        "tolerances": {"interior_window": 4},
        "output": {"directory": str(out_dir)},
    }
    cfg.update(overrides)
    return cfg


def manifest_files(manifest):
    listed = []
    for rec in manifest.stages:
        listed.extend(rec.outputs)
    return listed


def assert_outputs_complete(out_dir, manifest):
    """Every artifact is referenced by exactly one stage, and nothing else
    sits in the output directory."""
    listed = manifest_files(manifest)
    assert len(listed) == len(set(listed))
    disk = {f for f in os.listdir(out_dir) if f != "manifest.json"}
    assert set(listed) == disk
    assert os.path.exists(os.path.join(out_dir, "manifest.json"))


def test_parse_minimal_config_fills_defaults():
    cfg = parse_config({"kernel": {"family": "nearest_neighbor"},
                        "half_widths": [10]})
    assert cfg.seed == 0
    assert cfg.half_widths == (10,)
    assert cfg.analyses["asymptotics"] is True
    assert cfg.analyses["decay"] is None
    assert cfg.output_dir == "out"
    assert cfg.max_dimension == 8192
    assert cfg.interior_window is None
    assert cfg.potential.field_slope == 1.0
    assert cfg.effective["kernel"]["family"] == "nearest_neighbor"


def test_parse_explicit_empty_analyses_disables_everything():
    cfg = parse_config({"kernel": {"family": "nearest_neighbor"},
                        "half_widths": [10], "analyses": {}})
    assert cfg.analyses["asymptotics"] is False
    assert cfg.analyses["decay"] is None
    assert cfg.analyses["bootstrap"] is None
    assert cfg.analyses["dynamics"] is None


def test_parse_collects_every_problem_with_paths():
    bad = {
        "half_widths": [8, 4],
        "analyses": {"decay": {"alphas": [-1.0]}},
        "bogus_key": 1,
        "seed": 2 ** 64,
    }
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    text = str(err.value)
    assert "kernel: required" in text
    assert "half_widths: must be strictly ascending" in text
    assert "analyses.decay.alphas[0]: must be positive" in text
    assert "bogus_key: unknown field" in text
    assert "seed: must fit in 64 bits" in text
    assert len(err.value.problems) >= 5


@pytest.mark.parametrize("edits, problems", [
    ({"potential": {"perturbation": {"kind": "uniform_random",
                                     "seed": 2 ** 64}}},
     ["potential.perturbation.seed: must fit in 64 bits"]),
    ({"potential": {"perturbation": {"kind": "uniform_random",
                                     "seed": 2 ** 70}}},
     ["potential.perturbation.seed: must fit in 64 bits"]),
    ({"potential": {"perturbation": {"kind": "uniform_random",
                                     "amplitude": 1e308}}},
     ["potential: perturbation range 2 * amplitude must be finite, "
      "got amplitude 1e+308"]),
    # an inherited bad run seed is reported once, under seed
    ({"seed": 2 ** 64, "potential": {"perturbation": {
        "kind": "uniform_random", "amplitude": 1.0}}},
     ["seed: must fit in 64 bits"]),
    ({"seed": -1, "potential": {"perturbation": {
        "kind": "uniform_random", "amplitude": 1e308}}},
     ["potential: perturbation range 2 * amplitude must be finite, "
      "got amplitude 1e+308", "seed: must be >= 0"]),
])
def test_parse_bounds_the_disorder(edits, problems):
    raw = {"kernel": {"family": "nearest_neighbor"}, "half_widths": [8],
           **edits}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert sorted(err.value.problems) == problems


def test_parse_accepts_the_largest_disorder_seed():
    cfg = parse_config({"kernel": {"family": "nearest_neighbor"},
                        "half_widths": [8], "seed": 2 ** 64 - 1,
                        "potential": {"perturbation": {
                            "kind": "uniform_random", "amplitude": 1.0}}})
    assert cfg.potential.perturbation.seed == 2 ** 64 - 1


def test_parse_rejects_maryland_with_slope():
    cfg = {"kernel": {"family": "nearest_neighbor"}, "half_widths": [8],
           "potential": {"slope": 1.0,
                         "maryland": {"coupling": 1.0, "frequency": 0.38}}}
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "maryland replaces the linear field" in str(err.value)


def test_parse_rejects_unknown_perturbation_kind():
    cfg = {"kernel": {"family": "nearest_neighbor"}, "half_widths": [8],
           "potential": {"perturbation": {"kind": "gaussian"}}}
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "potential.perturbation.kind" in str(err.value)


def test_parse_rejects_negative_amplitude_and_box_overflow():
    cfg = {"kernel": {"family": "nearest_neighbor"},
           "half_widths": [8, 5000],
           "potential": {"perturbation": {"kind": "uniform_random",
                                          "amplitude": -2.0}}}
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    text = str(err.value)
    assert "potential.perturbation.amplitude: must be nonnegative" in text
    assert "exceeds max_dimension" in text


def test_parse_rejects_non_finite_numbers():
    # json.load parses the bare NaN and Infinity literals
    raw = json.loads("""{
        "kernel": {"family": "custom",
                   "coefficients": {"1": NaN, "2": {"re": 1, "im": -Infinity},
                                    "-1": NaN, "-2": {"re": 1, "im": 1}}},
        "potential": {"slope": Infinity,
                      "perturbation": {"kind": "uniform_random",
                                       "amplitude": NaN}},
        "half_widths": [8],
        "analyses": {"decay": {"alphas": [Infinity]},
                     "bootstrap": {"gamma": %s}}
    }""" % ("1" + "0" * 400))
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    problems = err.value.problems
    for path in ("kernel.coefficients.1", "kernel.coefficients.2.im",
                 "potential.slope", "potential.perturbation.amplitude",
                 "analyses.decay.alphas[0]", "analyses.bootstrap.gamma"):
        assert f"{path}: must be finite" in problems


def test_parse_rejects_nonpositive_moments():
    cfg = {"kernel": {"family": "nearest_neighbor"}, "half_widths": [8],
           "analyses": {"dynamics": {"moments": [0.0]}}}
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "analyses.dynamics.moments[0]: must be positive" in str(err.value)


@pytest.mark.parametrize("section, value, problem", [
    ("half_widths", [None], "half_widths[0]: expected an integer"),
    ("analyses", {"decay": {"alphas": [None]}},
     "analyses.decay.alphas[0]: expected a number"),
    ("analyses", {"dynamics": {"moments": [None]}},
     "analyses.dynamics.moments[0]: expected a number"),
    ("analyses", {"dynamics": {"sources": [None]}},
     "analyses.dynamics.sources[0]: expected an integer"),
    ("potential", {"perturbation": {"kind": "periodic",
                                    "pattern": [None, 0.5]}},
     "potential.perturbation.pattern[0]: expected a number"),
    ("potential", {"perturbation": {"kind": "explicit", "table": [None]}},
     "potential.perturbation.table[0]: expected a number"),
    ("tolerances", False, "tolerances: expected an object"),
    ("output", 0, "output: expected an object"),
    ("analyses", {"dynamics": {"grid": []}},
     "analyses.dynamics.grid: expected an object"),
])
def test_parse_rejects_null_items_and_falsy_sections(section, value,
                                                     problem):
    raw = {"kernel": {"family": "nearest_neighbor"}, "half_widths": [8],
           section: value}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.problems == [problem]


@pytest.mark.parametrize("kernel, problem", [
    ({"family": "nearest_neighbor", "amplitude": {"re": "1.5"}},
     "kernel.amplitude: expected a number or {re, im}"),
    ({"family": "nearest_neighbor", "amplitude": {"re": True}},
     "kernel.amplitude: expected a number or {re, im}"),
    ({"family": "custom", "coefficients": {"1": 0.5, "01": 0.25}},
     "kernel.coefficients.01: offset keys must be integers"),
    ({"family": "custom", "coefficients": {"1_0": 0.5}},
     "kernel.coefficients.1_0: offset keys must be integers"),
])
def test_parse_rejects_misread_kernel_input(kernel, problem):
    with pytest.raises(ConfigError) as err:
        parse_config({"kernel": kernel, "half_widths": [8]})
    assert err.value.problems == [problem]


def test_config_hash_ignores_output_location(tmp_path):
    a = parse_config(base_config(tmp_path / "a"))
    b = parse_config(base_config(tmp_path / "b"))
    assert a.config_hash() == b.config_hash()
    c = parse_config(base_config(tmp_path / "a", seed=6))
    assert c.config_hash() != a.config_hash()
    assert len(a.config_hash()) == 64


def test_with_overrides_round_trip(tmp_path):
    cfg = parse_config(base_config(tmp_path / "a"))
    moved = cfg.with_overrides(out_dir=str(tmp_path / "b"), seed=9)
    assert moved.output_dir == str(tmp_path / "b")
    assert moved.seed == 9
    # the disorder seed inherited the run seed, so it follows the override
    assert moved.potential.perturbation.seed == 9
    same = cfg.with_overrides()
    assert same.config_hash() == cfg.config_hash()

    pinned_raw = base_config(tmp_path / "a")
    pinned_raw["potential"]["perturbation"]["seed"] = 77
    pinned = parse_config(pinned_raw).with_overrides(seed=9)
    assert pinned.seed == 9
    assert pinned.potential.perturbation.seed == 77


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "not valid JSON" in str(err.value)
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_run_minimal_asymptotics(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config({"kernel": {"family": "custom", "coefficients": {}},
                        "half_widths": [12],
                        "output": {"directory": str(out)}})
    manifest = run(cfg)
    assert manifest.stage("spectrum").status == "ok"
    assert manifest.stage("asymptotics").status == "ok"
    assert manifest.stage("ule").status == "skipped"
    assert not manifest.any_stage_failed
    assert manifest.all_checks_passed
    assert_outputs_complete(out, manifest)
    listed = manifest_files(manifest)
    assert "spectrum_N12.json" in listed
    assert "spectrum_N12.bin" in listed
    assert "asymptotics.csv" in listed
    assert "localization.json" in listed
    with open(out / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["config_hash"] == cfg.config_hash()
    assert doc["checks"]["passed"] is True
    # the stages that ran say where their time and memory went
    assert sorted(doc["timing"]) == ["asymptotics", "spectrum"]
    for spent in doc["timing"].values():
        assert sorted(spent) == ["cpu_s", "peak_rss_mb", "wall_s"]
        assert all(v >= 0.0 for v in spent.values())
    assert doc["timing"]["spectrum"]["peak_rss_mb"] > 0.0
    env = doc["environment"]
    assert env["numpy"] == np.__version__
    assert "scipy" not in env  # no output depends on scipy
    assert env["cpu_count"] == os.cpu_count()
    assert env["threads"] == {k: v for k, v in os.environ.items()
                              if k.endswith("_NUM_THREADS")}
    assert set(env["blas"]) == {"name", "version"}
    assert set(env["blas_runtime"]) == {"threads", "core", "config"}


def test_run_all_stages_and_outputs(tmp_path):
    out = tmp_path / "full"
    cfg = parse_config(base_config(out))
    manifest = run(cfg)
    for name in ("spectrum", "asymptotics", "ule", "bootstrap", "dynamics",
                 "study"):
        assert manifest.stage(name).status == "ok", name
    assert_outputs_complete(out, manifest)
    listed = manifest_files(manifest)
    for expected in ("spectrum_N12.json", "spectrum_N24.bin", "ule.csv",
                     "moments_q2_k0.csv", "envelope.json", "study.json"):
        assert expected in listed
    with open(out / "envelope.json") as fh:
        env = json.load(fh)
    assert env["series_half_width"] == 24
    assert set(env["sources"]["0"]["half_widths"]) == {"12", "24"}
    assert env["verdicts"]


def test_bootstrap_stage_records_its_witness_in_the_manifest(tmp_path):
    out = tmp_path / "out"
    manifest = run(parse_config(base_config(out)),
                   stages=["spectrum", "bootstrap"])
    budgets = manifest.stage("bootstrap").budgets
    assert sorted(budgets) == ["12", "24"]
    for n in (12, 24):
        rep = sl.bootstrap_decay_check(
            sl.load_spectral(str(out / f"spectrum_N{n}")))
        assert budgets[str(n)] == {"n_candidates": rep.n_candidates,
                                   "min_margin": rep.min_margin,
                                   "min_margin_at": rep.min_margin_at}
        assert rep.n_candidates > 0
    with open(out / "manifest.json") as fh:
        stages = {s["name"]: s for s in json.load(fh)["stages"]}
    assert stages["bootstrap"]["budgets"] == json.loads(json.dumps(budgets))
    # the byte-compared summary does not carry it
    with open(out / "localization.json") as fh:
        section = json.load(fh)["bootstrap"]["24"]
    assert not {"n_candidates", "min_margin", "min_margin_at"} & set(section)


def test_run_is_deterministic_across_directories(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    m1 = run(parse_config(base_config(out1)))
    m2 = run(parse_config(base_config(out2)))
    names = sorted(set(manifest_files(m1)))
    assert names == sorted(set(manifest_files(m2)))
    for name in names:
        b1 = open(out1 / name, "rb").read()
        b2 = open(out2 / name, "rb").read()
        assert b1 == b2, f"{name} differs between identical runs"


def test_maryland_refuses_linear_field_analyses_but_evolves(tmp_path):
    out = tmp_path / "mary"
    cfg = parse_config({
        "kernel": {"family": "nearest_neighbor"},
        "potential": {"maryland": {"coupling": 1.0,
                                   "frequency": 0.3819660112501051,
                                   "phase": 0.1}},
        "half_widths": [16],
        "analyses": {"asymptotics": True,
                     "bootstrap": {"gamma": 3.0},
                     "dynamics": {"sources": [0], "moments": [2.0],
                                  "grid": {"dt": 0.5, "t_max": 5.0,
                                           "quasi_random": 3,
                                           "far_horizon": 100.0}}},
        "tolerances": {"interior_window": 5},
        "output": {"directory": str(out)},
    })
    manifest = run(cfg)
    assert manifest.stage("spectrum").status == "ok"
    assert manifest.stage("asymptotics").status == "failed"
    assert "WrongPotentialFamilyError" in manifest.stage("asymptotics").error
    assert manifest.stage("bootstrap").status == "failed"
    assert manifest.stage("dynamics").status == "ok"
    assert manifest.any_stage_failed
    assert not os.path.exists(out / "localization.json")
    assert_outputs_complete(out, manifest)


def test_spectrum_failure_skips_downstream(tmp_path):
    out = tmp_path / "res"
    cfg = parse_config({
        "kernel": {"family": "nearest_neighbor"},
        "potential": {"maryland": {"coupling": 1.0, "frequency": 0.5,
                                   "phase": 0.0}},
        "half_widths": [8],
        "analyses": {"asymptotics": True,
                     "dynamics": {"sources": [0], "moments": [2.0],
                                  "grid": {"dt": 0.5, "t_max": 5.0,
                                           "quasi_random": 3,
                                           "far_horizon": 100.0}}},
        "output": {"directory": str(out)},
    })
    manifest = run(cfg)
    spectrum = manifest.stage("spectrum")
    assert spectrum.status == "failed"
    assert "MarylandResonanceError" in spectrum.error
    assert manifest.stage("asymptotics").status == "skipped"
    assert manifest.stage("asymptotics").error == \
        "upstream spectrum stage did not complete"
    assert manifest.stage("dynamics").status == "skipped"
    assert_outputs_complete(out, manifest)
    assert manifest_files(manifest) == []


def test_reuse_spectra_reloads_dumps(tmp_path):
    out = tmp_path / "reuse"
    cfg = parse_config(base_config(out))
    run(cfg)
    first = open(out / "asymptotics.csv", "rb").read()
    manifest = run(cfg, reuse_spectra=True)
    assert manifest.stage("spectrum").status == "reused"
    assert open(out / "asymptotics.csv", "rb").read() == first
    assert_outputs_complete(out, manifest)


def _recorded_contexts(monkeypatch):
    """The run contexts that run makes from here on, as they are made."""
    import starklab.experiments as experiments

    contexts = []

    class Recorded(experiments._RunContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(experiments, "_RunContext", Recorded)
    return contexts


def test_spectrum_stage_solves_and_reloads_the_largest_box_first(
        tmp_path, monkeypatch):
    import starklab.experiments as experiments

    contexts = _recorded_contexts(monkeypatch)
    seen = []
    solve, reload = experiments.diagonalize, experiments.load_spectral

    def spied_solve(op, interior_window):
        seen.append(("solve", op.half_width, list(contexts[-1].spectra)))
        return solve(op, interior_window)

    def spied_reload(base):
        seen.append(("reload", os.path.basename(base),
                     list(contexts[-1].spectra)))
        return reload(base)

    monkeypatch.setattr(experiments, "diagonalize", spied_solve)
    monkeypatch.setattr(experiments, "load_spectral", spied_reload)
    cfg = parse_config(base_config(tmp_path / "out",
                                   half_widths=[8, 12, 24]))
    run(cfg, stages=["spectrum"])
    run(cfg, reuse_spectra=True)
    # no box is in the run's spectra while any box is solved or reloaded
    assert seen == [("solve", 24, []), ("solve", 12, []), ("solve", 8, []),
                    ("reload", "spectrum_N24", []),
                    ("reload", "spectrum_N12", []),
                    ("reload", "spectrum_N8", [])]
    # the later stages see them in config order
    assert [list(ctx.spectra) for ctx in contexts] == [[8, 12, 24]] * 2


def test_outputs_keep_the_config_order_of_the_boxes(tmp_path):
    import csv

    out = tmp_path / "out"
    widths = [8, 12, 24]
    manifest = run(parse_config(base_config(out, half_widths=widths)))
    assert not manifest.any_stage_failed
    for name in ("asymptotics.csv", "ule.csv"):
        with open(out / name) as fh:
            column = [int(row["half_width"]) for row in csv.DictReader(fh)]
        # each box's rows in one run, the boxes in config order
        assert [n for i, n in enumerate(column)
                if i == 0 or column[i - 1] != n] == widths, name
    with open(out / "study.json") as fh:
        study = json.load(fh)
    for section in ("eigenvalue_drift", "decay_drift", "envelope_ratios"):
        assert [row["pair"] for row in study[section]] == [[8, 12], [12, 24]]
    # the last pair's ratio is the dynamics verdict's doubling ratio
    with open(out / "envelope.json") as fh:
        (verdict,) = json.load(fh)["verdicts"]
    last = study["envelope_ratios"][-1]
    assert (last["source"], last["q"]) == (verdict["source"], verdict["q"])
    assert last["ratio"] == verdict["doubling_ratio"]
    with open(out / "localization.json") as fh:
        summary = json.load(fh)
    assert summary["tolerances"] == {
        "residual": 1e-10, "orthonormality": 1e-10, "degeneracy_gap": 1e-12,
        "interior_window": 4, "bootstrap_slack": 1e-8,
        "doubling_ratio_limit": 1.1, "boundary_share_limit": 0.01,
        "eigenvalue_drift": 1e-8}
    # every section is its own box's
    for n in widths:
        sd = sl.load_spectral(str(out / f"spectrum_N{n}"))
        rep = sl.check_eigenvalue_asymptotics(sd)
        assert summary["asymptotics"][str(n)]["max_deviation"] == \
            rep.max_deviation
        assert summary["bootstrap"][str(n)]["n_modes"] == \
            sl.bootstrap_decay_check(sd).n_modes


def test_study_whose_largest_box_fails_its_gate_writes_no_dump(
        tmp_path, monkeypatch):
    import starklab.experiments as experiments

    solved = []
    solve = experiments.diagonalize

    def gated(op, interior_window):
        solved.append(op.half_width)
        if op.half_width == 24:  # a Gram defect no box meets
            monkeypatch.setattr(starklab.spectra, "ORTHONORMALITY_TOL",
                                1e-300)
        return solve(op, interior_window)

    monkeypatch.setattr(experiments, "diagonalize", gated)
    out = tmp_path / "out"
    manifest = run(parse_config(base_config(out)))
    spectrum = manifest.stage("spectrum")
    assert spectrum.status == "failed"
    assert spectrum.error.startswith("ConvergenceFailureError: "
                                     "orthonormality defect")
    assert solved == [24]
    assert manifest.stage("study").status == "skipped"
    assert not [f for f in os.listdir(out) if f.startswith("spectrum_")]
    assert_outputs_complete(out, manifest)


def test_reuse_spectra_fails_cleanly_without_dumps(tmp_path):
    out = tmp_path / "empty"
    cfg = parse_config(base_config(out))
    manifest = run(cfg, reuse_spectra=True)
    assert manifest.stage("spectrum").status == "failed"
    assert manifest.stage("asymptotics").status == "skipped"


def test_reuse_spectra_needs_the_recorded_perturbation_sup(tmp_path):
    # the dump's sha256 covers the payload only, so a header can lose the
    # key; the default gamma must not then fall back to |b|_inf = 0: the
    # run refuses the dump, and a library caller gets a ValueError naming
    # the missing key
    out = tmp_path / "out"
    cfg = parse_config(base_config(out, half_widths=[12]))
    assert run(cfg).stage("bootstrap").status == "ok"
    header_path = out / "spectrum_N12.json"
    header = json.loads(header_path.read_text())
    del header["provenance"]["perturbation_sup"]
    header_path.write_text(json.dumps(header))
    manifest = run(cfg, stages=["asymptotics", "bootstrap"],
                   reuse_spectra=True)
    assert manifest.stage("spectrum").status == "failed"
    assert manifest.stage("spectrum").error.startswith(
        "ProvenanceMismatchError")
    assert "provenance.perturbation_sup is None" in \
        manifest.stage("spectrum").error
    for name in ("asymptotics", "bootstrap"):
        assert manifest.stage(name).status == "skipped"
    sd = sl.load_spectral(str(out / "spectrum_N12"))
    with pytest.raises(ValueError, match="provenance.perturbation_sup"):
        sl.check_eigenvalue_asymptotics(sd)


def test_csv_cells_are_integers_and_17_digit_floats(tmp_path):
    from starklab._format import write_csv

    path = tmp_path / "cells.csv"
    # a cell is typed by its column's dtype: integer columns stay exact
    # past 2**53 and 2**63, and a float that holds an integer stays a float
    write_csv(path, {
        "n": np.array([1, -2, 2 ** 60 + 1, -2 ** 63], dtype=np.int64),
        "u": np.array([0, 7, 2 ** 63 + 1, 2 ** 64 - 1], dtype=np.uint64),
        "x": [0.1, 1 / 3, 2.0 ** 60, 5e-324],
        "y": [np.nan, np.inf, -np.inf, -0.0],
        "f": np.array([0.1, 1 / 3, np.nan, 1e-45], dtype=np.float32)})
    assert path.read_text() == (
        "n,u,x,y,f\n"
        "1,0,0.10000000000000001,nan,0.10000000149011612\n"
        "-2,7,0.33333333333333331,inf,0.3333333432674408\n"
        "1152921504606846977,9223372036854775809,1.152921504606847e+18,"
        "-inf,nan\n"
        "-9223372036854775808,18446744073709551615,"
        "4.9406564584124654e-324,-0,1.4012984643248171e-45\n")
    with pytest.raises(ValueError, match="differing lengths"):
        write_csv(path, {"a": [1, 2], "b": [0.5]})


def _mixed_columns(count):
    """count rows of int64 and uint64 columns past 2**53 and 2**63 and of
    float64 and float32 columns with nan, +-inf, -0.0 and subnormals."""
    i = np.arange(count)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1 / 3])
    return {"a": 2 ** 60 + i - count // 2,
            "b": np.uint64(2 ** 63) + i.astype(np.uint64),
            "c": np.where(i % 7 == 0, special[i % 6], i / 7),
            "d": (np.sqrt(i) / 3).astype(np.float32)}


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
def test_csv_in_chunks_is_the_per_row_loop(tmp_path, count):
    from starklab._format import write_csv

    columns = _mixed_columns(count)
    write_csv(tmp_path / "chunked.csv", columns)
    helpers.per_row_csv(tmp_path / "rows.csv", list(columns),
                        zip(*(c.tolist() for c in columns.values())))
    chunked = (tmp_path / "chunked.csv").read_bytes()
    assert chunked == (tmp_path / "rows.csv").read_bytes()
    assert chunked.count(b"\n") == count + 1


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
def test_column_rows_are_the_zipped_columns(tmp_path, count):
    from starklab._format import write_csv

    # the CSV's rows read back as the zipped columns, bit for bit
    times = np.linspace(0.0, 1.0, count)
    values = np.sqrt(times) / 3
    write_csv(tmp_path / "t.csv", {"t": times, "moment": values})
    with open(tmp_path / "t.csv") as fh:
        assert next(fh) == "t,moment\n"
        rows = [tuple(map(float, line.split(","))) for line in fh]
    assert rows == list(zip(times.tolist(), values.tolist()))


def test_json_is_sorted_indented_and_gives_back_every_float(tmp_path):
    from starklab._format import write_json

    floats = [1.0, -0.0, 0.1, 2.0 ** 60, 5e-324]
    path = tmp_path / "doc.json"
    write_json(path, {"b": [np.nan, np.inf, -np.inf], 2: np.int64(-2),
                      "a": {"y": np.float64(0.5), "x": np.bool_(True)},
                      "c": np.array([[1.5, -0.0]]), "d": complex(1.0, -0.0),
                      "s": "tab\t nl\n nul\x00 us\x1f é ∞ \"q\" \\",
                      "f": floats, "z": [(), {}]})
    text = path.read_text(encoding="utf-8")
    assert text == (
        '{\n  "2": -2,\n'
        '  "a": {\n    "x": true,\n    "y": 0.5\n  },\n'
        '  "b": [\n    null,\n    null,\n    null\n  ],\n'
        '  "c": [\n    [\n      1.5,\n      -0.0\n    ]\n  ],\n'
        '  "d": {\n    "im": -0.0,\n    "re": 1.0\n  },\n'
        '  "f": [\n    1.0,\n    -0.0,\n    0.1,\n'
        '    1.152921504606847e+18,\n    5e-324\n  ],\n'
        '  "s": "tab\\t nl\\n nul\\u0000 us\\u001f é ∞ \\"q\\" \\\\",\n'
        '  "z": [\n    [],\n    {}\n  ]\n}\n')
    doc = json.loads(text)
    got = doc["f"] + doc["c"][0] + [doc["d"]["re"], doc["d"]["im"]]
    want = floats + [1.5, -0.0, 1.0, -0.0]
    assert [(type(v), v.hex()) for v in got] == \
        [(float, v.hex()) for v in want]


def test_study_zero_kernel_has_exactly_zero_drift(tmp_path):
    out = tmp_path / "study"
    cfg = parse_config({"kernel": {"family": "custom", "coefficients": {}},
                        "half_widths": [12, 16],
                        "analyses": {"asymptotics": True,
                                     "decay": {"alphas": [3.0]}},
                        "output": {"directory": str(out)}})
    manifest = run(cfg)
    assert manifest.stage("study").status == "ok"
    with open(out / "study.json") as fh:
        study = json.load(fh)
    row = study["eigenvalue_drift"][0]
    assert row["pair"] == [12, 16]
    assert row["max_drift"] == 0.0
    assert row["within_tolerance"] is True
    assert row["indices_compared"] == 5
    assert study["decay_drift"][0]["relative_change"] == 0.0
    assert study["decay_drift"][0]["indices_compared"] == 5
    assert manifest.all_checks_passed


def test_study_drift_skips_indices_missing_from_a_spectrum(tmp_path):
    # a shift of 1000 makes every eigenvalue positive, so both ladders
    # start at index 0 and the negative indices within the bound are absent
    out = tmp_path / "study"
    cfg = parse_config({"kernel": {"family": "custom", "coefficients": {}},
                        "potential": {"perturbation": {"kind": "constant",
                                                       "offset": 1000.0}},
                        "half_widths": [12, 16], "analyses": {},
                        "tolerances": {"interior_window": 0},
                        "output": {"directory": str(out)}})
    run(cfg)
    with open(out / "study.json") as fh:
        row = json.load(fh)["eigenvalue_drift"][0]
    # index n is site n - 12 + 1000 in the first box, n - 16 + 1000 in the
    # second, for n = 0..12
    assert row["indices_compared"] == 13
    assert row["max_drift"] == 4.0
    assert row["within_tolerance"] is False


def test_study_decay_drift_compares_shared_modes(tmp_path):
    # the larger box trusts modes the smaller one does not, so the two
    # sups differ; on the modes trusted in both the constants agree
    out = tmp_path / "study"
    cfg = parse_config({"kernel": {"family": "nearest_neighbor"},
                        "potential": {"perturbation": {
                            "kind": "uniform_random", "amplitude": 1.0}},
                        "half_widths": [48, 64],
                        "seed": 3,
                        "analyses": {"decay": {"alphas": [3.0]}},
                        "output": {"directory": str(out)}})
    assert run(cfg).stage("study").status == "ok"
    with open(out / "study.json") as fh:
        row = json.load(fh)["decay_drift"][0]
    assert row["second"] > 1.1 * row["first"]
    assert row["indices_compared"] > 0
    assert row["relative_change"] < 1e-10


def test_study_reuses_the_ule_stage_decay_reports(tmp_path, monkeypatch):
    import starklab.experiments as experiments

    calls = []
    measure = experiments.uniform_decay_constants

    def counted(sd, alphas):
        calls.append((sd.half_width, tuple(alphas)))
        return measure(sd, alphas)

    monkeypatch.setattr(experiments, "uniform_decay_constants", counted)
    raw = {"kernel": {"family": "nearest_neighbor"},
           "potential": {"perturbation": {"kind": "uniform_random",
                                          "amplitude": 1.0}},
           "half_widths": [48, 64], "seed": 3,
           "analyses": {"decay": {"alphas": [2.0, 3.0]}}}
    expected = [(48, (2.0, 3.0)), (64, (2.0, 3.0))]
    rows = {}
    # one call per box for every alpha; with all stages ule makes the calls
    # and study reuses its reports, study alone makes them itself
    for name, stages in (("all", None), ("alone", ["spectrum", "study"])):
        calls.clear()
        out = tmp_path / name
        manifest = run(parse_config(dict(raw, output={"directory": str(out)})),
                       stages=stages)
        assert manifest.stage("study").status == "ok"
        assert calls == expected
        with open(out / "study.json") as fh:
            rows[name] = json.load(fh)["decay_drift"]
    assert rows["all"] == rows["alone"]
    assert len(rows["all"]) == 2


def test_study_reuses_the_dynamics_stage_envelopes(tmp_path, monkeypatch):
    import starklab.experiments as experiments

    calls = []
    measure = experiments.envelope

    def counted(sd, source, qs):
        calls.append((source, sd.half_width))
        return measure(sd, source, qs)

    monkeypatch.setattr(experiments, "envelope", counted)
    raw = base_config(tmp_path, analyses={"dynamics": {
        "sources": [0], "moments": [2.0, 2.5],
        "grid": {"dt": 0.5, "t_max": 5.0, "quasi_random": 3,
                 "far_horizon": 100.0}}})
    expected = [(0, 12), (0, 24)]
    ratios = {}
    # all stages: dynamics computes one envelope per (source, N) for both
    # moments and study reuses it; study alone computes the same ones
    for name, stages in (("all", None), ("alone", ["spectrum", "study"])):
        calls.clear()
        out = tmp_path / name
        manifest = run(parse_config(dict(raw, output={"directory": str(out)})),
                       stages=stages)
        assert manifest.stage("study").status == "ok"
        assert sorted(calls) == expected
        with open(out / "study.json", "rb") as fh:
            ratios[name] = fh.read()
    assert ratios["all"] == ratios["alone"]
    assert len(json.loads(ratios["all"])["envelope_ratios"]) == 2


def test_dynamics_stage_propagates_once_per_source(tmp_path, monkeypatch):
    import starklab.dynamics as dynamics

    calls = []
    mode_pairs = dynamics._mode_pairs

    def counted(sd, env, *args, **kwargs):
        calls.append((env.source, sd.half_width))
        return mode_pairs(sd, env, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_mode_pairs", counted)
    out = tmp_path / "out"
    raw = base_config(out, analyses={
        "decay": {"alphas": [2.0, 3.0]},
        "dynamics": {"sources": [0, 2], "moments": [2.0, 2.5, 3.0],
                     "grid": {"dt": 0.5, "t_max": 5.0, "quasi_random": 3,
                              "far_horizon": 100.0}}})
    manifest = run(parse_config(raw), stages=["spectrum", "dynamics"])
    assert manifest.stage("dynamics").status == "ok"
    assert calls == [(0, 24), (2, 24)]
    # the dropped weight of each (source, q) series sits in the manifest
    # only, within the pair budget of its envelope moment
    budgets = manifest.stage("dynamics").budgets
    with open(out / "envelope.json") as fh:
        bounds = json.load(fh)["sources"]
    for k in ("0", "2"):
        assert sorted(budgets[k]) == ["2", "2.5", "3"]
        for q, spent in budgets[k].items():
            e_q = bounds[k]["half_widths"]["24"]["moments"][q]["value"]
            assert list(spent) == ["dropped_weight"]
            assert 0.0 <= spent["dropped_weight"] <= dynamics.PAIR_BUDGET * e_q
    assert manifest.stage("spectrum").budgets == {}
    with open(out / "manifest.json") as fh:
        stages = {s["name"]: s for s in json.load(fh)["stages"]}
    assert stages["dynamics"]["budgets"] == budgets
    # the verdicts, built from the stage's envelopes, are those of the
    # public probe on the same spectra
    small, big = (sl.load_spectral(str(out / f"spectrum_N{n}"))
                  for n in (12, 24))
    with open(out / "envelope.json") as fh:
        verdicts = json.load(fh)["verdicts"]
    assert len(verdicts) == 2 * 2 * 3
    for row in verdicts:
        k, q = row["source"], row["q"]
        v = sl.moment_bound_verdict(sl.envelope(small, k, (q,)),
                                    row["alpha"], q,
                                    doubled=sl.envelope(big, k, (q,)))
        assert row == {"alpha": v.alpha, "q": v.q, "source": v.source,
                       "hypothesis_satisfied": v.hypothesis_satisfied,
                       "envelope_moment": v.envelope_moment,
                       "boundary_share": v.boundary_share,
                       "doubling_ratio": v.doubling_ratio,
                       "conclusion": v.conclusion}


def test_study_requires_two_widths(tmp_path):
    cfg = parse_config({"kernel": {"family": "nearest_neighbor"},
                        "half_widths": [8],
                        "output": {"directory": str(tmp_path / "x")}})
    with pytest.raises(ConfigError):
        run(cfg, stages=["spectrum", "study"])


def test_run_rejects_unknown_stage(tmp_path):
    cfg = parse_config({"kernel": {"family": "nearest_neighbor"},
                        "half_widths": [8],
                        "output": {"directory": str(tmp_path / "x")}})
    with pytest.raises(ValueError):
        run(cfg, stages=["spectrum", "frobnicate"])


def test_failed_check_is_not_a_stage_failure(tmp_path):
    # a steeper field breaks the pinning bound; the run completes and the
    # manifest reports the check failure
    out = tmp_path / "steep"
    cfg = parse_config({"kernel": {"family": "custom", "coefficients": {}},
                        "potential": {"slope": 2.0},
                        "half_widths": [16],
                        "output": {"directory": str(out)}})
    manifest = run(cfg)
    assert not manifest.any_stage_failed
    assert not manifest.all_checks_passed
    assert any("asymptotics" in f for f in manifest.checks["failures"])


# Golden corpus of the config parser.  Each case edits a base config
# ("path.to.key": value, DROP deletes the key) and records either the
# sorted problem lines, or the first 16 hex digits of config_hash() and
# of the hash after with_overrides(seed=123, out_dir="o2").  The cases
# are the configs of the tests in this directory and of the demo, a few
# accepted configs per kernel family and perturbation kind, and one
# fault per config field.
NAN, INF = math.nan, math.inf
DROP = object()
NN = {"family": "nearest_neighbor"}
ZERO = {"family": "custom", "coefficients": {}}
URAND = {"perturbation": {"kind": "uniform_random", "amplitude": 1.0}}
GRID = {"dt": 0.5, "t_max": 5.0, "quasi_random": 3, "far_horizon": 100.0}
MARY = {"maryland": {"coupling": 1.0, "frequency": 0.3819660112501051,
                     "phase": 0.1}}
DEMO_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                           "study_config.json")

GOLDEN = [
    # configs of the existing tests
    ("nn", {"half_widths": [10]},
     "6cc4927e725e39c3 d40f74d36f8d7bc9"),
    ("nn", {"half_widths": [10], "analyses": {}},
     "d5e340578420a27a f6b679928bd04e4a"),
    ("nn", {"kernel": DROP, "half_widths": [8, 4], "bogus_key": 1,
            "analyses": {"decay": {"alphas": [-1.0]}}, "seed": 2 ** 64},
     ["analyses.decay.alphas[0]: must be positive",
      "bogus_key: unknown field",
      "half_widths: must be strictly ascending",
      "kernel: required",
      "seed: must fit in 64 bits"]),
    ("nn", {"potential": {"slope": 1.0, "maryland": {
        "coupling": 1.0, "frequency": 0.38}}},
     ["potential: maryland replaces the linear field; omit slope or set it to"
      " null"]),
    ("nn", {"potential": {"perturbation": {"kind": "gaussian"}}},
     ["potential.perturbation.kind: unknown kind 'gaussian'"]),
    # changed: no second line for a field that already has a problem
    ("nn", {"half_widths": [8, 5000], "potential": {"perturbation": {
        "kind": "uniform_random", "amplitude": -2.0}}},
     ["half_widths[1]: box dimension 10001 exceeds max_dimension 8192",
      "potential.perturbation.amplitude: must be nonnegative"]),
    ("nn", {"kernel": {"family": "custom", "coefficients": {
        "1": NAN, "2": {"re": 1, "im": -INF}, "-1": NAN,
        "-2": {"re": 1, "im": 1}}},
        "potential": {"slope": INF, "perturbation": {
            "kind": "uniform_random", "amplitude": NAN}},
        "analyses": {"decay": {"alphas": [INF]},
                     "bootstrap": {"gamma": 10 ** 400}}},
     ["analyses.bootstrap.gamma: must be finite",
      "analyses.decay.alphas[0]: must be finite",
      "kernel.coefficients.-1: must be finite",
      "kernel.coefficients.1: must be finite",
      "kernel.coefficients.2.im: must be finite",
      "potential.perturbation.amplitude: must be finite",
      "potential.slope: must be finite"]),
    ("nn", {"analyses": {"dynamics": {"moments": [0.0]}}},
     ["analyses.dynamics.moments[0]: must be positive"]),
    ("base", {},
     "2feee1c106630b65 cf182fa1377fb554"),
    ("base", {"seed": 6},
     "8af8ee916fe24e91 cf182fa1377fb554"),
    ("base", {"potential.perturbation.seed": 77},
     "39a7d114efd75d2a 4a3f2828bafb3ab9"),
    ("nn", {"kernel": ZERO, "half_widths": [12]},
     "aacc596b30ff4417 15283fe39a44ef77"),
    ("nn", {"potential": MARY, "half_widths": [16],
            "analyses": {"asymptotics": True, "bootstrap": {"gamma": 3.0},
                         "dynamics": {"sources": [0], "moments": [2.0],
                                      "grid": GRID}},
            "tolerances": {"interior_window": 5}},
     "c1849f759d7b375c 0d8673005c99f13d"),
    ("nn", {"potential": {"maryland": {"coupling": 1.0, "frequency": 0.5,
                                       "phase": 0.0}},
            "analyses": {"asymptotics": True, "dynamics": {
                "sources": [0], "moments": [2.0], "grid": GRID}}},
     "5181eb158961a7bd e9ffaf4125779b8a"),
    # changed: the operator dump is gone, so its key is unknown
    ("nn", {"half_widths": [6], "output": {"dump_operator": True}},
     ["output.dump_operator: unknown field"]),
    ("nn", {"kernel": ZERO, "half_widths": [12, 16], "analyses": {
        "asymptotics": True, "decay": {"alphas": [3.0]}}},
     "9fea3853793ffefe 7b991dddd78084f0"),
    ("nn", {"potential": URAND, "half_widths": [48, 64], "seed": 3,
            "analyses": {"decay": {"alphas": [3.0]}}},
     "3655bf4152afc786 62dc147b5671ca1e"),
    ("nn", {"potential": URAND, "half_widths": [48, 64], "seed": 3,
            "analyses": {"decay": {"alphas": [2.0, 3.0]}}},
     "1979e6de3e0f1342 c7ddf9e33fdb073d"),
    ("base", {"analyses": {"dynamics": {"sources": [0], "moments": [2.0, 2.5],
                                        "grid": GRID}}},
     "3e7bff74e9a72e4a 63b5e56b32402650"),
    ("base", {"analyses": {"decay": {"alphas": [2.0, 3.0]}, "dynamics": {
        "sources": [0, 2], "moments": [2.0, 2.5, 3.0], "grid": GRID}}},
     "b10349cee6d43416 71744bad40f14d91"),
    ("nn", {"kernel": ZERO, "potential": {"slope": 2.0},
            "half_widths": [16]},
     "357d12a2adebc7c7 bc261e55d23752a4"),
    ("nn", {"kernel": ZERO, "half_widths": [12], "analyses": {
        "dynamics": {"sources": [0], "moments": [2.0], "grid": GRID}}},
     "458e428a887dc584 728d58fdf4339e79"),
    ("nn", {"potential": URAND, "half_widths": [48, 64], "seed": 3,
            "analyses": {"asymptotics": True, "decay": {"alphas": [3.0]},
                         "dynamics": {"sources": [0], "moments": [2.0],
                                      "grid": GRID}}},
     "479aac64244ec868 99c40edd31dae7e3"),
    ("nn", {"half_widths": [9, 6]},
     ["half_widths: must be strictly ascending"]),
    ("nn", {"potential": URAND, "seed": 1, "analyses": {}},
     "3cc2008122776f16 4b715cc6acbc335d"),
    ("nn", {"kernel": ZERO, "half_widths": [12, 16], "analyses": {
        "asymptotics": True, "decay": {"alphas": [3.0]}, "bootstrap": {},
        "dynamics": {"sources": [0], "moments": [2.0], "grid": GRID}}},
     "8a163e7cb081b6d2 acf3ff7a44704d0f"),
    ("nn", {"potential": {"perturbation": {"kind": "uniform_random",
                                           "amplitude": 0.5}},
            "half_widths": [60], "seed": 1, "analyses": {
                "asymptotics": True, "decay": {"alphas": [3.0]},
                "bootstrap": {}}},
     "22c7b08dbcdc413e fdbc4849dcb68aad"),
    ("nn", {"kernel": {"family": "power_law", "exponent": 2.5},
            "potential": {"perturbation": {"kind": "uniform_random",
                                           "amplitude": 5.0}},
            "half_widths": [60], "seed": 9},
     "379336d957b9fe43 5ef4ffeb90742e84"),
    ("nn", {"kernel": {"family": "power_law", "exponent": 4.0},
            "potential": {"perturbation": {"kind": "uniform_random",
                                           "amplitude": 0.5}},
            "half_widths": [60, 120], "seed": 1,
            "analyses": {"dynamics": {"sources": [0, 3],
                                      "moments": [2.0, 2.5],
                                      "grid": {"dt": 0.1, "t_max": 50.0,
                                               "quasi_random": 20,
                                               "far_horizon": 1e6}}}},
     "cf9ff2b5ae731526 18d541516f322a50"),
    ("demo", {},
     "db79c4f973e11510 106ee0867bd2de68"),
    # every kernel family and perturbation kind, accepted
    ("nn", {"kernel.amplitude": {"re": 0.6, "im": 0.8}},
     "b71e978b7611a4b6 1d015e0fde1e20b9"),
    ("nn", {"kernel.amplitude": -0.5},
     "126ff958f5b3eb43 f163271668f980f7"),
    # changed: a power law has no cutoff field
    ("nn", {"kernel": {"family": "power_law", "exponent": 3, "cutoff": 40}},
     ["kernel.cutoff: unknown field"]),
    ("nn", {"kernel": {"family": "finite_support",
                       "half": [1, {"re": 0.5, "im": 0.5}, 0.25]}},
     "91c9ce8517ccbeb1 43fe827d21524514"),
    ("nn", {"kernel": {"family": "custom", "coefficients": {
        "1": 0.5, "-1": 0.5, "2": {"re": 0.1, "im": 0.2},
        "-2": {"re": 0.1, "im": -0.2}}}},
     "37d683a4ce2b74d1 f5834b5304b211d7"),
    ("nn", {"kernel": {"family": "custom", "coefficients": {"3": 1}}},
     "c5d2b68d1f443b0c 7f182c58bf10a4ea"),
    ("nn", {"potential": {"slope": 0.5, "perturbation": {
        "kind": "constant", "offset": 0.25}}},
     "e43cfc673028e002 8121cc50b77adb5d"),
    ("nn", {"potential": {"perturbation": {"kind": "periodic",
                                           "pattern": [0.5, -0.5, 1]}}},
     "894d828d4ffc3d51 6478bf301f8ac8da"),
    ("nn", {"potential": {"perturbation": {
        "kind": "explicit", "first_site": -2, "table": [1.0, 2, -3.5]}}},
     "bc39454054f461cc ea0e6d353012cef8"),
    ("nn", {"potential": {"perturbation": {"kind": "explicit",
                                           "table": []}}},
     "f4f40f6d56079340 68120a6b4179522b"),
    ("nn", {"potential": {"perturbation": {"kind": "none"},
                          "family": "electric"}},
     "4975b0958c12a8cc b1c5b93b659243ab"),
    ("nn", {"potential": {"slope": None, "maryland": {
        "coupling": 2, "frequency": 0.25}}},
     "606b05cfd93fbf24 a57c9d810d86e020"),
    ("nn", {"potential": {"perturbation": {"kind": "uniform_random",
                                           "amplitude": 0, "seed": 4}},
            "seed": 18446744073709551615},
     "6de512cada141403 c83264c55725b2dd"),
    # changed: the interior window is the one tolerance left
    ("nn", {"tolerances": {"interior_window": 0}, "max_dimension": 17},
     "b10a157e5e1669a4 3bdcc7ce820c8068"),
    ("nn", {"analyses": {"bootstrap": {"gamma": 4}, "decay": None,
                         "dynamics": {"grid": {"dt": 1}}}},
     "1a97001b0c7822d7 4f2941d6104b2e0b"),
    ("nn", {"analyses": {"dynamics": {"grid": None}}, "tolerances": None,
            "output": None, "potential": None},
     "69b9344ba1d29d7f fd7e93bfe9439176"),
    # changed: an empty output directory is rejected
    ("nn", {"output": {"directory": ""}},
     ["output.directory: must not be empty"]),
    # one fault per table leaf
    ("array", {},
     ["config root must be an object"]),
    ("nn", {"bogus": 1},
     ["bogus: unknown field"]),
    ("nn", {"seed": "x"},
     ["seed: expected an integer"]),
    ("nn", {"seed": -1},
     ["seed: must be >= 0"]),
    ("nn", {"kernel": DROP},
     ["kernel: required"]),
    # changed: a null required field reads required
    ("nn", {"kernel": None},
     ["kernel: required"]),
    ("nn", {"kernel": []},
     ["kernel: expected an object"]),
    ("nn", {"kernel.family": "gaussian"},
     ["kernel.family: unknown family 'gaussian'; expected nearest_neighbor, "
      "power_law, finite_support, or custom"]),
    ("nn", {"kernel.bogus": 1},
     ["kernel.bogus: unknown field"]),
    ("nn", {"kernel.amplitude": "x"},
     ["kernel.amplitude: expected a number or {re, im}"]),
    ("nn", {"kernel.amplitude": {"re": INF}},
     ["kernel.amplitude.re: must be finite"]),
    # changed: the parts of {re, im} must be numbers
    ("nn", {"kernel.amplitude": {"re": "1.5"}},
     ["kernel.amplitude: expected a number or {re, im}"]),
    ("nn", {"kernel.amplitude": {"re": 1, "x": 0}},
     ["kernel.amplitude: expected a number or {re, im}"]),
    ("nn", {"kernel": {"family": "power_law"}},
     ["kernel.exponent: required for power_law"]),
    ("nn", {"kernel": {"family": "power_law", "exponent": "x"}},
     ["kernel.exponent: expected a number"]),
    ("nn", {"kernel": {"family": "power_law", "exponent": 1.0}},
     ["kernel: power-law exponent must exceed 1, got 1.0"]),
    ("nn", {"kernel": {"family": "power_law", "exponent": 4, "cutoff": 0}},
     ["kernel.cutoff: unknown field"]),
    ("nn", {"kernel": {"family": "power_law", "exponent": 4,
                       "cutoff": 1.5}},
     ["kernel.cutoff: unknown field"]),
    ("nn", {"kernel": {"family": "finite_support"}},
     ["kernel.half: expected a list [a(1), a(2), ...]"]),
    ("nn", {"kernel": {"family": "finite_support", "half": [True]}},
     ["kernel.half[0]: expected a number or {re, im}"]),
    ("nn", {"kernel": {"family": "custom", "coefficients": []}},
     ["kernel.coefficients: expected {offset: amplitude}"]),
    ("nn", {"kernel": {"family": "custom", "coefficients": {"a": 1}}},
     ["kernel.coefficients.a: offset keys must be integers"]),
    # changed: an offset key must spell its integer exactly
    ("nn", {"kernel": {"family": "custom", "coefficients": {"1": 1,
                                                            "01": 2}}},
     ["kernel.coefficients.01: offset keys must be integers"]),
    ("nn", {"kernel": {"family": "custom", "coefficients": {"1": "x"}}},
     ["kernel.coefficients.1: expected a number or {re, im}"]),
    ("nn", {"kernel": {"family": "custom", "coefficients": {"1": 1,
                                                            "-1": 2}}},
     ["kernel: coefficients violate a(-m) = conj(a(m)) at offset 1"]),
    ("nn", {"kernel": {"family": "custom", "coefficients": {"0": 1}}},
     ["kernel: a(0) must vanish; found a nonzero entry at offset 0"]),
    ("nn", {"potential": "x"},
     ["potential: expected an object"]),
    ("nn", {"potential": {"bogus": 1}},
     ["potential.bogus: unknown field"]),
    ("nn", {"potential": {"slope": "x"}},
     ["potential.slope: expected a number"]),
    ("nn", {"potential": {"slope": None}},
     ["potential: potential needs a field slope or a maryland block"]),
    ("nn", {"potential": {"perturbation": "x"}},
     ["potential.perturbation: expected an object"]),
    ("nn", {"potential": {"perturbation": {"bogus": 1}}},
     ["potential.perturbation.bogus: unknown field"]),
    # changed: a null kind counts as absent, so it is none
    ("nn", {"potential": {"perturbation": {"kind": None}}},
     "4975b0958c12a8cc b1c5b93b659243ab"),
    ("nn", {"potential": {"perturbation": {"kind": "constant",
                                           "offset": "x"}}},
     ["potential.perturbation.offset: expected a number"]),
    # changed: no second line for a field that already has a problem
    ("nn", {"potential": {"perturbation": {"kind": "uniform_random",
                                           "amplitude": -1}}},
     ["potential.perturbation.amplitude: must be nonnegative"]),
    ("nn", {"potential": {"perturbation": {"kind": "uniform_random",
                                           "amplitude": "x"}}},
     ["potential.perturbation.amplitude: expected a number"]),
    ("nn", {"potential": {"perturbation": {"kind": "uniform_random",
                                           "seed": -1}}},
     ["potential.perturbation.seed: must be >= 0"]),
    ("nn", {"potential": {"perturbation": {"kind": "periodic",
                                           "pattern": []}}},
     ["potential.perturbation.pattern: expected a nonempty list"]),
    ("nn", {"potential": {"perturbation": {"kind": "periodic",
                                           "pattern": ["x"]}}},
     ["potential.perturbation.pattern[0]: expected a number"]),
    # changed: a null list item is a type error, not a default
    ("nn", {"potential": {"perturbation": {"kind": "periodic",
                                           "pattern": [None, 0.5]}}},
     ["potential.perturbation.pattern[0]: expected a number"]),
    ("nn", {"potential": {"perturbation": {"kind": "explicit"}}},
     ["potential.perturbation.table: expected a list"]),
    # changed: a null list item is a type error, not a default
    ("nn", {"potential": {"perturbation": {"kind": "explicit",
                                           "table": [None]}}},
     ["potential.perturbation.table[0]: expected a number"]),
    ("nn", {"potential": {"perturbation": {"kind": "explicit",
                                           "table": [], "first_site": 0.5}}},
     ["potential.perturbation.first_site: expected an integer"]),
    ("nn", {"potential": {"maryland": "x"}},
     ["potential.maryland: expected an object"]),
    ("nn", {"potential": {"maryland": {"frequency": 0.25}}},
     ["potential.maryland.coupling: required"]),
    # changed: no second line for a field that already has a problem
    ("nn", {"potential": {"maryland": {"coupling": 1, "frequency": "x"}}},
     ["potential.maryland.frequency: expected a number"]),
    ("nn", {"potential": {"maryland": {"coupling": 1, "frequency": 0.25,
                                       "phase": "x", "bogus": 1}}},
     ["potential.maryland.bogus: unknown field",
      "potential.maryland.phase: expected a number"]),
    ("nn", {"half_widths": DROP},
     ["half_widths: required nonempty list of integers"]),
    ("nn", {"half_widths": []},
     ["half_widths: required nonempty list of integers"]),
    ("nn", {"half_widths": [0]},
     ["half_widths[0]: must be >= 1"]),
    ("nn", {"half_widths": ["x", 4]},
     ["half_widths[0]: expected an integer"]),
    # changed: a null list item is a type error, not a default
    ("nn", {"half_widths": [None]},
     ["half_widths[0]: expected an integer"]),
    ("nn", {"analyses": "x"},
     ["analyses: expected an object"]),
    # changed: a null section counts as absent
    ("nn", {"analyses": None},
     "4975b0958c12a8cc b1c5b93b659243ab"),
    ("nn", {"analyses": {"bogus": 1}},
     ["analyses.bogus: unknown field"]),
    ("nn", {"analyses": {"asymptotics": "x"}},
     ["analyses.asymptotics: expected true or false"]),
    ("nn", {"analyses": {"decay": "x"}},
     ["analyses.decay: expected an object"]),
    ("nn", {"analyses": {"decay": {}}},
     ["analyses.decay.alphas: required nonempty list of positive numbers"]),
    # changed: a null list item is a type error, not a default
    ("nn", {"analyses": {"decay": {"alphas": [None]}}},
     ["analyses.decay.alphas[0]: expected a number"]),
    ("nn", {"analyses": {"bootstrap": "x"}},
     ["analyses.bootstrap: expected an object"]),
    ("nn", {"analyses": {"bootstrap": {"gamma": 0}}},
     ["analyses.bootstrap.gamma: must be positive"]),
    ("nn", {"analyses": {"dynamics": "x"}},
     ["analyses.dynamics: expected an object"]),
    ("nn", {"analyses": {"dynamics": {"sources": "x"}}},
     ["analyses.dynamics.sources: required nonempty list of integer sites"]),
    ("nn", {"analyses": {"dynamics": {"sources": [0.5]}}},
     ["analyses.dynamics.sources[0]: expected an integer"]),
    # changed: a null list item is a type error, not a default
    ("nn", {"analyses": {"dynamics": {"sources": [None]}}},
     ["analyses.dynamics.sources[0]: expected an integer"]),
    ("nn", {"analyses": {"dynamics": {"moments": []}}},
     ["analyses.dynamics.moments: required nonempty list of positive "
      "exponents"]),
    # changed: a null list item is a type error, not a default
    ("nn", {"analyses": {"dynamics": {"moments": [None]}}},
     ["analyses.dynamics.moments[0]: expected a number"]),
    ("nn", {"analyses": {"dynamics": {"grid": "x"}}},
     ["analyses.dynamics.grid: expected an object"]),
    # changed: a falsy non-object section is a type error, not {}
    ("nn", {"analyses": {"dynamics": {"grid": []}}},
     ["analyses.dynamics.grid: expected an object"]),
    ("nn", {"analyses": {"dynamics": {"grid": {"dt": 0, "t_max": "x",
                                               "quasi_random": -1,
                                               "far_horizon": -1,
                                               "bogus": 1}}}},
     ["analyses.dynamics.grid.bogus: unknown field",
      "analyses.dynamics.grid.dt: must be positive",
      "analyses.dynamics.grid.far_horizon: must be nonnegative",
      "analyses.dynamics.grid.quasi_random: must be >= 0",
      "analyses.dynamics.grid.t_max: expected a number"]),
    ("nn", {"tolerances": "x"},
     ["tolerances: expected an object"]),
    # changed: a falsy non-object section is a type error, not {}
    ("nn", {"tolerances": False},
     ["tolerances: expected an object"]),
    # changed: the pass marks are module constants, so their keys are
    # unknown
    ("nn", {"tolerances": {"residual": 0, "orthonormality": "x",
                           "degeneracy_gap": -1, "interior_window": -1,
                           "bootstrap_slack": True,
                           "doubling_ratio_limit": 0,
                           "boundary_share_limit": NAN,
                           "eigenvalue_drift": -INF, "bogus": 1}},
     ["tolerances.bogus: unknown field",
      "tolerances.bootstrap_slack: unknown field",
      "tolerances.boundary_share_limit: unknown field",
      "tolerances.degeneracy_gap: unknown field",
      "tolerances.doubling_ratio_limit: unknown field",
      "tolerances.eigenvalue_drift: unknown field",
      "tolerances.interior_window: must be >= 0",
      "tolerances.orthonormality: unknown field",
      "tolerances.residual: unknown field"]),
    ("nn", {"tolerances": {"interior_window": 0.5}},
     ["tolerances.interior_window: expected an integer"]),
    ("nn", {"output": "x"},
     ["output: expected an object"]),
    # changed: a falsy non-object section is a type error, not {}
    ("nn", {"output": 0},
     ["output: expected an object"]),
    # changed: the operator dump is gone
    ("nn", {"output": {"directory": 1, "bogus": 1}},
     ["output.bogus: unknown field",
      "output.directory: expected a string"]),
    # changed: a null field counts as absent
    ("nn", {"output": {"directory": None}},
     "4975b0958c12a8cc b1c5b93b659243ab"),
    ("nn", {"max_dimension": 2},
     ["half_widths[0]: box dimension 17 exceeds max_dimension 2",
      "max_dimension: must be >= 3"]),
    ("nn", {"max_dimension": "x", "half_widths": [5000]},
     ["half_widths[0]: box dimension 10001 exceeds max_dimension 8192",
      "max_dimension: expected an integer"]),
    # added: a repeated analysis entry, compared after parsing
    ("nn", {"analyses": {"decay": {"alphas": [3, 2.0, 3.0]}}},
     ["analyses.decay.alphas: entries must be distinct"]),
    ("nn", {"analyses": {"dynamics": {"sources": [0, 2, 0, 2]}}},
     ["analyses.dynamics.sources: entries must be distinct"]),
    ("nn", {"analyses": {"dynamics": {"moments": [2, 2.0, "x", "y"]}}},
     ["analyses.dynamics.moments: entries must be distinct",
      "analyses.dynamics.moments[2]: expected a number",
      "analyses.dynamics.moments[3]: expected a number"]),
    # added: the power law without a cutoff, its only form
    ("nn", {"kernel": {"family": "power_law", "exponent": 3}},
     "6edbf8a6b55f21b7 52b423994d754b7a"),
]


def golden_base(name):
    if name == "demo":
        with open(DEMO_CONFIG) as fh:
            return json.load(fh)
    return {"nn": {"kernel": NN, "half_widths": [8]},
            "base": base_config("out"), "array": []}[name]


@pytest.mark.parametrize("base, edits, expected", GOLDEN,
                         ids=[f"{i}-{case[0]}"
                              for i, case in enumerate(GOLDEN)])
def test_golden_config(base, edits, expected):
    raw = copy.deepcopy(golden_base(base))
    for path, value in edits.items():
        *parents, key = path.split(".")
        node = raw
        for parent in parents:
            node = node[parent]
        if value is DROP:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    if isinstance(expected, str):
        cfg = parse_config(raw)
        moved = cfg.with_overrides(seed=123, out_dir="o2")
        assert f"{cfg.config_hash()[:16]} {moved.config_hash()[:16]}" \
            == expected
    else:
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert sorted(err.value.problems) == expected


def _table_rows(spec, prefix=""):
    """(path, tag) of every field under a config table entry, in table
    order: a tagged object's tag key first, then each tag's fields, with
    the tag that picks them."""
    if spec.tag is None:
        rows, groups = [], [(None, spec.fields or {})]
    else:
        rows, groups = [(prefix + spec.tag, None)], spec.fields.items()
    for tag, fields in groups:
        for name, child in fields.items():
            rows.append((prefix + name, tag))
            rows += _table_rows(child, f"{prefix}{name}.")
    return rows


def test_readme_config_reference_lists_every_field_of_the_table():
    import re

    from starklab.experiments import _CONFIG

    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("### Config reference", 1)[1].split("\n## ", 1)[0]
    listed = [(path, tag) for path, tag in re.findall(
        r"^\| `([^`]+)`(?: \((\w+)\))? \|", section, flags=re.MULTILINE)]
    assert listed == [(path, tag or "") for path, tag in _table_rows(_CONFIG)]
