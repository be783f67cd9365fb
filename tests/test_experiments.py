import json
import os

import numpy as np
import pytest

import starklab as sl
from starklab.experiments import parse_config, load_config, run, \
    convergence_study, ConfigError


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
    assert cfg.tolerances["residual"] == 1e-10
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


def test_parse_rejects_nonpositive_moments():
    cfg = {"kernel": {"family": "nearest_neighbor"}, "half_widths": [8],
           "analyses": {"dynamics": {"moments": [0.0]}}}
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "analyses.dynamics.moments[0]: must be positive" in str(err.value)


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


def test_run_threads_match_serial(tmp_path):
    out1, out2 = tmp_path / "serial", tmp_path / "pool"
    run(parse_config(base_config(out1)))
    run(parse_config(base_config(out2)), threads=2)
    for name in ("asymptotics.csv", "ule.csv", "study.json"):
        assert open(out1 / name, "rb").read() == open(out2 / name, "rb").read()


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


def test_reuse_spectra_fails_cleanly_without_dumps(tmp_path):
    out = tmp_path / "empty"
    cfg = parse_config(base_config(out))
    manifest = run(cfg, reuse_spectra=True)
    assert manifest.stage("spectrum").status == "failed"
    assert manifest.stage("asymptotics").status == "skipped"


def test_dump_operator_artifacts_are_tracked(tmp_path):
    out = tmp_path / "dump"
    cfg = parse_config({"kernel": {"family": "nearest_neighbor"},
                        "half_widths": [6],
                        "output": {"directory": str(out),
                                   "dump_operator": True}})
    manifest = run(cfg)
    assert "operator_N6.bin" in manifest.stage("spectrum").outputs
    raw = np.fromfile(out / "operator_N6.bin", dtype="<c16").reshape(13, 13)
    op = sl.build_operator(cfg.kernel, cfg.potential, 6)
    np.testing.assert_array_equal(raw, op.matrix)
    # a reuse pass keeps referencing the dump so the manifest stays complete
    again = run(cfg, reuse_spectra=True)
    assert "operator_N6.bin" in again.stage("spectrum").outputs
    assert_outputs_complete(out, again)


def test_study_zero_kernel_has_exactly_zero_drift(tmp_path):
    out = tmp_path / "study"
    cfg = parse_config({"kernel": {"family": "custom", "coefficients": {}},
                        "half_widths": [12, 16],
                        "analyses": {"asymptotics": True,
                                     "decay": {"alphas": [3.0]}},
                        "output": {"directory": str(out)}})
    manifest = convergence_study(cfg)
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
    assert convergence_study(cfg).stage("study").status == "ok"
    with open(out / "study.json") as fh:
        row = json.load(fh)["decay_drift"][0]
    assert row["second"] > 1.1 * row["first"]
    assert row["indices_compared"] > 0
    assert row["relative_change"] < 1e-10


def test_study_reuses_the_ule_stage_decay_reports(tmp_path, monkeypatch):
    import starklab.experiments as experiments

    calls = []
    measure = experiments.uniform_decay_constants

    def counted(sd, alpha, *args, **kwargs):
        calls.append((sd.half_width, alpha))
        return measure(sd, alpha, *args, **kwargs)

    monkeypatch.setattr(experiments, "uniform_decay_constants", counted)
    raw = {"kernel": {"family": "nearest_neighbor"},
           "potential": {"perturbation": {"kind": "uniform_random",
                                          "amplitude": 1.0}},
           "half_widths": [48, 64], "seed": 3,
           "analyses": {"decay": {"alphas": [2.0, 3.0]}}}
    expected = sorted((n, a) for n in (48, 64) for a in (2.0, 3.0))
    rows = {}
    # all stages: ule computes each report once and study reuses it;
    # study alone computes them itself
    for name, stages in (("all", None), ("alone", ["spectrum", "study"])):
        calls.clear()
        out = tmp_path / name
        manifest = run(parse_config(dict(raw, output={"directory": str(out)})),
                       stages=stages)
        assert manifest.stage("study").status == "ok"
        assert sorted(calls) == expected
        with open(out / "study.json") as fh:
            rows[name] = json.load(fh)["decay_drift"]
    assert rows["all"] == rows["alone"]
    assert len(rows["all"]) == 2


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
