import json
import os
import subprocess
import sys

import numpy as np
import pytest

import starklab as sl
from starklab.cli import main


def write_config(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def quiet_ladder_config(tmp_path, out_name="out"):
    """Zero hopping on the plain field: every check passes instantly."""
    return write_config(tmp_path / "cfg.json", {
        "kernel": {"family": "custom", "coefficients": {}},
        "half_widths": [12],
        "output": {"directory": str(tmp_path / out_name)},
    })


def dynamics_config(tmp_path):
    return write_config(tmp_path / "dyn.json", {
        "kernel": {"family": "custom", "coefficients": {}},
        "half_widths": [12],
        "analyses": {"dynamics": {"sources": [0], "moments": [2.0],
                                  "grid": {"dt": 0.5, "t_max": 5.0,
                                           "quasi_random": 3,
                                           "far_horizon": 100.0}}},
        "output": {"directory": str(tmp_path / "dyn_out")},
    })


def study_config(tmp_path, out_name="study_out"):
    # boxes large enough that the default interior window leaves trusted
    # modes whose cross-size drift sits at machine noise
    return write_config(tmp_path / "study.json", {
        "kernel": {"family": "nearest_neighbor"},
        "potential": {"perturbation": {"kind": "uniform_random",
                                       "amplitude": 1.0}},
        "half_widths": [48, 64],
        "seed": 3,
        "analyses": {"asymptotics": True,
                     "decay": {"alphas": [3.0]},
                     "dynamics": {"sources": [0], "moments": [2.0],
                                  "grid": {"dt": 0.5, "t_max": 5.0,
                                           "quasi_random": 3,
                                           "far_horizon": 100.0}}},
        "output": {"directory": str(tmp_path / out_name)},
    })


def test_spectrum_success_prints_stage_lines(tmp_path, capsys):
    code = main(["spectrum", "--config", quiet_ladder_config(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "stage spectrum: ok" in out
    assert "stage asymptotics: skipped" in out
    assert os.path.exists(tmp_path / "out" / "manifest.json")


def test_localize_success(tmp_path, capsys):
    code = main(["localize", "--config", quiet_ladder_config(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "stage asymptotics: ok" in out
    assert "stage ule: skipped" in out
    assert os.path.exists(tmp_path / "out" / "asymptotics.csv")


def test_evolve_success(tmp_path, capsys):
    code = main(["evolve", "--config", dynamics_config(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "stage dynamics: ok" in out
    assert os.path.exists(tmp_path / "dyn_out" / "moments_q2_k0.csv")
    assert os.path.exists(tmp_path / "dyn_out" / "envelope.json")


def test_missing_config_flag_exits_1(tmp_path, capsys):
    code = main(["spectrum"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("starklab:")


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate", "--config", "x.json"]) == 1
    assert "starklab:" in capsys.readouterr().err


def test_unknown_flag_exits_1(tmp_path, capsys):
    cfg = quiet_ladder_config(tmp_path)
    assert main(["spectrum", "--config", cfg, "--loud"]) == 1
    assert "starklab:" in capsys.readouterr().err


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["spectrum", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_invalid_field_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json",
                       {"kernel": {"family": "nearest_neighbor"},
                        "half_widths": [9, 6]})
    assert main(["spectrum", "--config", cfg]) == 1
    assert "strictly ascending" in capsys.readouterr().err


def test_non_finite_amplitude_exits_1(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"kernel": {"family": "nearest_neighbor"}, '
                    '"half_widths": [8], "potential": {"perturbation": '
                    '{"kind": "uniform_random", "amplitude": NaN}}}')
    assert main(["spectrum", "--config", str(path)]) == 1
    assert "potential.perturbation.amplitude: must be finite" in \
        capsys.readouterr().err


@pytest.mark.parametrize("where", ["config", "flag", "file"])
def test_unusable_output_directory_exits_1(tmp_path, capsys, where):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    directory = {"config": "", "flag": str(tmp_path / "out"),
                 "file": str(taken)}[where]
    cfg = write_config(tmp_path / "cfg.json", {
        "kernel": {"family": "nearest_neighbor"}, "half_widths": [8],
        "output": {"directory": directory}})
    argv = ["spectrum", "--config", cfg] + (["--out", ""]
                                            if where == "flag" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("starklab: invalid config:")
    assert "output.directory: " in err
    if where != "file":
        assert "output.directory: must not be empty" in err


def test_study_needs_two_widths_exits_1(tmp_path, capsys):
    cfg = quiet_ladder_config(tmp_path)
    assert main(["study", "--config", cfg]) == 1
    assert "at least two" in capsys.readouterr().err


def test_stage_failure_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "mary.json", {
        "kernel": {"family": "nearest_neighbor"},
        "potential": {"maryland": {"coupling": 1.0,
                                   "frequency": 0.3819660112501051,
                                   "phase": 0.1}},
        "half_widths": [16],
        "analyses": {"asymptotics": True},
        "tolerances": {"interior_window": 5},
        "output": {"directory": str(tmp_path / "mary_out")},
    })
    code = main(["localize", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 2
    assert "stage asymptotics: failed (WrongPotentialFamilyError" in out


def test_failed_theorem_check_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "steep.json", {
        "kernel": {"family": "custom", "coefficients": {}},
        "potential": {"slope": 2.0},
        "half_widths": [16],
        "output": {"directory": str(tmp_path / "steep_out")},
    })
    code = main(["localize", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 3
    assert "stage asymptotics: ok" in captured.out
    assert "check failed:" in captured.err


def test_out_and_seed_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "kernel": {"family": "nearest_neighbor"},
        "potential": {"perturbation": {"kind": "uniform_random",
                                       "amplitude": 1.0}},
        "half_widths": [8],
        "seed": 1,
        "analyses": {},
        "output": {"directory": str(tmp_path / "ignored")},
    })
    assert main(["spectrum", "--config", cfg,
                 "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(["spectrum", "--config", cfg,
                 "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    capsys.readouterr()
    assert not os.path.exists(tmp_path / "ignored")
    doc_a = json.load(open(tmp_path / "a" / "manifest.json"))
    doc_b = json.load(open(tmp_path / "b" / "manifest.json"))
    assert doc_a["config_hash"] != doc_b["config_hash"]
    bin_a = open(tmp_path / "a" / "spectrum_N8.bin", "rb").read()
    bin_b = open(tmp_path / "b" / "spectrum_N8.bin", "rb").read()
    assert bin_a != bin_b


def test_study_runs_all_stages(tmp_path, capsys):
    code = main(["study", "--config", study_config(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("spectrum", "asymptotics", "ule", "dynamics", "study"):
        assert f"stage {name}: ok" in out
    assert "stage bootstrap: skipped" in out
    assert os.path.exists(tmp_path / "study_out" / "study.json")


LOCALIZATION = {"asymptotics", "ule", "bootstrap"}


@pytest.mark.parametrize("command, ran", [
    ("spectrum", {"spectrum"}),
    ("localize", {"spectrum"} | LOCALIZATION),
    ("evolve", {"spectrum", "dynamics"}),
    ("study", {"spectrum", "dynamics", "study"} | LOCALIZATION),
    ("report", {"spectrum", "dynamics"} | LOCALIZATION),
])
def test_each_command_runs_its_stages(tmp_path, capsys, command, ran):
    # every analysis enabled: a command's own stage set decides what runs
    cfg = write_config(tmp_path / "all.json", {
        "kernel": {"family": "custom", "coefficients": {}},
        "half_widths": [12, 16],
        "analyses": {"asymptotics": True, "decay": {"alphas": [3.0]},
                     "bootstrap": {},
                     "dynamics": {"sources": [0], "moments": [2.0],
                                  "grid": {"dt": 0.5, "t_max": 5.0,
                                           "quasi_random": 3,
                                           "far_horizon": 100.0}}},
        "output": {"directory": str(tmp_path / "all_out")},
    })
    if command == "report":
        assert main(["spectrum", "--config", cfg]) == 0
        capsys.readouterr()
    assert main([command, "--config", cfg]) == 0
    printed = dict(line.removeprefix("stage ").split(": ")
                   for line in capsys.readouterr().out.splitlines())
    assert list(printed) == ["spectrum", "asymptotics", "ule", "bootstrap",
                             "dynamics", "study"]
    assert {name for name, status in printed.items()
            if status != "skipped"} == ran


def test_report_reuses_dumps_and_matches(tmp_path, capsys):
    cfg = study_config(tmp_path)
    assert main(["study", "--config", cfg]) == 0
    out_dir = tmp_path / "study_out"
    before = {name: open(out_dir / name, "rb").read()
              for name in os.listdir(out_dir)
              if name.endswith(".csv") or name == "envelope.json"}
    code = main(["report", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "stage spectrum: reused" in out
    for name, blob in before.items():
        assert open(out_dir / name, "rb").read() == blob, name


def test_report_refuses_dumps_of_another_config(tmp_path, capsys):
    out = str(tmp_path / "shared_out")
    nn = {"kernel": {"family": "nearest_neighbor"},
          "potential": {"perturbation": {"kind": "uniform_random",
                                         "amplitude": 0.5}},
          "half_widths": [60], "seed": 1,
          "analyses": {"asymptotics": True, "decay": {"alphas": [3.0]},
                       "bootstrap": {}},
          "output": {"directory": out}}
    assert main(["spectrum", "--config",
                 write_config(tmp_path / "nn.json", nn)]) == 0
    power_law = dict(nn, kernel={"family": "power_law", "exponent": 2.5},
                     potential={"perturbation": {"kind": "uniform_random",
                                                 "amplitude": 5.0}},
                     seed=9)
    reseeded = dict(nn, seed=2)
    tighter = dict(nn, tolerances={"residual": 1e-11})
    windowed = dict(nn, tolerances={"interior_window": 7})
    capsys.readouterr()
    for doc, field in ((power_law, "provenance.kernel.family"),
                       (reseeded, "provenance.potential.perturbation.seed"),
                       (tighter, "provenance.residual_tol"),
                       (windowed, "interior_window")):
        code = main(["report", "--config",
                     write_config(tmp_path / "report.json", doc)])
        printed = capsys.readouterr().out
        assert code == 2
        assert "stage spectrum: failed (ProvenanceMismatchError" in printed
        assert field in printed
        assert "stage asymptotics: skipped" in printed
    # the dumps' own config still reports
    assert main(["report", "--config",
                 write_config(tmp_path / "same.json", nn)]) == 0
    assert "stage spectrum: reused" in capsys.readouterr().out


def _edit_sup(provenance):
    provenance["perturbation_sup"] = 100.0


def _edit_dtype(provenance):
    provenance["matrix_dtype"] = "complex128"


def _add_cutoff(provenance):
    # what a power-law dump header carried when the kernel had a cutoff
    provenance["kernel"]["cutoff"] = 25


@pytest.mark.parametrize("edit, field", [
    (_edit_sup, "provenance.perturbation_sup"),
    (_edit_dtype, "provenance.matrix_dtype"),
    (_add_cutoff, "provenance.kernel.cutoff"),
], ids=["perturbation-sup", "matrix-dtype", "kernel-cutoff"])
def test_report_refuses_an_edited_header(tmp_path, capsys, edit, field):
    # the sha256 covers the payload only; report checks the header's
    # provenance against the config instead
    cfg = write_config(tmp_path / "cfg.json", {
        "kernel": {"family": "power_law", "exponent": 4.0},
        "potential": {"perturbation": {"kind": "uniform_random",
                                       "amplitude": 1.0}},
        "half_widths": [12], "seed": 5,
        "output": {"directory": str(tmp_path / "out")}})
    assert main(["spectrum", "--config", cfg]) == 0
    header_path = tmp_path / "out" / "spectrum_N12.json"
    header = json.loads(header_path.read_text())
    edit(header["provenance"])
    header_path.write_text(json.dumps(header))
    capsys.readouterr()
    assert main(["report", "--config", cfg]) == 2
    printed = capsys.readouterr().out
    assert "stage spectrum: failed (ProvenanceMismatchError" in printed
    assert field in printed
    assert "stage asymptotics: skipped" in printed


@pytest.mark.parametrize("damage, problem", [
    (lambda raw: raw[:100] + bytes([raw[100] ^ 1]) + raw[101:], "sha256"),
    (lambda raw: raw[:-8], "byte_length"),
], ids=["flipped-byte", "truncated"])
def test_report_refuses_a_damaged_dump(tmp_path, capsys, damage, problem):
    cfg = quiet_ladder_config(tmp_path)
    assert main(["spectrum", "--config", cfg]) == 0
    bin_path = tmp_path / "out" / "spectrum_N12.bin"
    bin_path.write_bytes(damage(bin_path.read_bytes()))
    capsys.readouterr()
    code = main(["report", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 2
    assert "stage spectrum: failed (ValueError" in out
    assert problem in out
    assert "stage asymptotics: skipped" in out


def test_report_refuses_a_header_whose_half_width_disagrees(tmp_path,
                                                            capsys):
    # the header's half_width, not its provenance's, places the centers:
    # an edited one would shift every center by a site
    cfg = write_config(tmp_path / "cfg.json", {
        "kernel": {"family": "power_law", "exponent": 4.0},
        "half_widths": [40], "seed": 1,
        "analyses": {"asymptotics": True, "decay": {"alphas": [3.0]},
                     "bootstrap": {}, "dynamics": {"sources": [0]}},
        "output": {"directory": str(tmp_path / "out")}})
    assert main(["spectrum", "--config", cfg]) == 0
    header_path = tmp_path / "out" / "spectrum_N40.json"
    header = json.loads(header_path.read_text())
    header["half_width"] = 41
    header_path.write_text(json.dumps(header))
    capsys.readouterr()
    assert main(["report", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "stage spectrum: failed (ValueError" in out
    assert "half_width 41 disagrees with dimension 81" in out
    for name in ("asymptotics", "ule", "bootstrap", "dynamics"):
        assert f"stage {name}: skipped" in out


def test_report_without_dumps_exits_2(tmp_path, capsys):
    cfg = quiet_ladder_config(tmp_path, out_name="never_written")
    code = main(["report", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 2
    assert "stage spectrum: failed" in out


def test_module_entry_point_runs(tmp_path):
    cfg = quiet_ladder_config(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "starklab.cli",
                           "spectrum", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "stage spectrum: ok" in proc.stdout


def test_blas_thread_count_moves_only_the_last_digits(tmp_path):
    # Byte identity holds per BLAS thread count.  Across counts the
    # eigenvalues agree to round-off, and so do the moments on the uniform
    # grid.  A shift dl of the eigenvalues turns the phases by dl * t, so
    # |psi_t(n)| moves by at most t * dl * B(n, k) and M_q(t) by at most
    # t * dl * (2 + t * dl) * E_q: the far samples (t up to 1e6) are held
    # to that bound.
    t_max = 50.0
    cfg = write_config(tmp_path / "threads.json", {
        "kernel": {"family": "power_law", "exponent": 4.0},
        "potential": {"perturbation": {"kind": "uniform_random",
                                       "amplitude": 0.5}},
        "half_widths": [60, 120],
        "seed": 1,
        "analyses": {"dynamics": {"sources": [0, 3], "moments": [2.0, 2.5],
                                  "grid": {"dt": 0.1, "t_max": t_max,
                                           "quasi_random": 20,
                                           "far_horizon": 1e6}}},
    })
    outs = {}
    for threads in ("1", "2"):
        outs[threads] = tmp_path / f"out{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "starklab.cli", "evolve",
                               "--config", cfg, "--out", str(outs[threads])],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    for n in (60, 120):
        one, two = (sl.load_spectral(str(outs[t] / f"spectrum_N{n}"))
                    for t in ("1", "2"))
        np.testing.assert_allclose(one.eigenvalues, two.eigenvalues,
                                   rtol=0, atol=1e-12)
    dl = float(np.max(np.abs(one.eigenvalues - two.eigenvalues)))
    with open(outs["1"] / "envelope.json") as fh:
        sources = json.load(fh)["sources"]
    for k in (0, 3):
        for q in ("2", "2.5"):
            name = f"moments_q{q}_k{k}.csv"
            one, two = (np.loadtxt(outs[t] / name, delimiter=",", skiprows=1)
                        for t in ("1", "2"))
            np.testing.assert_array_equal(one[:, 0], two[:, 0])
            t, diff = one[:, 0], np.abs(one[:, 1] - two[:, 1])
            sup = np.max(one[:, 1])
            e_q = sources[str(k)]["half_widths"]["120"]["moments"][q]["value"]
            assert np.max(diff[t <= t_max]) <= 1e-12 * sup, name
            assert np.all(diff <= 1e-12 * sup
                          + t * dl * (2.0 + t * dl) * e_q), name


def test_every_benchmark_trace_target_resolves():
    # perfbench/run.py --trace 1 wraps these by name; a renamed or removed
    # function would otherwise surface only when the benchmark runs
    import importlib
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, qualnames in tracer.TARGETS.items():
        module = importlib.import_module(f"starklab.{module_name}")
        for qualname in qualnames:
            owner = module
            for attr in qualname.split("."):
                owner = getattr(owner, attr)
            assert callable(owner), f"starklab.{module_name}.{qualname}"
