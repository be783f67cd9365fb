import json
import os
import subprocess
import sys

import pytest

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


def test_nonpositive_threads_exits_1(tmp_path, capsys):
    cfg = quiet_ladder_config(tmp_path)
    assert main(["spectrum", "--config", cfg, "--threads", "0"]) == 1
    assert "--threads" in capsys.readouterr().err


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
    code = main(["study", "--config", study_config(tmp_path),
                 "--threads", "2"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("spectrum", "asymptotics", "ule", "dynamics", "study"):
        assert f"stage {name}: ok" in out
    assert "stage bootstrap: skipped" in out
    assert os.path.exists(tmp_path / "study_out" / "study.json")


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
