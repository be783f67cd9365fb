import json
import os
import subprocess
import sys

import starklab as sl

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")
# the directory the tests import starklab from, for the traced processes
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(sl.__file__)))


def _trace(tmp_path, command, config):
    """Spans of one traced CLI command, by name."""
    trace = tmp_path / f"{command}.trace.json"
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, TRACER, str(trace), command, "--config", config],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spans = {}
    for span in json.loads(trace.read_text())["spans"]:
        spans.setdefault(span["name"], []).append(span)
    return spans


def test_tracer_records_every_measured_layer(tmp_path):
    # the benchmark's tracer wraps the layer functions and measures some
    # of their results; a signature change would break it at run time
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "kernel": {"family": "nearest_neighbor"},
        "potential": {"perturbation": {"kind": "uniform_random",
                                       "amplitude": 0.5}},
        "half_widths": [60], "seed": 1,
        "analyses": {"asymptotics": True,
                     "dynamics": {"sources": [0], "moments": [2.0],
                                  "grid": {"dt": 0.5, "t_max": 5.0,
                                           "quasi_random": 3,
                                           "far_horizon": 100.0}}},
        "output": {"directory": str(tmp_path / "out")}}))
    samples = 11 + 3
    spectrum = _trace(tmp_path, "spectrum", str(config))
    report = _trace(tmp_path, "report", str(config))
    evolve = _trace(tmp_path, "evolve", str(config))
    for spans in (spectrum, report, evolve):
        assert spans["kernels.weighted_norm"]
    for spans in (spectrum, evolve):
        (diag,) = spans["spectra.diagonalize"]
        assert diag["counts"]["eigh_floor_s"] >= 0.0
    (load,) = report["spectra.load_spectral"]
    assert load["counts"]["bytes"] == (
        os.path.getsize(tmp_path / "out" / "spectrum_N60.json")
        + os.path.getsize(tmp_path / "out" / "spectrum_N60.bin"))
    for spans in (report, evolve):
        (series,) = spans["dynamics.moment_series"]
        assert series["counts"]["samples"] == samples
