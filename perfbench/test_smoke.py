"""Smoke test of the benchmark in quick mode (N <= 200, short time grid).

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced.  Each run must emit
exactly the metrics BENCHMARK.json declares, with their units, and no
command may fail (error_share 0).
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import fingerprint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(ROOT, "perfbench", "reference.json"),
          encoding="utf-8") as fh:
    REFERENCE = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_emits_every_metric(workload, trace):
    # seed 1 is checked against the recorded reference, seed 2 is not
    proc = bench("--workload", workload, "--seed", str(1 + trace),
                 "--seconds", "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    record, result = json.loads(record_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert record["error_share"] == 0, record["problems"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert int(record["environment"]["blas_threads"][var]) <= \
            record["environment"]["nproc"]
    if not trace:
        return
    # one traced rep: the function self times and the process time around
    # cli.main add up to the traced wall, and so do the layer totals
    values = {name: m["value"] for name, m in result["metrics"].items()}
    functions = sum(v for k, v in values.items()
                    if k.endswith(".self_s") and not k.startswith("layer."))
    layers = sum(v for k, v in values.items() if k.startswith("layer."))
    assert functions + values["cli.process_s"] == \
        pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert layers == pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert values["spectra.diagonalize.eigh_floor_s"] > 0


def test_compare_flags_changes_beyond_tolerance():
    ref = REFERENCE["workloads"]["nn-spectrum-report/quick"]
    assert fingerprint.compare(ref, ref) == []
    moved = copy.deepcopy(ref)
    n = next(iter(moved["eigenvalues"]))
    m = next(iter(moved["eigenvalues"][n]))
    moved["eigenvalues"][n][m] += 1e-10
    assert fingerprint.compare(moved, ref) == []
    moved["eigenvalues"][n][m] += 1e-8
    assert fingerprint.compare(moved, ref)
    moved = copy.deepcopy(ref)
    moved["bootstrap"][n][1] += 1
    assert fingerprint.compare(moved, ref)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "powerlaw-study", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
