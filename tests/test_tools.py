"""tools/bench_spectrum.py's run_case on small boxes, in numpy's own
LAPACK and with every LAPACK routine missing, and its run_study of the
command line at small N, so that a change to the spectrum layer or the
CLI that breaks the bench script fails the suite; and
tools/identity_sweep.py's comparison of two output trees."""
import importlib.util
import json
import math
import os

import pytest

from starklab.spectra import ORTHONORMALITY_TOL, RESIDUAL_TOL

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "bench_spectrum.py")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_spectrum", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("lapack", ["numpy", "missing"])
@pytest.mark.parametrize("kernel", ["nearest_neighbor_B2",
                                    "power_law_p4_B0.5"])
def test_bench_case_times_every_layer(bench, kernel, lapack, monkeypatch,
                                      request):
    if lapack == "missing":  # ?stevd and ?syevd both go to numpy's eigh
        request.getfixturevalue("no_lapack")
    monkeypatch.setattr(bench, "REPEATS", 1)
    case = bench.run_case(kernel, 80)
    assert (case["kernel"], case["half_width"], case["dimension"]) == \
        (kernel, 80, 161)
    seconds, spread = case["seconds"], case["seconds_min_max"]
    assert spread.keys() == seconds.keys()
    # the tridiagonal residual never reads the dense matrix
    assert (seconds.pop("matrix") is None) == kernel.startswith("nearest")
    assert (spread.pop("matrix") is None) == kernel.startswith("nearest")
    assert all(t >= 0 for t in seconds.values())
    assert all(spread[k][0] <= t <= spread[k][1] for k, t in seconds.items())
    # the gates' limits; the spectral radius is below the dimension
    assert 0 <= case["max_residual"] <= RESIDUAL_TOL * case["dimension"]
    assert 0 <= case["orthonormality_defect"] <= ORTHONORMALITY_TOL
    assert case["dump_mb"] > 0
    assert 0 < case["peak_rss_mb_to_diagonalize"] <= case["peak_rss_mb"]


@pytest.mark.parametrize("kernel", ["nearest_neighbor_B2",
                                    "power_law_p4_B0.5"])
def test_bench_study_runs_the_cli_end_to_end(bench, kernel):
    assert kernel in bench.STUDIES
    study = bench.run_study(kernel, (100, 200))
    assert (study["kernel"], study["half_widths"]) == (kernel, [100, 200])
    assert study["wall_s"] > 0
    # the child's own peak: the interpreter, numpy and both boxes
    assert study["peak_rss_mb"] > 1
    assert isinstance(study["checks_passed"], bool)


def test_bench_study_reports_a_failed_run(bench, monkeypatch):
    monkeypatch.setitem(bench.KERNELS, "broken",
                        ({"family": "power_law", "exponent": -1.0}, 0.5))
    with pytest.raises(RuntimeError, match="exited 1"):
        bench.run_study("broken", (100, 200))


SWEEP = os.path.join(os.path.dirname(TOOL), "identity_sweep.py")


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("identity_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output_tree(root, csv_value="0.10000000000000001", timing=1.5):
    """A small output tree: a CSV, a JSON payload, a binary and a
    manifest with a timing and a timestamp."""
    out = root / "case" / "out"
    out.mkdir(parents=True)
    (out / "ule.csv").write_text(
        f"ladder_index,sup_constant\n0,{csv_value}\n1,2.5\n")
    (out / "study.json").write_text('{"drift": [1.0, 2.0]}\n')
    (out / "spectrum_N1.bin").write_bytes(bytes(range(16)))
    (out / "manifest.json").write_text(json.dumps({
        "created_utc": f"2026-01-01T00:00:0{int(timing)}",
        "timing": {"spectrum": {"wall_s": timing}},
        "environment": {"cpu_count": int(timing)},
        "stages": [{"name": "spectrum", "status": "ok"}]}))
    return root


def test_identity_sweep_reports_identical_trees(sweep, tmp_path):
    base = _output_tree(tmp_path / "base")
    head = _output_tree(tmp_path / "head")
    records = sweep.compare_trees(str(base), str(head))
    assert {r["status"] for r in records} == {"identical"}
    assert len(records) == 4
    assert sweep.summary(records).endswith("verdict: identical")


def test_identity_sweep_reports_a_one_ulp_csv_change(sweep, tmp_path):
    above = math.nextafter(0.1, 1.0)
    moved = repr(above)
    base = _output_tree(tmp_path / "base")
    head = _output_tree(tmp_path / "head", csv_value=moved)
    records = {r["file"]: r for r in
               sweep.compare_trees(str(base), str(head))}
    record = records[os.path.join("case", "out", "ule.csv")]
    assert record["status"] == "differs"
    assert record["values"] == 1
    assert record["paths"] == ["row 1 sup_constant"]
    assert record["max_abs"] == above - 0.1
    assert record["max_rel"] == (above - 0.1) / above
    text = sweep.summary(list(records.values()))
    assert "differs: case/out/ule.csv: 1 values" in text
    assert text.endswith("verdict: differs")


def test_identity_sweep_ignores_a_manifests_timing(sweep, tmp_path):
    base = _output_tree(tmp_path / "base", timing=1.5)
    head = _output_tree(tmp_path / "head", timing=2.5)
    records = {r["file"]: r for r in
               sweep.compare_trees(str(base), str(head))}
    manifest = os.path.join("case", "out", "manifest.json")
    assert records[manifest]["status"] == "equal"
    assert all(r["status"] == "identical" for name, r in records.items()
               if name != manifest)
    assert sweep.summary(list(records.values())).endswith(
        "verdict: identical")
    # a stage record is not ignored
    (tmp_path / "head" / manifest).write_text(
        (tmp_path / "head" / manifest).read_text().replace('"ok"',
                                                           '"failed"'))
    record = sweep.compare_file(
        manifest, (tmp_path / "base" / manifest).read_bytes(),
        (tmp_path / "head" / manifest).read_bytes())
    assert (record["status"], record["paths"]) == \
        ("differs", ["stages[0].status"])
    # every differing path is named, up to PATHS_SHOWN: a config hash and
    # the config keys a change removed
    removed = ["bootstrap_slack", "degeneracy_gap", "residual"]
    base_doc = {"config_hash": "a", "effective_config": {"tolerances": dict(
        {key: 1.0 for key in removed}, interior_window=None)}}
    head_doc = {"config_hash": "b", "effective_config": {
        "tolerances": {"interior_window": None}}}
    record = sweep.compare_file(manifest, json.dumps(base_doc).encode(),
                                json.dumps(head_doc).encode())
    paths = ["config_hash"] + [f"effective_config.tolerances.{key}"
                               for key in removed]
    assert (record["values"], record["paths"]) == (4, paths)
    assert sweep.summary([record]).splitlines()[2].endswith(
        "at " + ", ".join(paths))
    head_doc.update({f"x{i}": i for i in range(8)})
    record = sweep.compare_file(manifest, json.dumps(base_doc).encode(),
                                json.dumps(head_doc).encode())
    assert record["values"] == 12
    assert record["paths"] == paths + [f"x{i}" for i in range(6)]
    assert sweep.summary([record]).splitlines()[2].endswith("x5, ...")


def _package(root, files):
    package = root / "src" / "starklab"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).write_text(text)
    return str(root)


def test_identity_sweep_counts_code_and_docstring_lines(sweep, tmp_path):
    base = _package(tmp_path / "base", {
        "a.py": '"""Module\ndocstring."""\n\nX = 1  # a comment\n',
        "notes.txt": "not python\n"})
    head = _package(tmp_path / "head", {
        "a.py": '"""Module."""\n# a comment line\n\n\n'
                'def f(x):\n    """One line."""\n'
                '    return """a string\nover two lines"""\n',
        "b.py": "class C:\n    '''Class\n    docstring.'''\n"
                "    y = (1,\n         2)\n"})
    assert sweep.line_counts(base) == {"total": 4, "docstring": 2, "code": 1}
    assert sweep.line_counts(head) == {"total": 13, "docstring": 4,
                                       "code": 6}
