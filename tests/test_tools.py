"""tools/bench_spectrum.py's run_case on small boxes, in numpy's own
LAPACK and with every LAPACK routine missing, so that a change to the
spectrum layer that breaks the bench script fails the suite."""
import importlib.util
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
    seconds = case["seconds"]
    # the tridiagonal residual never reads the dense matrix
    assert (seconds.pop("matrix") is None) == kernel.startswith("nearest")
    assert all(t >= 0 for t in seconds.values())
    # the gates' limits; the spectral radius is below the dimension
    assert 0 <= case["max_residual"] <= RESIDUAL_TOL * case["dimension"]
    assert 0 <= case["orthonormality_defect"] <= ORTHONORMALITY_TOL
    assert case["dump_mb"] > 0
    assert 0 < case["peak_rss_mb_to_diagonalize"] <= case["peak_rss_mb"]
