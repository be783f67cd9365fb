import os
import subprocess
import sys

import pytest

import starklab as sl

DEMO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "demos")
# the directory the tests import starklab from, for the demo processes
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(sl.__file__)))


@pytest.mark.parametrize("demo", [
    "bootstrap_inequality", "eigenvalue_pinning", "integer_ladder",
    "maryland_potential", "power_law_decay", "wave_packet_moments"])
def test_demo_runs_and_writes_its_csv(demo, tmp_path):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable,
                           os.path.join(DEMO_DIR, f"{demo}.py")],
                          cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    written = list((tmp_path / "demo_out").glob("*.csv"))
    assert written and all(p.stat().st_size > 0 for p in written)
