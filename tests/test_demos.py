import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_toeplitz_lowering", "02_interval_bounds",
                                  "03_score_and_prune", "06_mask_transfer", "07_lp_export"])
def test_demo_runs(name, tmp_path):
    """Each quick demo runs as a script and exits 0.

    04_baseline_comparison and 05_classwise_and_sweeps are left out: they
    take about 19 s and 20 s, against about 5 s for these five together.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
