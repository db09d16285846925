import subprocess
import sys
from pathlib import Path

import numpy as np

from ftspectra.core import read_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_export_kernel_shapes(tmp_path):
    res = subprocess.run([sys.executable, str(SCRIPTS / "export_kernel_shapes.py"),
                          "--out-dir", str(tmp_path)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    for name, header, n_rows in [("taper.csv", ["s", "tr", "pr", "id"], 801),
                                 ("smoothing_kernel.csv", ["x", "tr", "pr", "id"], 1201),
                                 ("weight_function.csv", ["x", "tr", "pr", "id"], 801)]:
        head, values = read_csv(tmp_path / name, header=True)
        assert head == header, name
        assert values.shape == (n_rows, 4), name
        assert np.all(np.isfinite(values)), name
