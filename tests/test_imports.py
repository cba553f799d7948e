"""Importing the package and its CLI must not import scipy.spatial: that
import takes about 50 ms, which every command would pay.  `tda` imports
it when it first computes Canberra distances."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_import_leaves_scipy_spatial_unloaded():
    code = ("import sys, hierfcst, hierfcst.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
