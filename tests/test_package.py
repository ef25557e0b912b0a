import os
import subprocess
import sys

import crnoma_aoi


def test_analytic_import_loads_no_numpy():
    # the package re-exports nothing, so the closed forms import on their own
    src = os.path.dirname(os.path.dirname(crnoma_aoi.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import crnoma_aoi.analytic, sys; print([m for m in "
         "('numpy', 'crnoma_aoi.model', 'crnoma_aoi.simulator') if m in sys.modules])"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"
