"""The demo scripts run to completion against the current API.

Each runs as its own process, in a temporary working directory, with the
imported ``emx`` first on ``PYTHONPATH``. ``rosenbrock_two_speed.py`` and
``switch_mid_training.py`` are left out: they take several seconds each
(about 5 s and 9 s on a 2-core machine), against well under a second for the
others.
"""

import os
import subprocess
import sys

import pytest

import emx

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["deterministic_resume", "forgetting_curve", "halflife_warmup",
                                  "valley_preseed", "weight_profiles"])
def test_demo_exits_zero(name, tmp_path):
    src = os.path.dirname(os.path.dirname(emx.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, f"{name}.py")], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
