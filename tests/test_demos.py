"""The fast demos run to the end in a fresh process."""

import os
import subprocess
import sys

import pytest

import mgnt

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("script", ["01_impact_oracle.py", "02_graph_features.py"])
def test_demo_exits_0(tmp_path, script):
    # demo 01 writes its curve file into the working directory
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mgnt.__file__))}
    done = subprocess.run([sys.executable, os.path.join(DEMOS, script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
