"""The benchmark's tracer wraps program functions by name; a renamed or
deleted one must fail here, not only in the traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_boundary():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        str(ROOT / d) for d in ("src", "perfbench"))}
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
