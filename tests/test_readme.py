"""README's library quick start runs as written."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_quick_start_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    size_line, error_line = run.stdout.splitlines()
    size, bound = size_line.split(" <= ")
    assert int(size) <= int(bound)
    assert float(error_line.split()[-1]) <= 0.25
