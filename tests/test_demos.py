"""Smoke tests: each fast demo runs to completion and prints something.

Each demo runs with every `RuntimeWarning` as an error, as the suite itself
does (`pyproject.toml`), so a 0/0 or an overflow in a demo fails its test.
`demos/02_forecast_comparison.py` is left out: it trains both models and
takes about 13 s, against about 2 s for each demo here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_build_index.py", "03_cli_pipeline.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(REPO / "demos" / demo)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
