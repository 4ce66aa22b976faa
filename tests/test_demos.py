"""Every script in demos/ runs to the end and prints what it printed
when its expected output was recorded.

Each demo asserts its own identities, so exit status 0 means those held
too.  They run as a user would: a fresh interpreter with PYTHONPATH=src.
Each demo is deterministic; its stdout is compared byte for byte with
demo_output/<name>.txt next to this file.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = pathlib.Path(__file__).resolve().parent / "demo_output"


def test_the_four_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "connecting_map.py", "iwasawa_limits.py",
        "lfunctions_two_ways.py", "noncommutative_class.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_text()
