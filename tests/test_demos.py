"""Each demo script, and the README quick start, runs to completion against
the library as it stands."""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script)], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    # a copy, because a demo may write next to its own file
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    proc = _run(copy, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_what_its_comments_claim(tmp_path):
    text = (ROOT / "README.md").read_text()
    start = text.index("```python\n") + len("```python\n")
    script = tmp_path / "quick_start.py"
    script.write_text(text[start:text.index("```", start)])
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    *_, label, counts, limit = proc.stdout.splitlines()
    assert label == "L"
    assert set(ast.literal_eval(counts)) == {"K", "L", "M"}
    assert limit == "Gr_3(C^4)"
