"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_matches_its_comments():
    # each `print(...)  # EITFF_...` comment must be the first line that print produces
    readme = (ROOT / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Library quick start")) + len("```python\n")
    block = readme[start:readme.index("```", start)]
    printed = []

    def capture(*args):
        printed.append(" ".join(map(str, args)))

    exec(compile(block, "README.md", "exec"), {"print": capture})
    calls = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(calls) == len(printed)
    expected = [(line.split("# ", 1)[1].strip(), out) for line, out in zip(calls, printed) if "# EITFF_" in line]
    assert expected
    for comment, output in expected:
        assert output.splitlines()[0] == comment
