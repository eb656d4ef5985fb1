"""README's "Library use" block runs as written, from the root of a checkout."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_block(section: str, lang: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.DOTALL).group(1)


def test_library_use_block_runs():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", readme_block("Library use", "python")],
                          cwd=ROOT, env=env, capture_output=True, text=True, encoding="utf-8",
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "Sign match" in proc.stdout
    assert proc.stdout.rstrip().endswith("}") and "digraph atlas {" in proc.stdout
