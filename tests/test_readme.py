"""The README's library examples run as written on the shipped fixture."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_examples_run(monkeypatch, capsys):
    # The blocks run in order in one namespace, as a reader would paste
    # them, from the repository root their paths are relative to.
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md")
                        .read_text(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["result"].status == "optimal"
    assert namespace["solution"].status == "optimal"
    assert capsys.readouterr().out.strip()
