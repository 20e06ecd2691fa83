"""Boundaries between the modules of the gridplan package."""

from __future__ import annotations

import ast
from pathlib import Path

import gridplan

PACKAGE = Path(gridplan.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    # A name that starts with "_" belongs to its own module: one that
    # another module uses is given a public name.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "gridplan":
                continue
            found += [f"{path.name}: {alias.name} from "
                      f"{'.' * node.level}{module}"
                      for alias in node.names if alias.name.startswith("_")]
    assert found == []
