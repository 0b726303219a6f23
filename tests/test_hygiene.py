"""Static checks on the source tree: no imported name goes unused."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the package __init__ imports names to re-export them
SCANNED = sorted(p for p in (ROOT / "src" / "hamil").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """Names bound by import statements that the module never reads,
    counting quoted annotations such as ``-> "MergeQueue"``."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = [getattr(node, "returns", None),
                       getattr(node, "annotation", None)]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value))
                            if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_detector():
    src = ("from __future__ import annotations\n"
           "import os, numpy as np\n"
           "from typing import List, Sequence\n"
           "def f(x: 'List[int]') -> 'Path':\n"
           "    return np.zeros(1)\n")
    assert unused_imports(src) == [(2, "os"), (3, "Sequence")]


def test_no_unused_imports():
    hits = [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in SCANNED
            for line, name in unused_imports(path.read_text())]
    assert not hits, "unused imports:\n" + "\n".join(hits)
