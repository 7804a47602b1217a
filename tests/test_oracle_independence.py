"""The in-house kernels must not borrow from the numpy/scipy oracles.

Every accuracy test compares metricforge against numpy.linalg or scipy; the
comparison means something only while src/metricforge uses neither.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "metricforge"


def oracle_uses(source: str) -> list[str]:
    """Line-tagged imports or attribute uses of numpy.linalg or scipy."""
    tree = ast.parse(source)
    numpy_names = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                if alias.name.startswith(("numpy.linalg", "scipy")):
                    found.append(f"{node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            mod = node.module or ""
            if mod.startswith(("numpy.linalg", "scipy")) or (
                    mod == "numpy" and any(a.name == "linalg" for a in node.names)):
                found.append(f"{node.lineno}: from {mod} import ...")
        elif isinstance(node, ast.Name) and node.id == "scipy":
            found.append(f"{node.lineno}: scipy")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            found.append(f"{node.lineno}: {node.value.id}.linalg")
    return found


def test_checker_flags_oracle_uses():
    bad = ("import numpy as np\nimport scipy.linalg\nfrom numpy import linalg\n"
           "from numpy.linalg import eig\nx = np.linalg.eigvals(a)\n")
    assert len(oracle_uses(bad)) == 4
    assert oracle_uses("from . import linalg\nimport numpy as np\nlinalg.inverse(np.eye(2))\n") == []


def test_src_uses_no_oracle():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f.name: oracle_uses(f.read_text()) for f in files}
    assert not any(found.values()), found
