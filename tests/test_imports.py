import ast
from pathlib import Path

import homsample

SRC = Path(homsample.__file__).parent


def _private_sibling_imports(path):
    """``(line, module, name)`` for each ``_name`` imported from another homsample module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("homsample"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append((node.lineno, node.module, name))
    return found


def test_no_module_imports_a_siblings_private_name():
    # a private helper is its module's business; a second caller needs a public function
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    offenders = {p.name: hits for p in modules if (hits := _private_sibling_imports(p))}
    assert offenders == {}
