import ast
import importlib
import importlib.util
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


# targets the benchmark tracer lists for code that no longer exists
TRACER_ABSENT = {"inclusion.InclusionModel.joint_matrix", "sampling.realize_edge_ids"}


def test_benchmark_tracer_targets_resolve():
    # a renamed traced function would silently read 0 in every per-layer metric
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = set()
    for name in tracer.TARGETS:
        module, *attrs = name.split(".")
        try:
            owner = importlib.import_module(f"homsample.{module}")
            for attr in attrs:
                owner = getattr(owner, attr)
        except (ImportError, AttributeError):
            unresolved.add(name)
    assert unresolved <= TRACER_ABSENT
