import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path, root=ROOT):
    """The names path imports at any depth and never reads, in order. An
    `import a.b` binds a; a name read anywhere in the module counts as used."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(root)}:{line}: {name}" for line, name in bound if name not in used]


def test_every_imported_name_is_used():
    # a package's __init__.py imports to re-export, so it is exempt
    paths = [p for p in sorted(ROOT.glob("src/dhmeasure/*.py")) if p.name != "__init__.py"]
    paths += sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))
    assert len(paths) > 20
    assert [line for p in paths for line in _unused_imports(p)] == []


def test_the_scan_sees_an_unused_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from __future__ import annotations\nimport os.path\nimport math as m\n"
        "from typing import NamedTuple, Any\n\n"
        "def f():\n    from json import dumps\n    return os.sep, Any\n"
    )
    assert _unused_imports(src, tmp_path) == ["m.py:3: m", "m.py:4: NamedTuple", "m.py:7: dumps"]
