"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import ncmotzkin

SRC = Path(ncmotzkin.__file__).parent


def unused_imports(source):
    """(line, name) of each name the source imports and never reads; a
    name listed in `__all__` counts as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split('.')[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == '__all__'
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_finds_unused_imports():
    source = ('import os\nimport a.b\nfrom x import y, z as w\n'
              'from . import q\n__all__ = ["q"]\nprint(w, a)\n')
    assert unused_imports(source) == [(1, 'os'), (3, 'y')]


def test_no_module_imports_a_name_it_never_uses():
    found = {p.name: unused_imports(p.read_text())
             for p in sorted(SRC.glob('*.py'))}
    assert len(found) >= 9
    assert {name: names for name, names in found.items() if names} == {}
