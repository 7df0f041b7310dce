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


def private_definitions(source):
    """Names of the module-level functions and classes that begin with
    one underscore."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith('_') and not node.name.startswith('__')}


def names_read(source):
    """Every name the source reads, bare or as an attribute, outside the
    module-level definition of that name, so that recursion is no read."""
    out = set()
    for top in ast.parse(source).body:
        read = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        read.discard(getattr(top, 'name', None))
        out |= read
    return out


def test_scanner_finds_unread_private_definitions():
    source = ('def _a():\n    return _a()\n\nclass _B:\n    pass\n\n'
              'def _c():\n    return m._d\n\ndef __e__():\n    pass\n')
    assert private_definitions(source) == {'_a', '_B', '_c'}
    assert private_definitions(source) - names_read(source) == {
        '_a', '_B', '_c'}
    assert '_d' in names_read(source)


def test_every_private_helper_is_read():
    sources = [p.read_text() for p in sorted(SRC.glob('*.py'))]
    read = set().union(*map(names_read, sources))
    defined = set().union(*map(private_definitions, sources))
    assert len(defined) >= 50
    assert defined - read == set()
