"""Every public name and every stored field in the package is read by the program.

A top-level function, class or constant of ``src/pauliscope`` stays only if
a subcommand, a script or ``selftest`` can reach it: some other statement in
``src/`` or ``scripts/`` must use it.  Reference code that only tests compare
against lives in ``tests/conftest.py``.  Likewise a dataclass field or
``self.<attr>`` stays only if some statement in ``src/``, ``scripts/`` or
``perfbench/`` reads an attribute of that name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pauliscope"

#: the paper's hardness bound: no subcommand reaches it yet; it is kept for
#: the bound column truncate-mse is to write (ROADMAP.md, truncated Pauli
#: propagation)
RESERVED = {
    "truncation.simulability_bound",
    "truncation.residual_spectral_norm",
    "spectrum.ose",
}


def _defined(node) -> list[str]:
    """Public names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def _used(node) -> set[str]:
    """Names a statement reads, as a variable, an attribute or an import."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def test_public_names_are_reached():
    definitions = []  # (module, name, defining statement)
    uses = []  # (statement, names it reads)
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            uses.append((node, _used(node)))
            if path.parent == PACKAGE:
                definitions.extend((path.stem, name, node) for name in _defined(node))
    unreached = {
        f"{module}.{name}"
        for module, name, home in definitions
        if not any(name in names for node, names in uses if node is not home)
    }
    assert RESERVED <= unreached, (
        f"{sorted(RESERVED - unreached)} are gone or reached now; drop them from RESERVED"
    )
    extra = sorted(unreached - RESERVED)
    assert not extra, f"only tests reach {extra}; move them to tests/"


def _stored_fields(tree):
    """(class, attribute) for each dataclass field and ``self.<attr>`` store."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield cls.name, stmt.target.id
        for sub in ast.walk(cls):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                yield cls.name, sub.attr


def _read_attributes(tree) -> set[str]:
    """Attribute names a module reads: loads, ``x.a += ...`` and ``getattr(x, "a")``."""
    read = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            read.add(sub.attr)
        elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Attribute):
            read.add(sub.target.attr)
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
              and sub.func.id == "getattr" and len(sub.args) > 1
              and isinstance(sub.args[1], ast.Constant)):
            read.add(sub.args[1].value)
    return read


def test_stored_fields_are_read():
    """A dataclass field or ``self.<attr>`` of the package is state some statement
    in ``src/``, ``scripts/`` or ``perfbench/`` reads back; otherwise delete it."""
    stored = set()
    read = set()
    for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            if folder == PACKAGE:
                stored.update((path.stem, cls, attr) for cls, attr in _stored_fields(tree))
            read |= _read_attributes(tree)
    unread = sorted(".".join(field) for field in stored if field[2] not in read)
    assert not unread, f"stored but never read: {unread}"


#: the modules that build circuits or run an engine; a figure script reads the
#: CSVs of the subcommands instead, so each engine keeps one path to a figure
ENGINE_MODULES = {"driver", "rtn", "circuits", "truncation", "opsim"}


def test_scripts_only_read_cli_output():
    found = []
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):  # from a.b import c reaches a.b.c
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name} imports {name}" for name in names
                      if name.split(".")[:2] in [["pauliscope", m] for m in ENGINE_MODULES]]
    assert not found, found
