"""The package's import layering, read from the source with ``ast``.

Each layer module imports only the layers below it, ``__main__`` only the
CLI, and the package root binds no public name: callers import from the
modules themselves.  No module imports ``fractions``: exact values are
built from ``int`` parts.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bks33"

#: Bottom to top.
LAYERS = ("scalar", "rays", "majorana", "catalog", "orthograph", "kscolor", "cli")


def package_imports(tree: ast.Module) -> set[str]:
    """Names of the bks33 modules a module imports, relative or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module != "bks33" and not module.startswith("bks33."):
                    continue
                module = module.removeprefix("bks33").lstrip(".")
            found.update([module.split(".")[0]] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("bks33."))
    return found


def bound_names(tree: ast.Module) -> set[str]:
    """Names the module's top level binds."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        else:
            names.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def test_modules_import_only_lower_layers():
    allowed = {name: set(LAYERS[:i]) for i, name in enumerate(LAYERS)}
    allowed["__main__"] = {"cli"}
    allowed["__init__"] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        imports = package_imports(ast.parse(path.read_text()))
        assert imports <= allowed[path.stem], (path.name, sorted(imports - allowed[path.stem]))


def test_package_root_binds_no_public_name():
    names = bound_names(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert not {n for n in names if not n.startswith("_")}


def test_no_module_imports_fractions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "fractions" not in [m.split(".")[0] for m in modules], path.name
