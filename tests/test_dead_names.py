"""Every top-level name in ``umrlab``, and every method, property and field
of its classes, has a reader inside ``umrlab``; every module-level import
is read where it is made; and every cross-reference role in a docstring
names something that exists."""

import ast
import importlib
import re
from pathlib import Path

import umrlab

SRC = Path(umrlab.__file__).parent

# names that nothing in umrlab reads, each with its reason
ALLOWED = {
    ("__init__", "__all__"): "the package's public names, read by star imports",
    ("__init__", "__version__"): "the package version, read by its users",
    ("encoder", "forward_raw"): "an alias of forward that umrbench's tracer wraps by attribute name",
    ("trainer", "all_reduce_grads"): "bound to None, since no step reduces shard gradients, but umrbench's tracer getattrs and wraps it by attribute name",
}

# module-level imports that their module never reads, each with its reason
UNREAD_IMPORTS = {
    ("trainer", "embed"): "embed_raw under another name, which umrbench's tracer wraps by attribute name",
}

# a Sphinx cross-reference role in a docstring, and the name it points at
ROLE = re.compile(r":(?:func|class|meth|mod|data):`~?([\w.]+)`")


def module_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def defined_names(tree: ast.Module) -> list[str]:
    """The functions, classes and assigned names at a module's top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def member_names(tree: ast.Module) -> list[str]:
    """The methods, properties and fields (class-level assignments and
    ``__slots__`` entries) of a module's classes, as ``Class.name``, dunders
    left out: Python itself calls those."""
    names = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        members = []
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.append(node.name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                members.append(node.target.id)
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                if targets == ["__slots__"]:
                    members += [e.value for e in node.value.elts]
                else:
                    members += targets
        names += [f"{cls.name}.{m}" for m in members if not (m.startswith("__") and m.endswith("__"))]
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name a module loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_every_top_level_name_is_read():
    trees = module_trees()
    assert "tensor" in trees and "encoder" in trees
    read = set().union(*(read_names(tree) for tree in trees.values()))
    dead = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in defined_names(tree)
        if name not in read and (module, name) not in ALLOWED
    ]
    assert dead == []


def test_every_allowed_name_exists():
    # an allowance for a name that is gone is itself dead
    for module, name in ALLOWED:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert name in defined_names(tree), f"{module}.{name}"


def test_every_class_member_is_read():
    trees = module_trees()
    read = set().union(*(read_names(tree) for tree in trees.values()))
    members = [f"{module}.{name}" for module, tree in trees.items() for name in member_names(tree)]
    assert "tensor.Tensor.item" in members and "trainer.TrainConfig.stage" in members
    assert [m for m in members if m.rsplit(".", 1)[1] not in read] == []


def imported_names(tree: ast.Module) -> list[str]:
    """The names that a module's top-level imports bind, ``__future__`` left out."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The strings of a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts}
    return set()


def test_every_module_level_import_is_read_where_it_is_made():
    unread = []
    for module, tree in module_trees().items():
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        loaded |= exported_names(tree)
        unread += [(module, name) for name in imported_names(tree) if name not in loaded]
    assert ("trainer", "embed") in unread
    assert [key for key in unread if key not in UNREAD_IMPORTS] == []
    # an allowance for an import that is read, or gone, is itself dead
    assert sorted(UNREAD_IMPORTS) == sorted(key for key in unread if key in UNREAD_IMPORTS)


def docstring_roles(tree: ast.Module) -> list[str]:
    """The targets of the cross-reference roles in a module's docstrings."""
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            targets += ROLE.findall(ast.get_docstring(node, clean=False) or "")
    return targets


def has_path(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def resolves(module, target: str) -> bool:
    """Whether ``target`` names something: a dotted ``umrlab`` path through
    its longest importable module, or a name of ``module`` or of one of the
    classes it defines."""
    if target.split(".")[0] == "umrlab":
        parts = target.split(".")
        for i in range(len(parts), 0, -1):
            try:
                found = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                continue
            return i == len(parts) or has_path(found, ".".join(parts[i:]))
        return False
    classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
    return any(has_path(scope, target) for scope in (module, *classes))


def test_every_docstring_role_names_something_that_exists():
    broken, seen = [], 0
    for stem, tree in module_trees().items():
        targets = docstring_roles(tree)
        if not targets:
            continue
        module = importlib.import_module("umrlab" if stem == "__init__" else f"umrlab.{stem}")
        seen += len(targets)
        broken += [f"{stem}: {t}" for t in targets if not resolves(module, t)]
    assert seen > 40
    assert broken == []
