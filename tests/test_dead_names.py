"""Every top-level name in ``umrlab`` has a reader inside ``umrlab``."""

import ast
from pathlib import Path

import umrlab

SRC = Path(umrlab.__file__).parent

# names that nothing in umrlab reads, each with its reason
ALLOWED = {
    ("__init__", "__all__"): "the package's public names, read by star imports",
    ("__init__", "__version__"): "the package version, read by its users",
    ("encoder", "forward_raw"): "an alias of forward that umrbench's tracer wraps by attribute name",
    ("trainer", "all_reduce_grads"): "a step no longer reduces shard gradients, but umrbench's tracer wraps it by attribute name",
}


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
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
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
