"""Source-level guards on the package layout."""

import ast
import io
import re
import tokenize
from collections import defaultdict
from pathlib import Path

import wberg

PACKAGE = Path(wberg.__file__).resolve().parent


def _module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def test_each_tolerance_is_assigned_in_one_module():
    # a tolerance has one definition; other modules import it by name
    owners = defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _module_level_names(tree):
            if name.endswith("_TOL"):
                owners[name].append(path.stem)
    assert owners["LIMIT_TOL"] == ["hyper"]
    duplicated = {name: mods for name, mods in owners.items() if len(mods) > 1}
    assert not duplicated, f"tolerances assigned in more than one module: {duplicated}"


def _module_assignment_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def test_tolerance_literals_live_in_module_level_names():
    # every 1e-N bound is a named module constant that says what it bounds;
    # function bodies and defaults use the name (docstrings are strings and
    # never reach the NUMBER tokens read here)
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        allowed = _module_assignment_lines(ast.parse(text, filename=str(path)))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if (tok.type == tokenize.NUMBER and re.fullmatch(r"[\d.]+[eE]-\d+", tok.string)
                    and tok.start[0] not in allowed):
                stray.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not stray, f"tolerance literals outside module-level assignments: {stray}"


def _module_imports(tree: ast.Module):
    """``(bound name, line)`` of every module-level import but ``__future__``."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def test_module_imports_are_used():
    # an import no expression reads (and __all__ does not re-export) is
    # left over from code that moved; the package __init__ only re-exports
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported_names(tree)
        unused += [f"{path.name}:{line}: {name}" for name, line in _module_imports(tree)
                   if name not in used]
    assert not unused, f"module-level imports never used: {unused}"


def _referenced_names(tree: ast.Module):
    """``(name, line)`` of every name, attribute and imported name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_powers_and_nilpotency_orders_are_formed_only_in_hyper():
    # an OperatorTuple owns T^k, T*^k and the nilpotency orders of its
    # entries; every other module reads them from a tuple
    owned = {"_power_stack", "_nilpotency_order", "matrix_power"}
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "hyper.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}:{line}: {name}" for name, line in _referenced_names(tree)
                  if name in owned]
    assert not stray, f"powers or nilpotency orders formed outside hyper.py: {stray}"
