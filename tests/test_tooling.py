"""Source-level guards on the package layout."""

import ast
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
