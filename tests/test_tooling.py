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


def test_every_module_constant_is_read():
    # a module-level UPPER_CASE constant that no expression of the package
    # reads has outlived the code it configured
    assigned, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _module_level_names(tree):
            if re.fullmatch(r"[A-Z][A-Z0-9_]*", name):
                assigned[name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = sorted(f"{module}.{name}" for name, module in assigned.items() if name not in read)
    assert not unread, f"module constants that nothing reads: {unread}"


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
    # an OperatorTuple owns T^k, T*^k, the nilpotency orders and the tails
    # of its entries, and multiplies a weighted-shift entry through its
    # index map; every other module reads them from a tuple and multiplies
    # no entry by a gather of its own.  A power norm reads the power stack,
    # so no module forms a power by repeated squaring
    owned = {"_power_stack", "_nilpotency_order", "_weighted_shift", "_moved",
             "conjugation_limit"}
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}:{line}: {name}" for name, line in _referenced_names(tree)
                  if name == "matrix_power" or (name in owned and path.name != "hyper.py")]
    assert not stray, f"powers, orders or tails formed outside hyper.py: {stray}"


def test_the_fact_store_is_read_and_written_only_in_hyper():
    # a tuple family's classification facts have one holder, keyed by the
    # root indices of its entries; another module that read or filled the
    # store would hold a second copy of a fact or miss the key's rules
    owned = {"_facts", "_index", "_held"}
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "hyper.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}:{line}: {name}" for name, line in _referenced_names(tree)
                  if name in owned]
    assert not stray, f"classification facts read or written outside hyper.py: {stray}"


def test_only_the_linalg_helper_calls_eigvalsh():
    # Hermitian eigenvalues have one route, which reads a diagonal matrix
    # off its diagonal before any eigensolve; a direct call would skip it
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, caller in _nodes_with_callers(tree):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or (node.name if isinstance(node, ast.alias) else None))
            if name == "eigvalsh":
                users.append(f"{path.stem}.{caller.name if caller else '<module>'}")
    assert users == ["linalg._eigvalsh"]


# Defaulted parameters that no call inside the package sets, each with the
# reason it stays a parameter.
UNSET_PARAMETERS_ALLOWED = {
    "linalg.Operator.__array__(dtype)": "numpy's array protocol passes it",
    "linalg.Operator.__array__(copy)": "numpy's array protocol passes it",
    "cli.main(argv)": "the console script calls main() and tests pass an argv",
    "bergman.TruncatedSpace.slot(p)": "tests address coefficient slots past the first",
}


def _functions(tree: ast.Module, module: str):
    """``(qualified name, def node, implicit leading arguments)`` of every
    module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield f"{module}.{node.name}.{item.name}", item, 0 if static else 1


def _defaulted(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """``(position, name)`` of each defaulted parameter; keyword-only ones have no position."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
    out += [(None, arg.arg) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None]
    return out


def _nodes_with_callers(tree: ast.Module):
    """``(node, enclosing function or None)`` for every node in a module."""
    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            yield child, enclosing
            yield from visit(child, child if isinstance(child, ast.FunctionDef) else enclosing)
    yield from visit(tree, None)


def _calls_with_callers(tree: ast.Module):
    """``(call, enclosing function or None)`` for every call in a module."""
    return ((node, caller) for node, caller in _nodes_with_callers(tree)
            if isinstance(node, ast.Call))


def _unset_parameters() -> list[str]:
    """Defaulted parameters of package functions that no call in the package sets.

    Calls are matched to functions by name.  A call sets a parameter when it
    passes it by keyword or position, or through ``*args`` or ``**kwargs``;
    passing on a parameter of the calling function counts only once that
    one is set itself, so a chain of unset defaults is unset all along.
    """
    params, calls = {}, defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qual, fn, skip in _functions(tree, path.stem):
            for index, name in _defaulted(fn):
                params[f"{qual}({name})"] = (fn, skip, index, name)
        for call, caller in _calls_with_callers(tree):
            target = call.func
            name = getattr(target, "id", None) or getattr(target, "attr", None)
            calls[name].append((call, caller))
    by_def = defaultdict(dict)
    for key, (fn, _, _, name) in params.items():
        by_def[fn][name] = key

    def passed(call, skip, index, name):
        values = [k.value for k in call.keywords if k.arg in (None, name)]
        if index is not None:
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                values.append(None)
            elif len(call.args) > index - skip:
                values.append(call.args[index - skip])
        return values

    set_keys: set[str] = set()
    changed = True
    while changed:
        changed = False
        for key, (fn, skip, index, name) in params.items():
            if key in set_keys:
                continue
            for call, caller in calls[fn.name]:
                for value in passed(call, skip, index, name):
                    forwarded = (isinstance(value, ast.Name) and caller is not None
                                 and by_def[caller].get(value.id))
                    if not forwarded or forwarded in set_keys:
                        set_keys.add(key)
                        changed = True
                        break
                if key in set_keys:
                    break
    return sorted(set(params) - set_keys)


def test_every_defaulted_parameter_is_set_by_some_caller():
    # a settable value that no call in the package sets is a constant; it
    # belongs in a module-level name, not in every signature it passes
    unset = _unset_parameters()
    stale = sorted(set(UNSET_PARAMETERS_ALLOWED) - set(unset))
    offenders = [key for key in unset if key not in UNSET_PARAMETERS_ALLOWED]
    assert not offenders, f"defaulted parameters that no call sets: {offenders}"
    assert not stale, f"allowed unset parameters that some call now sets: {stale}"


def test_only_uniqueness_unitary_forms_the_transition():
    # the e-square transition Y1* Y2 belongs to triple uniqueness alone; the
    # coincidence check certifies its transport through d-sized factors, so
    # no pipeline path may form it again
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for call, caller in _calls_with_callers(tree):
            target = call.func
            if (getattr(target, "id", None) or getattr(target, "attr", None)) == "_transition":
                callers.append(f"{path.stem}.{caller.name if caller else '<module>'}")
    assert callers == ["charfn.uniqueness_unitary"]


def test_no_complete_qr_in_the_package():
    # a completion is held as its Householder factors; the complete QR would
    # form the (d + e)-square factor that the factors stand for
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg == "mode":
                value = node.value
                if isinstance(value, ast.Constant) and value.value == "complete":
                    found.append(f"{path.stem}:{node.value.lineno}")
    assert found == []


def test_only_colift_raises_the_lift_condition():
    # the lift condition V Delta* Delta V* = Delta* Delta and its tolerance
    # have one owner, shared by the general model and the co-isometry lift
    raisers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for call, caller in _calls_with_callers(tree):
            target = call.func
            if (getattr(target, "id", None) or getattr(target, "attr", None)) == "LiftConditionFailed":
                raisers.append(f"{path.stem}.{caller.name if caller else '<module>'}")
    assert raisers == ["dilation._colift"]


def test_only_general_model_fills_map_rows():
    # every dilation map, the pure one included, is the general model's: its
    # rows are filled in one place, from the stage cascade of each block
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for call, caller in _calls_with_callers(tree):
            target = call.func
            if (getattr(target, "id", None) or getattr(target, "attr", None)) == "_fill_map_rows":
                callers.append(f"{path.stem}.{caller.name if caller else '<module>'}")
    assert callers == ["dilation.general_model"]


def test_every_budget_names_a_reported_residual():
    # a budget left behind for a residual no pipeline reports any more is a
    # setting nothing reads: each residual family PURE_DILATION_BUDGETS keys,
    # and each key of CHARFN_BUDGETS, appears in a small run's report
    from wberg.config import parse_case
    from wberg.pipelines import CHARFN_BUDGETS, PURE_DILATION_BUDGETS, run_charfn, run_dilate_pure

    def run(pipeline, weights, spec):
        case = parse_case({"weights": weights, "tuple": spec})
        return pipeline(case, case.build_tuple(None))[1]

    pure = run(run_dilate_pure, "hardy,hardy", "scalars:[0.5,0.4]")["residuals"]
    families = {key.split("_")[0] for key in pure}
    assert set(PURE_DILATION_BUDGETS) <= families, set(PURE_DILATION_BUDGETS) - families
    charfn = run(run_charfn, "hardy", "nilpotent:1:4:1:0.5")
    assert set(CHARFN_BUDGETS) <= set(charfn), set(CHARFN_BUDGETS) - set(charfn)


def test_the_general_model_holds_and_reports_only_nonzero_blocks():
    # a summand with a zero coefficient space is neither built nor reported:
    # over the corpus dilation tuples and a pure three-variable multishift,
    # every block has e_dim >= 1; the delta_formula_* keys are the 2^n
    # subsets (a subset without a block against the zero matrix); every
    # v_coisometry_<block> and lift_condition_<block>_at_<i> names a block of
    # the layout; and the implied delta_intertwine_* is not emitted
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases
    from wberg.dilation import general_model

    cases = [c for c in corpus_cases() if {"dilate-pure", "dilate-general"} & set(c["run"])]
    cases.append({"name": "multishift-3d", "weights": "bergman:2,bergman:2,bergman:2",
                  "tuple": "multishift:3x3x3", "degrees": [3, 3, 3]})
    assert len(cases) == 8
    for data in cases:
        case = parse_case(dict(data), name=data["name"])
        t = case.build_tuple(None)
        res = general_model(t, case.weights)
        assert all(b.e_dim >= 1 for b in res.block_layout), data["name"]
        blocks = {b.tag for b in res.block_layout}
        subsets = {"_".join(str(i) for i in range(t.n) if mask >> i & 1) or "empty"
                   for mask in range(1 << t.n)}
        keys = list(res.residuals)
        assert {k[len("delta_formula_"):] for k in keys
                if k.startswith("delta_formula_")} == subsets, data["name"]
        named = [re.fullmatch(r"v_coisometry_(.+)|lift_condition_(.+)_at_\d+", k) for k in keys]
        assert {m.group(1) or m.group(2) for m in named if m} <= blocks, data["name"]
        assert not any(k.startswith("delta_intertwine") for k in keys), data["name"]


# Public functions, classes and methods that nothing in the package refers
# to, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    "hyper.hereditary_apply": "the reference of the hereditary sums in tests; "
                              "perfbench/tracer.py counts its calls",
    "linalg.Operator.is_hermitian": "perfbench/tracer.py wraps it through Operator.__dict__",
    "hyper.OperatorTuple.gram_stack": "tests read the held Gram stack through it",
    "bergman.TruncatedSpace.weight_vector": "tests read the held basis weights through it",
    "bergman.TruncatedSpace.slot": "tests address basis positions through it",
    "generators.commuting_unitaries": "a test generator of unitary and mixed tuples",
    "charfn.uniqueness_unitary": "the uniqueness of the characteristic triple up to a "
                                 "unitary, which acceptance criterion 8 checks",
}


def _public_definitions(tree: ast.Module, module: str):
    """``(qualified name, def node)`` of every public module-level function and
    class and every public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def _references_outside(tree: ast.Module, skip: ast.AST, name: str) -> bool:
    """Whether a name or attribute ``name`` occurs in ``tree`` outside ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if (isinstance(node, ast.Name) and node.id == name) or (
                isinstance(node, ast.Attribute) and node.attr == name):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_public_name_is_referenced_in_the_package():
    # a public function, class or method that no code of the package refers
    # to (its own body, __all__ and the package __init__ do not count) is a
    # second route or a leftover; it goes, or the allow-list says why not.
    # The match is by bare name, so it cannot see a method whose name another
    # referenced definition shares (an unused ``to_dict`` passes while some
    # other class's ``to_dict`` is called), nor any dunder method, which
    # counts as private; those are left to review
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    unreferenced = sorted(
        qual for module, tree in trees.items() for qual, node in _public_definitions(tree, module)
        if not any(_references_outside(other, node, qual.rsplit(".", 1)[1])
                   for other in trees.values()))
    offenders = [qual for qual in unreferenced if qual not in UNREFERENCED_ALLOWED]
    stale = sorted(set(UNREFERENCED_ALLOWED) - set(unreferenced))
    assert not offenders, f"public names that nothing in the package refers to: {offenders}"
    assert not stale, f"allowed unreferenced names that the package now refers to: {stale}"
