"""The package's module graph: every import sits at module level, no module
imports another's private name, the modules' imports of each other form no
cycle, and every name the package exports or defines as a function or
method has a caller outside the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "replab"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function_or_class(path):
    nested = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nested += [f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                       if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert nested == []


def _local_imports(path: Path) -> set[str]:
    """The package modules that path imports at module level, by relative
    import: `from .x import ..` gives x, `from . import x, y` gives x and y."""
    names = set()
    for node in _tree(path).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {a.name for a in node.names}
    return names


GRAPH = {p.stem: _local_imports(p) for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    # a name a module keeps private is not another module's interface
    private = [f"{path.name}:{node.lineno} {alias.name}" for node in ast.walk(_tree(path))
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_module_graph_is_acyclic():
    assert all(dep in GRAPH for deps in GRAPH.values() for dep in deps)
    # depth-first search, colouring each module while its imports are open
    state: dict[str, str] = {}

    def visit(module: str, path: list[str]) -> None:
        state[module] = "open"
        for dep in sorted(GRAPH[module]):
            if state.get(dep) == "open":
                pytest.fail("import cycle: " + " -> ".join(path + [dep]))
            if dep not in state:
                visit(dep, path + [dep])
        state[module] = "done"

    for module in sorted(GRAPH):
        if module not in state:
            visit(module, [module])


def test_the_layers_read_codec_to_cli():
    # each module of the chain imports the one before it, directly or not;
    # forbidden and structures each build on search, side by side, since
    # the equivalences between them are checked in cli
    chain = ["codec", "fields", "games", "records", "search"]

    def reaches(src: str, dst: str) -> bool:
        seen, frontier = {src}, [src]
        while frontier:
            for dep in GRAPH[frontier.pop()]:
                if dep not in seen:
                    seen.add(dep)
                    frontier.append(dep)
        return dst in seen

    assert all(reaches(later, earlier) for earlier, later in zip(chain, chain[1:]))
    assert all(reaches(side, "search") and reaches("cli", side)
               for side in ("forbidden", "structures"))
    assert not reaches("structures", "forbidden") and not reaches("forbidden", "structures")


# The writer of the game files that `--game` reads, which the README names:
# its callers are the users who write such files.
WRITES_CLI_INPUT = {"game_to_json"}


def _references(path: Path) -> set[str]:
    """The names path refers to: bare names, attributes, and string constants
    such as the attribute names a tracing table patches by setattr.  A
    docstring or other bare string statement does not count, nor does a
    name inside the def or class that defines it."""
    found = set()

    def visit(node: ast.AST, defining: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = node.name
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name != defining:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(_tree(path), None)
    return found


def test_every_export_has_a_caller():
    # the package exports, and every function and method the package
    # defines, nested ones too; a dunder method is called by the language
    init = SRC / "__init__.py"
    exports = {alias.asname or alias.name for node in _tree(init).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined = {node.name for path in MODULES for node in ast.walk(_tree(path))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    callers = [p for p in MODULES if p != init]
    callers += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    referenced = set().union(*map(_references, callers))
    assert sorted((exports | defined) - referenced - WRITES_CLI_INPUT) == []


def _budget_parameters(path: Path) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) of each parameter of a function in
    path that has a default and a name ending in budget.  position is the
    index of the positional argument a call passes it as, not counting a
    method's self or cls, and None for a keyword-only parameter."""
    found = []

    def visit(node: ast.AST, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                if in_class and positional and positional[0].arg in ("self", "cls"):
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(args.defaults):]
                found.extend((child.name, a.arg, positional.index(a)) for a in defaulted
                             if a.arg.endswith("budget"))
                found.extend((child.name, a.arg, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None and a.arg.endswith("budget"))
            visit(child, isinstance(child, ast.ClassDef))

    visit(_tree(path), False)
    return found


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call passes the parameter, by keyword or by position."""
    if any(k.arg == name or k.arg is None for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_budget_parameter_is_set_by_a_caller():
    # a budget with a default that no caller sets is a second meaning of
    # the budget that nothing uses
    callers = MODULES + sorted((ROOT / "perfbench").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py"))
    calls: dict[str, list[ast.Call]] = {}
    for path in callers:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [f"{path.name}:{function}({param})" for path in MODULES
             for function, param, position in _budget_parameters(path)
             if not any(_passes(call, param, position) for call in calls.get(function, []))]
    assert unset == []


BUILD_BUDGETS = {"ENUMERATION_BUDGET", "TUPLE_BUDGET"}


def test_every_build_budget_is_a_module_constant():
    # oversize decides what is built; a caller's solver budget must not
    calls = [(path, node) for path in MODULES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "oversize"]
    budgets = [(f"{path.name}:{node.lineno}", next(
        (k.value for k in node.keywords if k.arg == "budget"),
        node.args[2] if len(node.args) > 2 else None)) for path, node in calls]
    assert calls
    assert [where for where, budget in budgets
            if getattr(budget, "id", None) not in BUILD_BUDGETS] == []
