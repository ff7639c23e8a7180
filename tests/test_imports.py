"""The package's module graph: every import sits at module level, and the
modules' imports of each other form no cycle."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "replab"
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
    # each module of the chain imports the one before it, directly or not
    chain = ["codec", "fields", "games", "records", "search", "forbidden",
             "structures", "cli"]

    def reaches(src: str, dst: str) -> bool:
        seen, frontier = {src}, [src]
        while frontier:
            for dep in GRAPH[frontier.pop()]:
                if dep not in seen:
                    seen.add(dep)
                    frontier.append(dep)
        return dst in seen

    assert all(reaches(later, earlier) for earlier, later in zip(chain, chain[1:]))
