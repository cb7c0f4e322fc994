"""Module layout: every import of the package runs at module level, the
modules import each other without a cycle, the package root exports the
names README lists, and README's modelling choices cite names that exist."""

import ast
import importlib
import re
from pathlib import Path

import nspmr

MODULES = sorted(Path(nspmr.__file__).parent.glob("*.py"))
README = Path(__file__).parents[1] / "README.md"


def _relative_imports(tree: ast.Module) -> set[str]:
    """Names of the package modules a module imports at its top level."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else (a.name for a in node.names))
    return out


def test_no_function_imports_and_no_module_cycle():
    graph = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [n for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not nested, f"{path.name}:{nested[0].lineno} imports inside {fn.name}()"
        graph[path.stem] = _relative_imports(tree)
    assert set().union(*graph.values()) <= set(graph)
    # depth-first search: a module met again while still on the stack closes a cycle
    done, stack = set(), []

    def visit(mod):
        assert mod not in stack, "import cycle: " + " -> ".join(stack[stack.index(mod):] + [mod])
        if mod in done:
            return
        stack.append(mod)
        for dep in sorted(graph[mod]):
            visit(dep)
        stack.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)


def _readme_api() -> list[str]:
    """The backticked names of README's list of the package root's exports: the bullets after its lead-in line."""
    lines = README.read_text().splitlines()
    start = lines.index("The package root exports exactly these names, its `__all__`:") + 2
    bullets = []
    for line in lines[start:]:
        if not line.startswith("- "):
            break
        bullets.append(line)
    return re.findall(r"`([A-Za-z_]\w*)`", "\n".join(bullets))


def test_readme_api_list_is_all():
    listed = _readme_api()
    assert len(listed) == len(set(listed))
    assert set(listed) == set(nspmr.__all__)
    assert len(nspmr.__all__) == len(set(nspmr.__all__))
    for name in nspmr.__all__:
        assert hasattr(nspmr, name), name


def test_readme_modelling_choices_cite_code_that_exists():
    # every dotted name the section cites resolves, so a rename cannot leave it pointing at nothing
    section = README.read_text().split("\n## Modelling choices\n", 1)[1].split("\n## ", 1)[0]
    cited = re.findall(r"`(nspmr(?:\.\w+)+)`", section)
    assert len(cited) == 7
    for name in cited:
        module, _, attr = name.rpartition(".")
        assert hasattr(importlib.import_module(module), attr), name
