"""The package's imports of its own modules: at module level, and acyclic.

An import inside a function body can hide a cycle instead of removing it.
With every intra-package import at module level and no cycle among them,
each module is read, and imported, after the modules it names.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aihs"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _imports(node, in_function=False):
    """Every import statement under ``node``, and whether a function body holds it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, in_function
        yield from _imports(child, in_function or isinstance(child, _FUNCTIONS))


def _named_modules(node) -> set:
    """The package modules an import statement names; ``__init__`` for the package itself."""
    if isinstance(node, ast.Import):
        parts = [alias.name.split(".") for alias in node.names]
        return {p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "aihs"}
    parts = (node.module or "").split(".")
    if node.level == 0:  # "aihs.x" names x, and "aihs" the package
        if parts[0] != "aihs":
            return set()
        parts = parts[1:]
    if parts and parts[0]:
        return {parts[0]}
    return {alias.name if alias.name in MODULES else "__init__" for alias in node.names}


def _graph() -> dict:
    return {name: set().union(*(_named_modules(node) for node, in_function in _imports(tree)
                                if not in_function))
            for name, tree in MODULES.items()}


def _cycle(graph: dict) -> list | None:
    """One cycle of ``graph`` as the list of modules along it, or None."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for target in sorted(graph.get(name, ())):
            found = visit(target)
            if found:
                return found
        path.pop()
        done.add(name)
        return None

    return next(filter(None, map(visit, sorted(graph))), None)


def test_the_package_modules_are_found():
    assert {"config", "operators", "_linalg", "cli"} <= set(MODULES)


def test_no_function_imports_a_package_module():
    found = [f"{name}.py:{node.lineno}" for name, tree in sorted(MODULES.items())
             for node, in_function in _imports(tree) if in_function and _named_modules(node)]
    assert found == []


def test_module_level_imports_form_no_cycle():
    graph = _graph()
    assert "operators" not in graph["config"]  # config owns the number syntax
    assert _cycle(graph) is None


def test_linalg_is_a_bottom_module():
    # the shared basis and rank helpers: every numeric module may import them
    graph = _graph()
    assert graph["_linalg"] <= {"config"}  # its default rank tolerance
    assert {"chains", "halfspace", "operators"} <= {name for name, named in graph.items()
                                                    if "_linalg" in named}


def test_the_gram_schmidt_step_has_one_home():
    # chain levels, codim_n_subspace and compute_metrics grow a basis by the same code
    names = ("project_off", "extend_basis")
    defined = {(module, node.name) for module, tree in MODULES.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") in names}
    assert defined == {("_linalg", name) for name in names}
    importers = {module for module, tree in MODULES.items() for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "_linalg"
                 and "extend_basis" in {alias.name for alias in node.names}}
    assert importers == {"chains", "halfspace"}


def test_chains_can_import_the_audit_rule():
    # a chain transcript audit is to compare stored with derived values by
    # halfspace._agrees, so chains must be able to import halfspace
    graph = _graph()
    assert _cycle({**graph, "chains": graph["chains"] | {"halfspace"}}) is None


def test_a_cycle_is_found():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
