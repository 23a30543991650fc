"""The package's modules import each other at module level only, without a cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aoisched"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _imports(module: str) -> tuple[set[str], list[str]]:
    """Package modules ``module`` imports, and the functions holding an import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    targets: set[str] = set()
    nested: list[str] = []

    def visit(node, function):
        if isinstance(node, FUNCTIONS):
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found = _package_targets(node)
            targets.update(found)
            if function is not None:
                nested.append(f"{module}.{function} imports {sorted(found) or 'a module'}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return targets, nested


def _package_targets(node) -> set[str]:
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
        return {n.split(".")[1] for n in names if n.startswith("aoisched.")} | (
            {"__init__"} if "aoisched" in names else set())
    if node.level == 0:
        if node.module == "aoisched":
            return {a.name if a.name in MODULES else "__init__" for a in node.names}
        if node.module and node.module.startswith("aoisched."):
            return {node.module.split(".")[1]}
        return set()
    if node.module:  # from .x import y
        return {node.module.split(".")[0]}
    return {a.name if a.name in MODULES else "__init__" for a in node.names}


GRAPH = {m: _imports(m) for m in MODULES}


def test_modules_found():
    assert {"model", "solver", "policies", "sim", "metrics", "cli"} <= set(MODULES)


def test_no_import_inside_a_function():
    nested = [line for _, lines in GRAPH.values() for line in lines]
    assert nested == []


def test_import_graph_has_no_cycle():
    done: set[str] = set()

    def walk(module, path):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        for target in sorted(GRAPH[module][0]):
            walk(target, path + [module])
        done.add(module)

    for module in MODULES:
        walk(module, [])


def test_metrics_imports_only_the_model():
    # the statistics never reach packets or kernels: the policies hold the
    # backlog and hand it over, so metrics needs nothing but the model
    assert GRAPH["metrics"][0] == {"model"}


def _numpy_random_references(module: str) -> list[str]:
    """Lines of ``module`` that import ``numpy.random`` or read it as an
    attribute of a name ``numpy`` is bound to."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    numpy_names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names if a.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in numpy_names)
        if hit:
            found.append(f"{module}.py:{node.lineno}")
    return found


def test_no_module_references_numpy_random():
    # the kernel seeds and draws every stream (see rng), so no run loads
    # numpy.random
    assert [line for m in MODULES for line in _numpy_random_references(m)] == []
