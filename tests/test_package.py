"""Package shape: the public namespace, the intra-package import graph,
that every top-level definition is reachable from a command, and that
every method is used by the package itself."""

import ast
from pathlib import Path

import maxtsp

PACKAGE_DIR = Path(maxtsp.__file__).resolve().parent

PUBLIC_NAMES = {
    # solver entry points, each returning (Tour, Certificate)
    "algorithm_A",
    "asymptotic",
    "eptas",
    "exact_dp",
    "kostochka_serdyukov_56",
    # the exact DP's tour and the maximum cover alone
    "held_karp_max",
    "max_weight_cycle_cover",
    # instance I/O and diagnostics
    "dump_instance",
    "estimate_doubling",
    "generate",
    "load_instance",
    "validate_metric",
    # data types
    "Certificate",
    "CycleCover",
    "GeneratorSpec",
    "Instance",
    "MetricReport",
    "Tour",
}


def _siblings(node):
    """The package modules an import statement names (none for others)."""
    if isinstance(node, ast.ImportFrom):
        if node.level >= 1:
            return [node.module] if node.module else [a.name for a in node.names]
        names = [node.module or ""]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        return []
    return [n.split(".")[1] for n in names if n.startswith("maxtsp.")]


def _package_imports():
    """module -> set of sibling modules it imports, and the list of
    (module, line) where a sibling import sits inside a function."""
    graph, nested = {}, []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {m for node in ast.walk(tree) for m in _siblings(node)}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    (path.stem, node.lineno)
                    for node in ast.walk(func)
                    if _siblings(node)
                ]
    return graph, nested


def _find_cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(module, stack):
        state[module] = "open"
        stack.append(module)
        for dep in sorted(graph.get(module, ())):
            if state.get(dep) == "open":
                return stack[stack.index(dep):] + [dep]
            if dep not in state:
                found = visit(dep, stack)
                if found:
                    return found
        stack.pop()
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            found = visit(module, [])
            if found:
                return found
    return None


def test_import_graph_is_acyclic():
    graph, _ = _package_imports()
    assert set(graph) >= {"corealgo", "cyclecover", "merge", "exact", "driver", "cli"}
    assert _find_cycle(graph) is None


def test_no_sibling_import_inside_a_function():
    _, nested = _package_imports()
    assert nested == []


def test_cycle_finder_sees_a_cycle():
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_public_namespace_is_pinned():
    assert len(maxtsp.__all__) == len(PUBLIC_NAMES) == 18
    assert set(maxtsp.__all__) == PUBLIC_NAMES
    for name in maxtsp.__all__:
        assert getattr(maxtsp, name) is not None


def _unreached(sources, roots):
    """Sorted (module, name) of every top-level def, class or assignment,
    dunders aside, that no chain of references leads to from the roots.

    sources maps each module to its text; roots are (module, name) pairs.
    A name a module imports relatively stands for the definition it binds.
    """
    defs, imports = {}, {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
            elif isinstance(node, ast.Assign):
                defs.update({(module, t.id): node for t in node.targets if isinstance(t, ast.Name)})
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    imports[module, a.asname or a.name] = (node.module, a.name)

    def resolve(key):
        while key in imports:
            key = imports[key]
        return key

    reached, todo = set(), [resolve(r) for r in roots]
    while todo:
        key = todo.pop()
        if key in reached or key not in defs:
            continue
        reached.add(key)
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                todo.append(resolve((key[0], node.id)))
    return sorted(key for key in defs if key not in reached and not key[1].startswith("__"))


def test_every_definition_is_reached_from_a_command():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE_DIR.glob("*.py")}
    roots = [("__init__", name) for name in maxtsp.__all__] + [("cli", "main")]
    unreached = _unreached(sources, roots)
    assert unreached == [], f"not reached from __all__ or cli.main: {unreached}"


def test_reach_walk_follows_references_and_imports():
    sources = {
        "a": "from .b import g\nX = 1\ndef f():\n    return g()\ndef dead():\n    return X\n",
        "b": "def g():\n    return h()\ndef h():\n    pass\ndef lone():\n    pass\n",
    }
    assert _unreached(sources, [("a", "f")]) == [("a", "X"), ("a", "dead"), ("b", "lone")]


def _unused_methods(sources):
    """Sorted (class, name) of every non-dunder method or property of a
    top-level class that no attribute access in the sources names."""
    trees = [ast.parse(text) for text in sources.values()]
    used = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted(
        (cls.name, fn.name)
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("__")
        and fn.name not in used
    )


def test_every_method_is_used_by_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE_DIR.glob("*.py")}
    unused = _unused_methods(sources)
    assert unused == [], f"methods no package code calls: {unused}"


def test_unused_method_walk_sees_attribute_names_only():
    sources = {
        "a": "class A:\n    def f(self):\n        return self.g()\n    def g(self):\n        pass\n"
             "    @property\n    def p(self):\n        return f\n    def __len__(self):\n        return 0\n",
    }
    assert _unused_methods(sources) == [("A", "f"), ("A", "p")]
