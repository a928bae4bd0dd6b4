"""Module layering: a private name of the package is imported only from
jlogic.syntax, whose file front end and parse tables the readers share.
And the inventory of the recursion in the package: the cycles of each
module's call graph, each with what bounds its depth; no module reads or
moves the recursion limit, or walks its own stack.  And one frame
builder: only BasicEvaluation's constructor builds the order table of a
world frame."""

import ast
import sys
from collections import Counter
from pathlib import Path

import jlogic
from jlogic.proof_system import MAX_DEPTH

SOURCES = sorted(Path(jlogic.__file__).parent.glob("*.py"))


def private_imports(path):
    """(line, module, name) for each underscore name that path imports from
    a jlogic module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "jlogic":
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, node.module, alias.name


def test_private_names_come_from_syntax_only():
    assert len(SOURCES) >= 7
    crossings = [f"{path.name}:{line}: {name} from {module}"
                 for path in SOURCES
                 for line, module, name in private_imports(path)
                 if module != "jlogic.syntax"]
    assert crossings == []


def test_readers_raise_one_error_class():
    from jlogic import proof_system, saturation, semantics, syntax
    assert jlogic.FileFormatError is syntax.FileFormatError
    assert proof_system.FileFormatError is semantics.FileFormatError \
        is saturation.FileFormatError is syntax.FileFormatError


# The cycles of each module's call graph (see call_graph), each as the
# sorted names of its functions, and what bounds the depth of its
# recursion.
RECURSIVE = {
    ("generators.random_term",): "its depth argument",
    ("generators.random_formula",): "its depth argument",
    ("generators.random_formula_over.go",): "the depth argument",
    ("proof_system._compile",): "the size of an axiom schema",
    ("proof_system._substitute",): "the size of an axiom schema",
    ("proof_system._search.derive",):
        "the depth bound k, at most MAX_DEPTH, one frame a unit",
}

# What a module would call to measure or move the recursion limit.
STACK_PROBES = {"getrecursionlimit", "setrecursionlimit", "_getframe"}


def test_no_module_probes_the_stack():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in STACK_PROBES \
                    and isinstance(node.value, ast.Name) and node.value.id == "sys":
                found.append(f"{path.name}:{node.lineno}: sys.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "sys":
                found += [f"{path.name}:{node.lineno}: {alias.name} from sys"
                          for alias in node.names if alias.name in STACK_PROBES]
    assert found == []


def test_depth_bound_fits_the_recursion_limit():
    # one frame per unit of depth, and room for the callers' frames; twice
    # the bound is more room than the search needs
    assert 2 * MAX_DEPTH + 300 < sys.getrecursionlimit()


def functions(node, prefix, scope, cls):
    """(qualified name, def, names in scope, enclosing class) for each
    function under node.  scope maps the bare names a body can call to
    qualified names: the module's functions and those of the enclosing
    function bodies; cls is the qualified name of the class whose body
    holds the def, for self.name and cls.name."""
    defs = [child for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))]
    if not isinstance(node, ast.ClassDef):
        scope = {**scope, **{d.name: prefix + d.name for d in defs}}
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from functions(child, f"{prefix}{child.name}.", scope,
                                 f"{prefix}{child.name}.")
        elif child in defs:
            name = prefix + child.name
            yield name, child, scope, cls
            yield from functions(child, name + ".", scope, None)


def own_nodes(fn):
    """The nodes of a function's body, without those of the functions and
    classes defined in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def call_graph(tree, module):
    """For each function of a module, the functions of the module that its
    body names (a function in scope by name, a method of its class as
    self.name or cls.name) whether it calls them or passes them on, and
    those that its callers pass it for a parameter that it calls."""
    found = list(functions(tree, f"{module}.", {}, None))
    defs = {name: fn for name, fn, _, _ in found}

    def resolve(node, scope, cls):
        if isinstance(node, ast.Name) and node.id in scope:
            return scope[node.id]
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in ("self", "cls") and cls is not None \
                and cls + node.attr in defs:
            return cls + node.attr
        return None

    edges = {name: set() for name in defs}
    passed = {name: {} for name in defs}  # callee -> parameter -> functions
    for name, fn, scope, cls in found:
        for node in own_nodes(fn):
            target = resolve(node, scope, cls)
            if target is not None:
                edges[name].add(target)
            if isinstance(node, ast.Call):
                callee = resolve(node.func, scope, cls)
                if callee is None:
                    continue
                params = [a.arg for a in defs[callee].args.args]
                if params[:1] in (["self"], ["cls"]):
                    params = params[1:]
                pairs = list(zip(params, node.args))
                pairs += [(k.arg, k.value) for k in node.keywords]
                for param, arg in pairs:
                    given = resolve(arg, scope, cls)
                    if given is not None:
                        passed[callee].setdefault(param, set()).add(given)
    for name, fn in defs.items():
        params = {a.arg for a in fn.args.args}
        for node in own_nodes(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in params:
                edges[name] |= passed[name].get(node.func.id, set())
    return edges


def cycles(edges):
    """The strongly connected components of a graph that hold a cycle, each
    as a sorted tuple of names."""
    reach = {}
    for start in edges:
        seen, stack = set(), [start]
        while stack:
            for nxt in edges[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[start] = seen
    return {tuple(sorted(other for other in edges
                         if name in reach[other] and other in reach[name]))
            for name in edges if name in reach[name]}


def test_recursive_functions_are_the_known_ones():
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= cycles(call_graph(tree, path.stem))
    assert found == set(RECURSIVE)


def test_call_graph_finds_mutual_recursion():
    tree = ast.parse(
        "def even(n):\n    return n == 0 or odd(n - 1)\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n"
        "def twice(f, n):\n    return f(f(n))\n"
        "def walk(n):\n    return twice(step, n)\n"
        "def step(n):\n    return walk(n - 1) if n else 0\n"
        "def alone(n):\n    return n\n"
        "class Tree:\n"
        "    def up(self):\n        return self.down()\n"
        "    def down(self):\n        return self.up()\n")
    assert cycles(call_graph(tree, "m")) == {
        ("m.even", "m.odd"), ("m.step", "m.twice", "m.walk"),
        ("m.Tree.down", "m.Tree.up")}


# The functions that may build an order table: the model constructor the
# unpacked one, for every frame in the package, and _lanes the packed ones.
FRAME_BUILDERS = {
    "_Below": "semantics.BasicEvaluation.__init__",
    "_LaneBelow": "semantics._lanes",
}


def callers(tree, module, names):
    """(name, caller) for each call of one of names in a module: the
    qualified name of the function whose body holds the call, or the
    module's own name for a call outside every function."""
    owner = {}
    for name, fn, _, _ in functions(tree, f"{module}.", {}, None):
        for node in own_nodes(fn):
            owner[node] = name
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if called in names:
                yield called, owner.get(node, module)


def test_only_the_model_constructor_builds_a_frame():
    # one call of each table in its builder: a second order table, in
    # the builder or elsewhere, shows as a second call
    found = Counter()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update(callers(tree, path.stem, FRAME_BUILDERS))
    assert found == Counter(FRAME_BUILDERS.items())


def test_callers_name_the_enclosing_function():
    tree = ast.parse(
        "class M:\n    def __init__(self):\n        self.t = T(1)\n"
        "def f():\n    def g():\n        return m.T(2)\n    return g\n"
        "TABLE = T(3)\n")
    assert sorted(callers(tree, "m", {"T"})) == [
        ("T", "m"), ("T", "m.M.__init__"), ("T", "m.f.g")]
