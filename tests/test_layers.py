"""Module layering: a private name of the package is imported only from
jlogic.syntax, whose file front end and parse tables the readers share.
And the inventory of the package's functions that call themselves, each
with what bounds its depth."""

import ast
from pathlib import Path

import jlogic

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


# Every function of the package that calls itself by name (a method
# through self), and what bounds the depth of its recursion.
RECURSIVE = {
    "generators.random_term",  # its depth argument
    "generators.random_formula",  # its depth argument
    "generators.random_formula_over.go",  # the depth argument
    "proof_system._compile",  # the size of an axiom schema
    "proof_system._substitute",  # the size of an axiom schema
    "semantics._seed_assignments",  # the length of the seed pool
    "syntax._show",  # the printed tree; RecursionError near the limit
    "syntax._Parser.binary",  # room and RecursionError, in _parse
    "syntax._Parser.unary",  # room and RecursionError, in _parse
    "syntax._Parser.just",  # room and RecursionError, in _parse
}


def self_calls(node, prefix):
    """The qualified name of each function under node whose body calls
    it: by its name, or as self.name in a method."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from self_calls(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.FunctionDef):
            name = child.name
            for call in ast.walk(child):
                if isinstance(call, ast.Call):
                    f = call.func
                    if isinstance(f, ast.Name) and f.id == name \
                            or isinstance(f, ast.Attribute) and f.attr == name \
                            and isinstance(f.value, ast.Name) and f.value.id == "self":
                        yield prefix + name
                        break
            yield from self_calls(child, f"{prefix}{name}.")


def test_recursive_functions_are_the_known_ones():
    found = {name for path in SOURCES
             for name in self_calls(ast.parse(path.read_text(encoding="utf-8")),
                                    f"{path.stem}.")}
    assert found == RECURSIVE
