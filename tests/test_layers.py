"""Module layering: a private name of the package is imported only from
jlogic.syntax, whose file front end and parse tables the readers share."""

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
