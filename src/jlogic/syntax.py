"""Abstract syntax, parsing, and printing for justification terms and formulas.

Terms are built from constants and variables with application ``.``,
sum ``+``, and proof verifier ``!``.  Formulas are intuitionistic
propositional formulas extended with evidence assertions ``t:A``.

Surface syntax is ASCII (``->``, ``/\\``, ``\\/``, ``_|_``, ``.``) with the
usual Unicode symbols accepted as aliases.  Lexical namespaces are
disjoint: atoms are ``p``, ``q``, ``r`` or ``pN``; constants are ``cN`` or
names declared by a constant specification; every other lowercase
identifier is a justification variable.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple


# ---------------------------------------------------------------------------
# AST
#
# Every node is a frozen dataclass under ``_Node``, which holds the node
# protocol once: ``==`` is the hash-first, stack-driven ``_equal`` below,
# ``hash`` returns the hash the constructor stored, and ``__reduce__``
# rebuilds a node through its constructor, so an unpickled node hashes
# under the loading process's hash seed.  ``_key`` holds the minimal
# printed form: a leaf's from when it is built, a composite node's from
# when the printer first reaches it (see _show).
#
# A node's hash is computed from its class name and its name or its
# children's stored hashes, so hashing costs O(1) and never recurses.
# Two class decorators each install one straight-line constructor for a
# shape that several classes share, with the hash tag taken from the class
# name when the class is made: ``_leaf`` (one ``name``; ``==`` compares
# names) and ``_binary`` (``left`` and ``right``).  ``Bang``, ``Just`` and
# ``Falsum`` are each the only node of their shape and keep their own.
# Node classes are declared with ``eq=False`` so that ``dataclass`` gives
# them neither a recursive ``__eq__`` nor a recursive field hash.
# ``_parts`` names a node's fields of its own sort, its immediate subterms
# or subformulas, in the order the walks push them (the term of ``t:A`` is
# of the other sort).  ``_Node`` names none, so a node class that states
# no parts fails in the walks.

_node = dataclass(frozen=True, eq=False)


def _equal(a, b) -> bool:
    """Structural equality of two nodes without recursion.  Pairs of
    composite children go on an explicit stack, names and named leaves
    compare at once, and a pair with different stored hashes settles the
    answer without looking further down.  A node's fields are its
    ``__match_args__``."""
    if a is b:
        return True
    if type(b) is not type(a):
        return False if isinstance(b, _Node) else NotImplemented
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x._hash != y._hash:
            return False
        dx, dy = x.__dict__, y.__dict__
        for name in x.__match_args__:
            u, v = dx[name], dy[name]
            if u is v:
                continue
            kind = type(u)
            if kind is not type(v):
                return False
            if kind in _NAMED:
                if u.name != v.name:
                    return False
            elif kind is str:
                if u != v:
                    return False
            else:
                stack.append((u, v))
    return True


def _equal_names(a, b) -> bool:
    """``==`` for leaves: same type, same name."""
    if type(b) is type(a):
        return a.name == b.name
    return False if isinstance(b, _Node) else NotImplemented


class _Node:
    _key = None

    __eq__ = _equal

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple(map(self.__dict__.get, self.__match_args__))


def _leaf(cls):
    """A node class with one field, ``name``, hashed as (class name, name)
    and compared by name."""
    tag = cls.__name__

    def __init__(self, name: str):
        d = self.__dict__
        d["name"] = name
        d["_hash"] = hash((tag, name))
        d["_key"] = name

    cls.__init__ = __init__
    cls.__eq__ = _equal_names
    cls._parts = ()
    return _node(cls)


def _binary(cls):
    """A node class with two children, ``left`` and ``right``, hashed as
    (class name, left hash, right hash)."""
    tag = cls.__name__

    def __init__(self, left, right):
        d = self.__dict__
        d["left"] = left
        d["right"] = right
        d["_hash"] = hash((tag, left._hash, right._hash))

    cls.__init__ = __init__
    cls._parts = ("left", "right")
    return _node(cls)


class Term(_Node):
    def __str__(self) -> str:
        return print_term(self)


@_leaf
class Constant(Term):
    name: str


@_leaf
class Variable(Term):
    name: str


@_binary
class App(Term):
    left: Term
    right: Term


@_binary
class Sum(Term):
    left: Term
    right: Term


@_node
class Bang(Term):
    inner: Term
    _parts = ("inner",)

    def __init__(self, inner: Term):
        d = self.__dict__
        d["inner"] = inner
        d["_hash"] = hash(("Bang", inner._hash))


class Formula(_Node):
    def __str__(self) -> str:
        return print_formula(self)


@_leaf
class Atom(Formula):
    name: str


@_node
class Falsum(Formula):
    _parts = ()

    def __init__(self):
        d = self.__dict__
        d["_hash"] = hash("Falsum")
        d["_key"] = "_|_"


@_binary
class And(Formula):
    left: Formula
    right: Formula


@_binary
class Or(Formula):
    left: Formula
    right: Formula


@_binary
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Just(Formula):
    term: Term
    body: Formula
    _parts = ("body",)

    def __init__(self, term: Term, body: Formula):
        d = self.__dict__
        d["term"] = term
        d["body"] = body
        d["_hash"] = hash(("Just", term._hash, body._hash))


FALSUM = Falsum()
_NAMED = (Atom, Constant, Variable)  # leaves whose names _equal compares

_ATOM_RE = re.compile(r"^(p|q|r|p[0-9]+)$")
_CONSTANT_RE = re.compile(r"^c[0-9]+$")


# ---------------------------------------------------------------------------
# Structural utilities


def _closure(nodes) -> frozenset:
    """Least set containing nodes and closed under their parts.  One
    visited set serves every root, so each distinct node is walked
    once."""
    out = set()
    stack = list(nodes)
    while stack:
        cur = stack.pop()
        if cur in out:
            continue
        out.add(cur)
        d = cur.__dict__
        for name in cur._parts:
            stack.append(d[name])
    return frozenset(out)


def _size(root) -> int:
    """Number of nodes of root as a tree of its parts, counted with an
    explicit stack; so a t:A counts one for the colon and none for t."""
    size = 0
    stack = [root]
    while stack:
        cur = stack.pop()
        size += 1
        d = cur.__dict__
        for name in cur._parts:
            stack.append(d[name])
    return size


close_subterms = close_subformulas = _closure
term_size = formula_size = _size


def subterms(t: Term) -> frozenset[Term]:
    """Least set containing t and closed under immediate subterms."""
    return _closure((t,))


def subformulas(a: Formula) -> frozenset[Formula]:
    """Least set containing a and closed under immediate subformulas."""
    return _closure((a,))


def formula_terms(a: Formula) -> frozenset[Term]:
    """All justification terms occurring in a (at ``:`` positions)."""
    return frozenset(f.term for f in subformulas(a) if isinstance(f, Just))


# ---------------------------------------------------------------------------
# Operators
#
# One row per binary operator token: the node it builds, its printed form,
# its precedence among the operators of its sort (terms or formulas), and
# whether it groups to the right.  The parser climbs these precedences and
# the printer puts parentheses by them.  The operand of ``!`` and the body
# of ``t:A`` sit at _PREFIX, above every operator, so any binary node
# there is parenthesized.


class _Op(NamedTuple):
    node: type
    text: str
    prec: int
    right: bool


_OPERATORS = {
    "PLUS": _Op(Sum, " + ", 0, False),
    "DOT": _Op(App, ".", 1, False),
    "ARROW": _Op(Implies, " -> ", 0, True),
    "OR": _Op(Or, " \\/ ", 1, False),
    "AND": _Op(And, " /\\ ", 2, False),
}
_TERM_OPS = {k: op for k, op in _OPERATORS.items() if issubclass(op.node, Term)}
_FORMULA_OPS = {k: op for k, op in _OPERATORS.items() if issubclass(op.node, Formula)}
_PREFIX = 1 + max(op.prec for op in _OPERATORS.values())
_PREC = {op.node: op.prec for op in _OPERATORS.values()}  # other nodes: _PREFIX
# What the printer puts between the two operands of a node, and the
# levels at which it puts the left and the right one (see _show).  "!t"
# prints as an empty left operand, "!" and t.
_SEPARATORS = {op.node: (op.text, op.prec + op.right, op.prec + (not op.right))
               for op in _OPERATORS.values()}
_SEPARATORS[Just] = (":", 0, _PREFIX)
_SEPARATORS[Bang] = ("!", 0, _PREFIX)


# ---------------------------------------------------------------------------
# Printing

_kept = operator.attrgetter("_key")  # a node's minimal form, or None
_NOTHING = Variable("")  # the left operand of "!"


def _show(root, full: bool) -> str:
    """Print a term or formula, walking it on an explicit stack, each
    node's operands first.  An operand sits at a precedence level: a
    left-grouping operator puts its left operand at its own precedence and
    its right operand one above, a right-grouping one the reverse, and the
    operand of "!" and the body of "t:A" sit at _PREFIX.  A binary operand
    at a level above its precedence is parenthesized.  The minimal form of
    every node the walk reaches is kept on the node as _key, where every
    later print reads it (a leaf gets its _key when it is built).  With
    full, every composite node is parenthesized instead, and the forms are
    kept in a table local to the call, by node id."""
    texts: dict[int, str] = {}
    form = (lambda node: texts.get(id(node))) if full else _kept
    stack = [root]
    while stack:
        node = stack.pop()
        if form(node) is not None:
            continue
        kind = type(node)
        if kind not in _SEPARATORS:  # a leaf, met only with full
            texts[id(node)] = node._key
            continue
        if kind is Just:
            left, right = node.term, node.body
        elif kind is Bang:
            left, right = _NOTHING, node.inner
        else:
            left, right = node.left, node.right
        fl, fr = form(left), form(right)
        if fl is None or fr is None:
            stack += node, right, left
            continue
        sep, left_level, right_level = _SEPARATORS[kind]
        if full:
            texts[id(node)] = "(" + fl + sep + fr + ")"
            continue
        if _PREC.get(type(left), _PREFIX) < left_level:
            fl = "(" + fl + ")"
        if _PREC.get(type(right), _PREFIX) < right_level:
            fr = "(" + fr + ")"
        node.__dict__["_key"] = fl + sep + fr
    return form(root)


def print_term(t: Term, full_parens: bool = False) -> str:
    """Render t with minimal parentheses (or fully parenthesized)."""
    return _show(t, True) if full_parens else t._key or _show(t, False)


def print_formula(a: Formula, full_parens: bool = False) -> str:
    """Render a with minimal parentheses (or fully parenthesized)."""
    return _show(a, True) if full_parens else a._key or _show(a, False)


def formula_key(a: Formula) -> str:
    """Sort key: the printed form (injective on formulas)."""
    return print_formula(a)


def term_key(t: Term) -> str:
    return print_term(t)


# ---------------------------------------------------------------------------
# Lexer


class ParseError(Exception):
    """Syntax error with a character position into the input."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


class FileFormatError(Exception):
    """Malformed proof, CS, model or universe file; carries a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


_IDENT = r"[a-z][a-zA-Z0-9_]*"
_IDENT_RE = re.compile(_IDENT)

# One capturing group: a symbol (ASCII or Unicode spelling), an
# identifier, the end, or else one bad character.  Every position matches
# after any white space, so findall gives the tokens back to back, the
# end as "" (once more after trailing white space).
_TOKEN_RE = re.compile(
    r"\s*(->|→|/\\|∧|\\/|∨|_\|_|⊥|[.·!+:()]|" + _IDENT + r"|\Z|.)", re.DOTALL)

# The kind of every fixed spelling and of the one-letter atoms; _word_kind
# tells the other identifiers and the bad characters apart.
_KINDS = {
    "->": "ARROW", "→": "ARROW", "/\\": "AND", "∧": "AND",
    "\\/": "OR", "∨": "OR", "_|_": "FALSUM", "⊥": "FALSUM",
    ".": "DOT", "·": "DOT", "!": "BANG", "+": "PLUS", ":": "COLON",
    "(": "LPAR", ")": "RPAR", "": "EOF", "p": "ATOM", "q": "ATOM", "r": "ATOM",
}
_ATOMIC = frozenset({"ATOM", "FALSUM"})  # the kinds only a formula starts with


def _word_kind(text: str) -> str:
    """ATOM or NAME (a constant or variable) for an identifier the lexer
    found, BAD for the one character it found where no token starts."""
    if _IDENT_RE.match(text) is None:
        return "BAD"
    return "ATOM" if _ATOM_RE.match(text) else "NAME"


def _tokenize(src: str, known: _Kinds) -> tuple[list[str], list[str]]:
    """The token texts of src and, in a parallel list, their kinds; the
    last is EOF.  known, a parse table's _Kinds, looks each text up
    once per table."""
    texts = _TOKEN_RE.findall(src)
    return texts, list(map(known.__getitem__, texts))


class _Kinds(dict):
    """_KINDS, and the kind of each other text as _word_kind finds it
    the first time."""

    def __missing__(self, text: str) -> str:
        kind = self[text] = _word_kind(text)
        return kind


def identifier_kind(text: str) -> str | None:
    """The kind, "ATOM" or "NAME", that the lexer gives text when it
    reads it as one identifier; None when it does not."""
    return _word_kind(text) if _IDENT_RE.fullmatch(text) else None


def _position(src: str, i: int) -> int:
    """The character position of token i of src."""
    return next(itertools.islice(_TOKEN_RE.finditer(src), i, None)).start(1)


class _Fail(Exception):
    """A parse failure at token index at; _parse turns it into a
    ParseError at that token's character position."""

    def __init__(self, message: str, at: int):
        self.message = message
        self.at = at


# ---------------------------------------------------------------------------
# Parse tables
#
# A file reader parses many lines that repeat each other's subformulas
# (deduce, internalize, J-4 and mp steps rewrite earlier conclusions
# inside new ones), so it gives the parser one _Table for the whole
# call.  The table maps a token text, the texts joined by spaces, to the
# node parsed from it: the text of every whole line, of every
# parenthesized group without its parentheses, of every name and atom, and
# of the right operand of every "->".  A group, line or operand met again
# comes back as the same node, and the parser jumps past it.  "->" is the
# only operator that groups to the right and the lowest of its sort, so
# its right operand runs to the ")" or EOF that ends its group or line,
# and it is stored only when the parse stopped there.  The consequent B of
# an mp major A -> B prints without parentheses, so this is what gives
# the major the very node of the step B, and check_proof's modus-ponens
# test meets identical nodes.  The separator keeps "(a b)" from meeting
# "(ab)".  A text that parses as a term contains no atom and no _|_, so
# it never parses as a formula: one table serves both sorts, and a hit
# counts only when its node has the sort wanted there.  What a text parses
# to depends on its tokens and the constants alone, and a table keeps one
# set of constants.
#
# The keys of a line may take at most share tokens per token of the line,
# the first keys met first, so that keying stays linear in the line
# whatever its nesting (a line of nested groups would otherwise key texts
# quadratic in its length).  A file reader's table has share _KEY_SHARE;
# a standalone parse makes a table of share 0, which keys names and atoms
# alone.

_KEY_SHARE = 8


class _Table(dict):
    """The nodes that one file reader's lines have parsed to, by token
    text, for the constants the reader declares; kinds are the kinds of
    the texts the reader has met, and share is how many tokens the keys
    of a line may take per token of the line."""

    __slots__ = ("constants", "kinds", "share")

    def __init__(self, constants: frozenset[str], share: int = _KEY_SHARE):
        self.constants = constants
        self.kinds = _Kinds(_KINDS)
        self.share = share

    def at(self, lineno: int, parse, text: str, prefix: str = ""):
        """parse(text) with this table and its constants, a ParseError
        becoming a FileFormatError at line lineno, its message after
        prefix."""
        try:
            return parse(text, self.constants, _table=self)
        except ParseError as e:
            raise FileFormatError(prefix + str(e), lineno) from e

    def items(self, lineno: int, parse, text: str) -> list:
        """The comma-separated items of text, each parsed as by at."""
        return [self.at(lineno, parse, item.strip())
                for item in text.split(",") if item.strip()]


# ---------------------------------------------------------------------------
# File lines


def _file_lines(text: str):
    """(line number, line) for each line that keeps some text once its
    '#' comment is cut off, with surrounding white space stripped."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _sections(text: str, heads, inline, missing: str):
    """(line number, section, content) for each header and content line of
    a file in sections: a line "head: rest" opens section head, and rest,
    empty or not, is its first content line; only the sections inline take
    a rest that is not empty.  Content before the first header is a
    FileFormatError with message missing.  (Proof headers are whole lines;
    parse_proof matches them itself.)"""
    section = None
    for lineno, line in _file_lines(text):
        head, sep, rest = line.partition(":")
        if sep and head in heads:
            section = head
            line = rest.strip()
            if line and head not in inline:
                raise FileFormatError(f"section {head}: takes indented lines", lineno)
        elif section is None:
            raise FileFormatError(missing, lineno)
        yield lineno, section, line


# ---------------------------------------------------------------------------
# Parser
#
# One loop over a line's tokens, by precedence climbing over _OPERATORS
# on an explicit stack of plain tuples (prec, build, left, key): a binary
# operator waiting for its right operand (key is that of a "->"
# consequent), a prefix "!" or "t:" at _PREFIX waiting for its operand,
# and, at prec -1, the marker of the line, of each open group and of a
# term before ":", which keeps the end of the context around it.  After
# an operand, an operator first reduces the rows that bind tighter, and
# any other token ends the innermost context: its rows are reduced, and
# its marker wants a ")", a ":" or the end.
#
# At formula position, an atom or _|_ starts a formula, and so does "("
# before one.  A name, "!" or "(" starts a term exactly when the names,
# ".", "+", "!" and parentheses after it reach a ":" with as many "(" as
# ")" before it (_term_ahead), as no term holds an atom or _|_; otherwise
# "(" opens a formula group and anything else is no formula.  A term that
# then fails, or ends at no ":", fails as that formula would: at the
# first token after its leading "(" (_not_formula).  The look ahead from
# a "(" that opens a formula group also serves the group's first token,
# so a run of nested "(" looks ahead once.

_TERM_ROWS = {kind: (op.prec + op.right, op.prec, op.node, op.right)
              for kind, op in _TERM_OPS.items()}
_FORMULA_ROWS = {kind: (op.prec + op.right, op.prec, op.node, op.right)
                 for kind, op in _FORMULA_OPS.items()}
_IN_TERMS = frozenset({"NAME", "DOT", "PLUS", "BANG"})  # the tokens of a term, but "(" and ")"
_TERM_STARTS = frozenset({"NAME", "BANG", "LPAR"})
_PARENS = frozenset({"LPAR", "RPAR"})
_LINE, _GROUP, _BEFORE_COLON = "line", "group", "term"  # markers


def _bang(_, inner):
    return Bang(inner)


def _matches(kinds: list[str]) -> dict[int, int]:
    """The index of the ")" that closes each "(" of a line, by the index
    of the "(", in one pass over the parentheses."""
    match = {}
    opened = []
    for j in itertools.compress(itertools.count(), map(_PARENS.__contains__, kinds)):
        if kinds[j] == "LPAR":
            opened.append(j)
        elif opened:
            match[opened.pop()] = j
    return match


def _term_ahead(kinds: list[str], j: int) -> tuple[int, int]:
    """The first token from j that is not a name, ".", "+", "!" or a
    parenthesis, and how many more "(" than ")" come before it."""
    depth = 0
    while True:
        kind = kinds[j]
        if kind == "LPAR":
            depth += 1
        elif kind == "RPAR":
            depth -= 1
        elif kind not in _IN_TERMS:
            return j, depth
        j += 1


def _not_formula(kinds: list[str], start: int, message: str, at: int):
    """Fail at token at with message, in a term; in a term that starts at
    token start before ":" (start >= 0), fail as the formula route does."""
    if start >= 0:
        message, at = "expected formula", start
        while kinds[at] == "LPAR":
            at += 1
    raise _Fail(message, at)


def _parse(src: str, sort: type, table: _Table):
    """A node of sort (Term or Formula) parsed from the whole of src, with
    the keys of table (see Parse tables)."""
    texts, kinds = _tokenize(src, table.kinds)
    n = len(kinds) - 1  # the EOF
    budget = table.share * n  # the tokens that keys may still take
    try:
        if "BAD" in kinds:
            at = kinds.index("BAD")
            raise _Fail(f"unexpected character {texts[at]!r}", at)
        line = None
        if n <= budget:
            budget -= n
            line = " ".join(texts[:n])
        a = table.get(line)
        if isinstance(a, sort):
            return a
        constants = table.constants
        term = sort is Term
        rows = _TERM_ROWS if term else _FORMULA_ROWS
        stack = [(-1, _LINE, n, line)]
        end = n  # the ")" or EOF that ends the formula context, -1 if none
        start = -1  # where the term before ":" starts, if in one
        ahead = -1  # the formula position that stop and depth are for
        match = None
        i = 0
        while True:
            # an operand starts at i
            kind = kinds[i]
            if kind == "ATOM" and not term or kind == "NAME" and (
                    term or kinds[i + 1] == "COLON"):
                name = texts[i]
                a = table.get(name)
                if a is None:
                    leaf = (Atom if kind == "ATOM" else
                            Constant if _CONSTANT_RE.match(name) or name in constants
                            else Variable)
                    a = table[name] = leaf(name)
                i += 1
                if kind == "NAME" and not term:  # "name :" starts a term
                    stack.append((_PREFIX, Just, a, None))
                    i += 1
                    continue
            elif term:
                if kind == "BANG":
                    stack.append((_PREFIX, _bang, None, None))
                    i += 1
                    continue
                if kind != "LPAR":
                    _not_formula(kinds, start, f"atom {texts[i]!r} used as a term"
                                 if kind == "ATOM" else "expected term", i)
            elif kind == "FALSUM":
                a = FALSUM
                i += 1
            elif kind != "LPAR" or kinds[i + 1] not in _ATOMIC:
                if kind not in _TERM_STARTS:
                    raise _Fail("expected formula", i)
                if ahead != i:
                    stop, depth = _term_ahead(kinds, i)
                if not depth and kinds[stop] == "COLON":
                    stack.append((-1, _BEFORE_COLON, end, None))
                    term, rows, start = True, _TERM_ROWS, i
                    continue
                if kind != "LPAR":
                    raise _Fail("expected formula", i)
                ahead, depth = i + 1, depth - 1  # _term_ahead from the next token
            if kind == "LPAR":
                if match is None:
                    match = _matches(kinds)
                m = match.get(i, -1)
                key = a = None
                if i < m <= i + 1 + budget:
                    budget -= m - i - 1
                    key = " ".join(texts[i + 1:m])
                    a = table.get(key)
                if not isinstance(a, Term if term else Formula):
                    stack.append((-1, _GROUP, end, key))
                    if not term:
                        end = m
                    i += 1
                    continue
                i = m + 1
            # an operand a is complete, and i is the token after it
            while True:
                row = rows.get(kinds[i])
                if row is not None:
                    lim, prec, node, right = row
                    top = stack[-1]
                    while top[0] >= lim:
                        stack.pop()
                        a = top[1](top[2], a)
                        top = stack[-1]
                    i += 1
                    key = None
                    if right and 2 <= end - i <= budget:
                        budget -= end - i
                        key = " ".join(texts[i:end])
                        b = table.get(key)
                        if isinstance(b, Formula):
                            stack.append((prec, node, a, None))
                            a, i = b, end
                            continue
                    stack.append((prec, node, a, key))
                    break
                # the context of the innermost marker ends at i
                whole = i == end
                top = stack.pop()
                while top[0] >= 0:
                    if top[3] is not None and whole:
                        table[top[3]] = a
                    a = top[1](top[2], a)
                    top = stack.pop()
                _, marker, end, key = top
                if marker is _GROUP:
                    if kinds[i] != "RPAR":
                        _not_formula(kinds, start, "expected ')'", i)
                    if key is not None:
                        table[key] = a
                    i += 1
                elif marker is _BEFORE_COLON:
                    if kinds[i] != "COLON":
                        _not_formula(kinds, start, "expected ':'", i)
                    stack.append((_PREFIX, Just, a, None))
                    term, rows, start = False, _FORMULA_ROWS, -1
                    i += 1
                    break
                else:
                    if kinds[i] != "EOF":
                        raise _Fail(f"unexpected {texts[i]!r} after {sort.__name__.lower()}", i)
                    if line is not None:
                        table[line] = a
                    return a
    except _Fail as e:
        raise ParseError(e.message, _position(src, e.at)) from None


def parse_term(src: str, constants: frozenset[str] = frozenset(), *,
               _table: _Table | None = None) -> Term:
    """Parse a justification term; raises ParseError with a position.  A
    file reader passes its _Table, whose constants are constants."""
    return _parse(src, Term, _Table(constants, 0) if _table is None else _table)


def parse_formula(src: str, constants: frozenset[str] = frozenset(), *,
                  _table: _Table | None = None) -> Formula:
    """Parse a formula; raises ParseError with a position.  A file reader
    passes its _Table, whose constants are constants."""
    return _parse(src, Formula, _Table(constants, 0) if _table is None else _table)
