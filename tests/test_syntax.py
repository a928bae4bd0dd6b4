"""Parser, printer, and structural helpers."""

import dataclasses
import hashlib
import os
import pickle
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import jlogic
from jlogic import proof_system, syntax
from jlogic.generators import random_formula, random_term
from jlogic.syntax import (
    And,
    App,
    Atom,
    Bang,
    Constant,
    FALSUM,
    Falsum,
    Implies,
    Just,
    Or,
    ParseError,
    Sum,
    Variable,
    close_subformulas,
    close_subterms,
    formula_key,
    formula_size,
    formula_terms,
    identifier_kind,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
    subformulas,
    subterms,
    term_key,
    term_size,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")
p, q, r = Atom("p"), Atom("q"), Atom("r")


term_cases = [
    ("x", x),
    ("!c1 . x + y", Sum(App(Bang(Constant("c1")), x), y)),
    ("x + y", Sum(x, y)),
    ("x.y.z", App(App(x, y), z)),
    ("!!x", Bang(Bang(x))),
    ("x.(y + z)", App(x, Sum(y, z))),
    ("(x + y).x", App(Sum(x, y), x)),
]


@pytest.mark.parametrize("src,expected", term_cases)
def test_parse_term(src, expected):
    assert parse_term(src) == expected


formula_cases = [
    ("_|_", FALSUM),
    ("p -> q -> r", Implies(p, Implies(q, r))),
    (
        "t:(p -> q) -> (s:p -> t.s:q)",
        Implies(
            Just(Variable("t"), Implies(p, q)),
            Implies(Just(Variable("s"), p), Just(App(Variable("t"), Variable("s")), q)),
        ),
    ),
    ("p /\\ q \\/ r", Or(And(p, q), r)),
    ("x:p -> p", Implies(Just(x, p), p)),
    ("x:y:p", Just(x, Just(y, p))),
    ("!x:x:p", Just(Bang(x), Just(x, p))),
    ("x + y:p", Just(Sum(x, y), p)),
    ("(p -> q) -> p", Implies(Implies(p, q), p)),
]


@pytest.mark.parametrize("src,expected", formula_cases)
def test_parse_formula(src, expected):
    assert parse_formula(src) == expected


# (node, minimal form, fully parenthesized form): each binary operator as
# the left and the right operand of each operator of its sort, "!" over a
# binary term, and "t:A" over each connective and with a binary term
print_cases = [
    (Sum(x, y), "x + y", "(x + y)"),
    (Just(App(x, y), p), "x.y:p", "((x.y):p)"),
    (Implies(Or(p, q), FALSUM), "p \\/ q -> _|_", "((p \\/ q) -> _|_)"),
    (Just(Bang(x), Just(x, p)), "!x:x:p", "((!x):(x:p))"),
    (And(p, And(q, r)), "p /\\ (q /\\ r)", "(p /\\ (q /\\ r))"),
    (Implies(Implies(p, q), r), "(p -> q) -> r", "((p -> q) -> r)"),
    (Sum(Sum(x, y), z), "x + y + z", "((x + y) + z)"),
    (Sum(x, Sum(y, z)), "x + (y + z)", "(x + (y + z))"),
    (Sum(App(x, y), z), "x.y + z", "((x.y) + z)"),
    (Sum(x, App(y, z)), "x + y.z", "(x + (y.z))"),
    (App(Sum(x, y), z), "(x + y).z", "((x + y).z)"),
    (App(x, Sum(y, z)), "x.(y + z)", "(x.(y + z))"),
    (App(App(x, y), z), "x.y.z", "((x.y).z)"),
    (App(x, App(y, z)), "x.(y.z)", "(x.(y.z))"),
    (Bang(App(x, y)), "!(x.y)", "(!(x.y))"),
    (Bang(Sum(x, y)), "!(x + y)", "(!(x + y))"),
    (Implies(p, Implies(q, r)), "p -> q -> r", "(p -> (q -> r))"),
    (Implies(Or(p, q), r), "p \\/ q -> r", "((p \\/ q) -> r)"),
    (Implies(p, Or(q, r)), "p -> q \\/ r", "(p -> (q \\/ r))"),
    (Implies(And(p, q), r), "p /\\ q -> r", "((p /\\ q) -> r)"),
    (Implies(p, And(q, r)), "p -> q /\\ r", "(p -> (q /\\ r))"),
    (Or(Implies(p, q), r), "(p -> q) \\/ r", "((p -> q) \\/ r)"),
    (Or(p, Implies(q, r)), "p \\/ (q -> r)", "(p \\/ (q -> r))"),
    (Or(Or(p, q), r), "p \\/ q \\/ r", "((p \\/ q) \\/ r)"),
    (Or(p, Or(q, r)), "p \\/ (q \\/ r)", "(p \\/ (q \\/ r))"),
    (Or(And(p, q), r), "p /\\ q \\/ r", "((p /\\ q) \\/ r)"),
    (Or(p, And(q, r)), "p \\/ q /\\ r", "(p \\/ (q /\\ r))"),
    (And(Implies(p, q), r), "(p -> q) /\\ r", "((p -> q) /\\ r)"),
    (And(p, Implies(q, r)), "p /\\ (q -> r)", "(p /\\ (q -> r))"),
    (And(Or(p, q), r), "(p \\/ q) /\\ r", "((p \\/ q) /\\ r)"),
    (And(p, Or(q, r)), "p /\\ (q \\/ r)", "(p /\\ (q \\/ r))"),
    (And(And(p, q), r), "p /\\ q /\\ r", "((p /\\ q) /\\ r)"),
    (Just(x, Implies(p, q)), "x:(p -> q)", "(x:(p -> q))"),
    (Just(x, Or(p, q)), "x:(p \\/ q)", "(x:(p \\/ q))"),
    (Just(x, And(p, q)), "x:(p /\\ q)", "(x:(p /\\ q))"),
    (Just(Sum(x, y), p), "x + y:p", "((x + y):p)"),
]

UNICODE = [("->", "→"), ("/\\", "∧"), ("\\/", "∨"), ("_|_", "⊥"), (".", "·")]


# stable ids: index and minimal form
@pytest.mark.parametrize("a,minimal,full", print_cases,
                         ids=[f"a{i}-{case[1]}" for i, case in enumerate(print_cases)])
def test_print(a, minimal, full):
    """Both printed forms, and each parses back, also in Unicode."""
    if isinstance(a, (Sum, App, Bang, Variable, Constant)):
        show, parse = print_term, parse_term
    else:
        show, parse = print_formula, parse_formula
    assert show(a) == minimal
    assert show(a, full_parens=True) == full
    for text in (minimal, full):
        assert parse(text) == a
        for ascii_form, unicode_form in UNICODE:
            text = text.replace(ascii_form, unicode_form)
        assert parse(text) == a


def test_unicode_aliases():
    assert parse_formula("p → q ∧ r") == parse_formula("p -> q /\\ r")
    assert parse_formula("⊥") == FALSUM
    assert parse_term("x · y") == App(x, y)


# (input, parser, message, position)
error_cases = [
    ("x + + y", parse_term, "expected term", 4),
    ("p -> (", parse_formula, "expected formula", 6),
    ("", parse_formula, "expected formula", 0),
    ("p q", parse_formula, "unexpected 'q' after formula", 2),
    (")", parse_term, "expected term", 0),
    ("x.p:q", parse_formula, "expected formula", 0),
    ("!p", parse_formula, "expected formula", 0),
    ("!p", parse_term, "atom 'p' used as a term", 1),
    ("(x + y) -> p", parse_formula, "expected formula", 1),
    ("((x)", parse_term, "expected ')'", 4),
    ("((x)", parse_formula, "expected formula", 2),
    ("p ?", parse_formula, "unexpected character '?'", 2),
    ("p ->\t\n", parse_formula, "expected formula", 6),
    ("x +\n\t+ y", parse_term, "expected term", 5),
    ("p\t\n/\\ q\n)", parse_formula, "unexpected ')' after formula", 8),
    ("x:\tp\n->", parse_formula, "expected formula", 7),
    ("p -> x", parse_formula, "expected formula", 5),
    ("x:y", parse_formula, "expected formula", 2),
    ("p → q ∧", parse_formula, "expected formula", 7),
    ("x · ", parse_term, "expected term", 4),
]


# stable ids: input and parser
@pytest.mark.parametrize("src,fn,message,pos", error_cases,
                         ids=[f"{case[0]}-{case[1].__name__}" for case in error_cases])
def test_errors(src, fn, message, pos):
    with pytest.raises(ParseError) as exc:
        fn(src)
    assert (exc.value.message, exc.value.pos) == (message, pos)
    assert str(exc.value) == f"{message} (at position {pos})"


def test_error_position():
    # second "+" has nothing to its right at position 4
    with pytest.raises(ParseError) as exc:
        parse_term("x + + y")
    assert exc.value.pos == 4


def test_subformulas():
    assert subformulas(p) == {p}
    assert subformulas(FALSUM) == {FALSUM}
    assert subformulas(Implies(p, Just(x, q))) == {
        Implies(p, Just(x, q)), p, Just(x, q), q,
    }


def test_subterms():
    c = Constant("c1")
    assert subterms(Bang(c)) == {Bang(c), c}
    assert subterms(App(Sum(x, y), x)) == {App(Sum(x, y), x), Sum(x, y), x, y}
    assert subterms(x) == {x}


terms = st.recursive(
    st.sampled_from([x, y, z, Constant("c1"), Variable("foo")]),
    lambda inner: st.one_of(
        st.builds(App, inner, inner),
        st.builds(Sum, inner, inner),
        st.builds(Bang, inner),
    ),
    max_leaves=32,
)

formulas = st.recursive(
    st.sampled_from([p, q, r, Atom("p7"), FALSUM]),
    lambda inner: st.one_of(
        st.builds(Implies, inner, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Just, terms, inner),
    ),
    max_leaves=32,
)


@given(terms)
def test_term_round_trip(t):
    parsed = parse_term(print_term(t))
    assert parsed == t
    assert hash(parsed) == hash(t)


@given(formulas)
def test_formula_round_trip(a):
    parsed = parse_formula(print_formula(a))
    assert parsed == a
    assert hash(parsed) == hash(a)


@given(formulas)
def test_full_parens_agrees(a):
    # minimal and fully parenthesized output parse to the same tree
    assert parse_formula(print_formula(a, full_parens=True)) == a


@given(formulas)
def test_subformula_count_bounded(a):
    assert a in subformulas(a)
    assert len(subformulas(a)) <= formula_size(a)


@given(terms)
def test_subterm_count_bounded(t):
    assert t in subterms(t)
    assert len(subterms(t)) <= term_size(t)


def test_constant_requires_declaration():
    # c-digit names are always constants; other names only when declared
    assert parse_term("c2") == Constant("c2")
    assert parse_term("kb") == Variable("kb")
    assert parse_term("kb", constants=frozenset({"kb"})) == Constant("kb")


def test_atoms_parse_without_exceptions(monkeypatch):
    # an atom goes straight to the formula route; no term attempt fails
    made = []
    for failure in (ParseError, syntax._Fail):
        init = failure.__init__

        def counting_init(self, *args, init=init):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(failure, "__init__", counting_init)
    src = " /\\ ".join(f"p{i} \\/ _|_" for i in range(200)) + " -> x:q"
    a = parse_formula(src)
    assert made == []
    assert print_formula(a) == src


def test_paren_nesting_is_linear(monkeypatch):
    # a "(" in formula position may start a term; the look ahead from the
    # first "(" serves every group inside it, so nesting costs one
    calls = []
    real = syntax._term_ahead

    def counting(kinds, j):
        calls.append(j)
        return real(kinds, j)

    monkeypatch.setattr(syntax, "_term_ahead", counting)
    for depth in (100, 200):
        for src, want in [("(" * depth + "p" + ")" * depth, p),
                          ("(" * depth + "x" + ")" * depth + ":p", Just(x, p))]:
            calls.clear()
            assert parse_formula(src) == want
            assert calls == [0]
        calls.clear()
        with pytest.raises(ParseError, match=f"expected formula \\(at position {depth}\\)"):
            parse_formula("(" * depth + "x" + ")" * depth + " -> p")
        assert calls == [0]


# --- stored hashes and cached keys -------------------------------------------


def deep_chain(depth):
    a = p
    for _ in range(depth):
        a = Implies(p, a)
    return a


def test_deep_hash_does_not_recurse():
    assert hash(deep_chain(3000)) == hash(deep_chain(3000))


def test_deep_equality_does_not_recurse():
    assert deep_chain(3000) == deep_chain(3000)
    assert deep_chain(3000) != deep_chain(2999)
    a, b, c = p, p, q
    for _ in range(3000):
        a, b, c = Just(x, a), Just(Variable("x"), b), Just(x, c)
    assert a == b
    assert a != c


def test_deep_size_does_not_recurse():
    assert formula_size(deep_chain(3000)) == 6001
    t = x
    for _ in range(3000):
        t = App(Bang(t), y)
    assert term_size(t) == 9001
    assert formula_size(Just(t, deep_chain(3000))) == 6002


@given(formulas, formulas)
def test_closure_of_roots_is_union_of_their_closures(a, b):
    assert close_subformulas([a, b, a]) == subformulas(a) | subformulas(b)
    ts = formula_terms(a) | formula_terms(b)
    assert close_subterms(ts) == frozenset().union(*map(subterms, ts))


# --- the walks against recursive references ----------------------------------


def reference_parts(node):
    """A node's immediate subterms or subformulas, by its kind."""
    if isinstance(node, (App, Sum, And, Or, Implies)):
        return [node.left, node.right]
    if isinstance(node, Bang):
        return [node.inner]
    if isinstance(node, Just):
        return [node.body]
    return []


def reference_closure(node):
    return {node}.union(*map(reference_closure, reference_parts(node)))


def reference_size(node):
    return 1 + sum(map(reference_size, reference_parts(node)))


def test_walks_agree_with_reference():
    rng = random.Random(28)
    for _ in range(200):
        ts = [random_term(rng, rng.randrange(6)) for _ in range(rng.randrange(4))]
        fs = [random_formula(rng, rng.randrange(6)) for _ in range(rng.randrange(4))]
        assert close_subterms(ts) == set().union(*map(reference_closure, ts))
        assert close_subformulas(fs) == set().union(*map(reference_closure, fs))
        for t in ts:
            assert subterms(t) == reference_closure(t)
            assert term_size(t) == reference_size(t)
        for a in fs:
            assert subformulas(a) == reference_closure(a)
            assert formula_size(a) == reference_size(a)


NODE_CLASSES = {cls for module in (syntax, proof_system) for cls in vars(module).values()
                if isinstance(cls, type) and issubclass(cls, (syntax.Term, syntax.Formula))
                and cls not in (syntax.Term, syntax.Formula)}


def test_every_node_class_states_its_parts():
    # a node's parts are its fields of its own sort: a new node class that
    # leaves one out would slip past the closure and size walks
    assert {Atom, Falsum, Implies, Just, Bang, proof_system._MetaT} <= NODE_CLASSES
    for cls in NODE_CLASSES:
        sort = "Term" if issubclass(cls, syntax.Term) else "Formula"
        assert "_parts" in vars(cls), cls
        assert cls._parts == tuple(f.name for f in dataclasses.fields(cls)
                                   if f.type == sort), cls


def test_equality_does_not_trust_hashes():
    # equal stored hashes all the way down force the walk to the leaves
    a, b = deep_chain(3000), deep_chain(3000)
    b_leaf = b
    while isinstance(b_leaf.right, Implies):
        b_leaf = b_leaf.right
    b_leaf.__dict__["right"] = q
    assert a._hash == b._hash
    assert a != b
    s, t = Just(Sum(x, y), p), Just(Sum(x, z), p)
    t.__dict__["_hash"], t.term.__dict__["_hash"] = s._hash, s.term._hash
    assert s != t


@given(formulas, formulas)
def test_equality_agrees_with_structure(a, b):
    # the printed dataclass fields are the structure; b is built apart from a
    b = parse_formula(print_formula(b))
    assert (a == b) == (repr(a) == repr(b))
    assert (Just(x, a) == Just(Variable("x"), b)) == (a == b)


def test_equality_across_node_kinds():
    assert Atom("p") == parse_formula("p")
    assert Atom("p") != Atom("q")
    assert FALSUM == Falsum()
    assert Implies(p, q) != And(p, q)
    assert p != x and x != p
    assert Implies(p, q) != "p -> q"


def test_constant_and_variable_differ():
    assert Constant("x") != Variable("x")


# --- the printer against the recursive reference -----------------------------

OP_OF_NODE = {op.node: op for op in syntax._OPERATORS.values()}


def reference_show(node, full, level=0):
    """The recursive printer that the explicit-stack walk replaced: print a
    node that sits at a precedence level.  A left-grouping operator puts
    its left operand at its own precedence and its right operand one
    above, a right-grouping one the reverse.  A binary node at a level
    above its precedence is parenthesized; with full, every composite
    node is."""
    kind = type(node)
    op = OP_OF_NODE.get(kind)
    if op is not None:
        prec = op.prec
        left, right = (prec + 1, prec) if op.right else (prec, prec + 1)
        s = (reference_show(node.left, full, left) + op.text
             + reference_show(node.right, full, right))
        return f"({s})" if full or level > prec else s
    if kind is Bang:
        s = "!" + reference_show(node.inner, full, syntax._PREFIX)
    elif kind is Just:
        s = (reference_show(node.term, full, 0) + ":"
             + reference_show(node.body, full, syntax._PREFIX))
    elif kind is Falsum:
        return "_|_"
    else:
        return node.name
    return f"({s})" if full else s


@given(formulas, terms, st.booleans())
def test_printer_agrees_with_reference(a, t, full_first):
    for full in (full_first, not full_first, full_first):
        assert print_formula(a, full) == reference_show(a, full)
        assert print_term(t, full) == reference_show(t, full)


@given(formulas, st.randoms(use_true_random=False))
def test_printer_agrees_with_reference_after_subtrees(a, rng):
    # a fresh copy whose subformulas (and their terms) are printed first in
    # a random order and mode, then every one of them in both modes
    a = parse_formula(print_formula(a))
    parts = sorted(subformulas(a), key=lambda b: reference_show(b, False))
    rng.shuffle(parts)
    for b in parts[:rng.randrange(len(parts) + 1)]:
        print_formula(b, rng.random() < 0.5)
    for b in parts:
        for full in (False, True):
            assert print_formula(b, full) == reference_show(b, full)


def test_kept_form_in_new_contexts():
    # a node printed alone keeps its minimal form; a parent that puts it
    # above its precedence parenthesizes the kept form
    a = Implies(p, q)
    assert print_formula(a) == "p -> q"
    assert print_formula(Implies(a, r)) == "(p -> q) -> r"
    assert print_formula(Just(x, a)) == "x:(p -> q)"
    assert print_formula(Implies(r, a)) == "r -> p -> q"
    t = Sum(x, y)
    assert print_term(t) == "x + y"
    assert print_formula(Just(t, p)) == "x + y:p"
    assert print_term(Bang(t)) == "!(x + y)"
    assert print_term(App(x, t)) == "x.(x + y)"
    assert print_term(App(t, x)) == "(x + y).x"
    assert (a._key, t._key) == ("p -> q", "x + y")


def test_full_and_minimal_on_one_node():
    a = Implies(Implies(p, q), r)
    assert print_formula(a) == "(p -> q) -> r"
    assert print_formula(a, True) == "((p -> q) -> r)"
    assert print_formula(a) == "(p -> q) -> r"
    b = Just(Bang(Sum(x, y)), Implies(Implies(p, q), r))
    assert print_formula(b, True) == "((!(x + y)):((p -> q) -> r))"
    assert b._key is None  # the full walk keeps nothing on a node
    assert print_formula(b) == "!(x + y):((p -> q) -> r)"
    assert print_formula(b, True) == "((!(x + y)):((p -> q) -> r))"


def test_deep_chains_print():
    a = deep_chain(3000)
    assert print_formula(a) == " -> ".join(["p"] * 3001)
    assert print_formula(deep_chain(3000), True) == "(p -> " * 3000 + "p" + ")" * 3000
    b = p
    for _ in range(3000):
        b = And(b, p)
    assert print_formula(b) == " /\\ ".join(["p"] * 3001)
    c = p
    for _ in range(3000):
        c = And(p, c)
    assert print_formula(c) == "p /\\ (" * 2999 + "p /\\ p" + ")" * 2999
    t = x
    for _ in range(3000):
        t = Bang(t)
    assert print_term(t) == "!" * 3000 + "x"
    chain = deep_chain(900)
    assert parse_formula(print_formula(chain)) == chain


@given(formulas, terms)
def test_keys_are_printed_forms(a, t):
    for _ in range(2):  # before and after the key is cached
        assert formula_key(a) == print_formula(a)
        assert term_key(t) == print_term(t)


def test_one_node_api_for_both_sorts():
    # each per-sort pair of the node API is one function, and str is the
    # printer, inherited by both sorts
    assert print_term is print_formula is formula_key is term_key
    assert subterms is subformulas
    assert "__str__" not in vars(syntax.Term)
    assert "__str__" not in vars(syntax.Formula)
    rng = random.Random(31)
    for _ in range(300):
        for node in (random_term(rng, rng.randrange(6)),
                     random_formula(rng, rng.randrange(6))):
            assert str(node) == reference_show(node, False)
            for full in (True, False):
                text = reference_show(node, full)
                assert print_formula(node, full) == print_term(node, full) == text
            assert formula_key(node) == term_key(node) == str(node)


def test_nodes_stay_frozen():
    a = Implies(p, q)
    formula_key(a)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.left = q
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.name = "y"
    assert a == Implies(p, q)
    assert repr(a) == "Implies(left=Atom(name='p'), right=Atom(name='q'))"


@pytest.mark.parametrize("cls, fields, expected_repr", [
    (Constant, {"name": "c1"}, "Constant(name='c1')"),
    (Variable, {"name": "x"}, "Variable(name='x')"),
    (Atom, {"name": "p"}, "Atom(name='p')"),
    (proof_system._MetaF, {"name": "A"}, "_MetaF(name='A')"),
    (proof_system._MetaT, {"name": "t"}, "_MetaT(name='t')"),
    (App, {"left": x, "right": y},
     "App(left=Variable(name='x'), right=Variable(name='y'))"),
    (Sum, {"left": x, "right": y},
     "Sum(left=Variable(name='x'), right=Variable(name='y'))"),
    (Bang, {"inner": x}, "Bang(inner=Variable(name='x'))"),
    (And, {"left": p, "right": q},
     "And(left=Atom(name='p'), right=Atom(name='q'))"),
    (Or, {"left": p, "right": q},
     "Or(left=Atom(name='p'), right=Atom(name='q'))"),
    (Implies, {"left": p, "right": q},
     "Implies(left=Atom(name='p'), right=Atom(name='q'))"),
    (Just, {"term": x, "body": p},
     "Just(term=Variable(name='x'), body=Atom(name='p'))"),
    (Falsum, {}, "Falsum()"),
])
def test_node_hash_rule(cls, fields, expected_repr):
    # a leaf hashes as (class name, name), a composite as (class name,
    # child hashes...), falsum as its class name; keyword construction is
    # what rebuilds a node with one child replaced
    node = cls(**fields)
    if not fields:
        expected = hash(cls.__name__)
    elif "name" in fields:
        expected = hash((cls.__name__, fields["name"]))
    else:
        expected = hash((cls.__name__, *map(hash, fields.values())))
    assert hash(node) == expected
    assert node == cls(*fields.values())
    assert repr(node) == expected_repr


def python_with_hash_seed(seed, code, **kwargs):
    src = str(Path(jlogic.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONHASHSEED": str(seed),
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, check=True, **kwargs)


def test_pickle_across_hash_seeds():
    src = "x:(p -> q) -> y:p -> (x.y + !c1):q \\/ _|_"
    dumped = python_with_hash_seed(0, (
        "import pickle, sys\n"
        "from jlogic.syntax import parse_formula\n"
        f"a = parse_formula({src!r})\n"
        "hash(a)\n"
        "sys.stdout.buffer.write(pickle.dumps(a))\n"
    )).stdout
    assert pickle.loads(dumped) == parse_formula(src)
    checked = python_with_hash_seed(1, (
        "import pickle, sys\n"
        "from jlogic.syntax import parse_formula\n"
        "a = pickle.loads(sys.stdin.buffer.read())\n"
        f"b = parse_formula({src!r})\n"
        "print(a == b, hash(a) == hash(b), {a: 1}.get(b))\n"
    ), input=dumped)
    assert checked.stdout.split() == [b"True", b"True", b"1"]


# --- the lexer ----------------------------------------------------------------


identifiers = st.one_of(
    st.from_regex(r"[a-z][a-zA-Z0-9_]*", fullmatch=True),
    st.from_regex(r"[pqr][0-9_a-z]{0,3}", fullmatch=True),
)


ATOM_NAME = re.compile(r"p|q|r|p[0-9]+")  # the atom rule, stated apart from the lexer


@given(identifiers)
def test_lexer_tells_atoms_from_names(name):
    texts, kinds = syntax._tokenize(name, syntax._Kinds(syntax._KINDS))
    assert texts[0] == name
    assert kinds[0] == ("ATOM" if ATOM_NAME.fullmatch(name) else "NAME")
    assert identifier_kind(name) == kinds[0]


@pytest.mark.parametrize("text", ["", " x", "x ", "x y", "Kb", "1c", "x.y", "?", "_|_"])
def test_identifier_kind_of_non_identifiers(text):
    assert identifier_kind(text) is None


# --- parse results, pinned -------------------------------------------------------
#
# A seeded corpus of source texts: random terms and formulas, with Unicode
# spellings, extra white space and small mutations, and token soup.  Each
# goes to both parsers, so many do not parse.  Nesting stays shallow: the
# depth limit is not pinned here.

LEAVES = {"term": ["x", "y", "c1", "kb"], "formula": ["p", "q", "r", "p7", "_|_"]}
JOINS = {"term": [".", " + "], "formula": [" -> ", " /\\ ", " \\/ "]}
PIECES = ["(", ")", "->", "→", "/\\", "∧", "\\/", "∨", "_|_", "⊥", ".", "·", "!",
          "+", ":", "p", "q7", "x", "c1", "Q", "-", "/", "_", "|", "?", " ", "\t", "\n"]


def random_source(rng, depth, sort):
    """The text of a random term or formula (sort), parenthesized at random."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(LEAVES[sort])
    below = depth - 1
    if rng.random() < 0.25:  # the two prefix forms: !t and t:A
        if sort == "term":
            text = "!" + random_source(rng, below, "term")
        else:
            text = (random_source(rng, below, "term") + ":"
                    + random_source(rng, below, "formula"))
    else:
        text = (random_source(rng, below, sort) + rng.choice(JOINS[sort])
                + random_source(rng, below, sort))
    return f"({text})" if rng.random() < 0.4 else text


def source_corpus(seed, n):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        if rng.random() < 0.1:
            out.append("".join(rng.choice(PIECES) for _ in range(rng.randint(0, 10))))
            continue
        src = random_source(rng, rng.randint(0, 5), rng.choice(["term", "formula"]))
        if rng.random() < 0.3:
            for ascii_form, unicode_form in UNICODE:
                if rng.random() < 0.5:
                    src = src.replace(ascii_form, unicode_form)
        if rng.random() < 0.3:
            src = "".join(c + rng.choice(["", " ", "\t", "\n  "]) for c in src)
        if rng.random() < 0.4:
            chars = list(src)
            i = rng.randint(0, len(chars))
            if rng.random() < 0.5 and chars:
                del chars[min(i, len(chars) - 1)]
            else:
                chars.insert(i, rng.choice(PIECES))
            src = "".join(chars)
        out.append(src)
    return out


def parse_results(sources):
    """One line per source, parser and constant set: the fully
    parenthesized print and the root's class, or the ParseError message
    and position."""
    for src in sources:
        for parse, show in ((parse_formula, print_formula), (parse_term, print_term)):
            for constants in (frozenset(), frozenset({"kb"})):
                try:
                    node = parse(src, constants)
                    result = show(node, full_parens=True) + " " + type(node).__name__
                except ParseError as e:
                    result = f"error {e.message!r} at {e.pos}"
                yield f"{parse.__name__} {sorted(constants)} {src!r}: {result}\n"


PARSE_RESULTS_SHA256 = (
    "86dba9fc6bb87f9dc7b5c00038f47d33a9fb8d5215f2b134b3d2b893fd872104"
)


def test_parse_results_pinned():
    digest = hashlib.sha256()
    for line in parse_results(source_corpus(2016, 2000)):
        digest.update(line.encode())
    assert digest.hexdigest() == PARSE_RESULTS_SHA256


# --- the parser against the recursive reference -----------------------------

CONSTANT_NAME = re.compile(r"c[0-9]+")  # the constant rule, stated apart from the parser


class ReferenceParser:
    """The recursive-descent parser that the loop on an explicit stack
    replaced, without its parse table: precedence climbing over
    _OPERATORS, and at formula position the term route tried first, with
    a fall back to the formula route unless a ":" follows the term.  A
    failed term attempt is kept by position, so parenthesis nesting stays
    linear.  Input nested past the recursion limit fails as nested too
    deeply."""

    def __init__(self, texts, kinds, constants):
        self.texts, self.kinds = texts, kinds
        self.i = 0
        self.constants = constants
        self.no_term = {}

    def close(self):
        if self.kinds[self.i] != "RPAR":
            raise syntax._Fail("expected ')'", self.i)
        self.i += 1

    def binary(self, ops, operand, level=0):
        left = operand()
        op = ops.get(self.kinds[self.i])
        while op is not None and op.prec >= level:
            self.i += 1
            right = self.binary(ops, operand, op.prec + (not op.right))
            left = op.node(left, right)
            op = ops.get(self.kinds[self.i])
        return left

    def term(self):
        start = self.i
        if start in self.no_term:
            raise syntax._Fail(*self.no_term[start])
        try:
            return self.binary(syntax._TERM_OPS, self.unary)
        except syntax._Fail as e:
            self.no_term[start] = (e.message, e.at)
            raise

    def formula(self):
        return self.binary(syntax._FORMULA_OPS, self.just)

    def unary(self):
        i = self.i
        kind = self.kinds[i]
        if kind == "NAME":
            self.i = i + 1
            name = self.texts[i]
            return (Constant if CONSTANT_NAME.fullmatch(name) or name in self.constants
                    else Variable)(name)
        if kind == "LPAR":
            self.i = i + 1
            t = self.term()
            self.close()
            return t
        if kind == "BANG":
            self.i = i + 1
            return Bang(self.unary())
        if kind == "ATOM":
            raise syntax._Fail(f"atom {self.texts[i]!r} used as a term", i)
        raise syntax._Fail("expected term", i)

    def just(self):
        kinds = self.kinds
        i = self.i
        if kinds[i] in ("ATOM", "FALSUM") or (
                kinds[i] == "LPAR" and kinds[i + 1] in ("ATOM", "FALSUM")):
            return self.atomic()
        try:
            t = self.term()
            committed = kinds[self.i] == "COLON"
        except syntax._Fail:
            committed = False
        if committed:
            self.i += 1
            return Just(t, self.just())
        self.i = i
        return self.atomic()

    def atomic(self):
        i = self.i
        kind = self.kinds[i]
        if kind == "ATOM":
            self.i = i + 1
            return Atom(self.texts[i])
        if kind == "LPAR":
            self.i = i + 1
            a = self.formula()
            self.close()
            return a
        if kind == "FALSUM":
            self.i = i + 1
            return FALSUM
        raise syntax._Fail("expected formula", i)


def reference_parse(src, constants, sort):
    texts, kinds = syntax._tokenize(src, syntax._Kinds(syntax._KINDS))
    p = ReferenceParser(texts, kinds, constants)
    try:
        if "BAD" in kinds:
            at = kinds.index("BAD")
            raise syntax._Fail(f"unexpected character {texts[at]!r}", at)
        try:
            out = p.formula() if sort is syntax.Formula else p.term()
        except RecursionError:
            raise syntax._Fail(f"{sort.__name__.lower()} nested too deeply", p.i) from None
        if kinds[p.i] != "EOF":
            raise syntax._Fail(f"unexpected {texts[p.i]!r} after {sort.__name__.lower()}", p.i)
    except syntax._Fail as e:
        raise ParseError(e.message, syntax._position(src, e.at)) from None
    return out


def outcome(parse, *args, **kwargs):
    """The fully parenthesized print and class of what parse gives, or
    the message and position of its ParseError."""
    try:
        node = parse(*args, **kwargs)
    except ParseError as e:
        return e.message, e.pos
    full = print_formula if isinstance(node, syntax.Formula) else print_term
    return full(node, True), type(node).__name__


SORTS = ((parse_formula, syntax.Formula), (parse_term, syntax.Term))
CONSTANT_SETS = (frozenset(), frozenset({"kb"}))
TOKENS = ["(", ")", "->", "/\\", "\\/", "_|_", ".", "!", "+", ":",
          "p", "q", "p7", "x", "y", "c1", "kb"]


def mutated(rng, src, edits):
    """src as tokens joined by spaces, with edits tokens deleted, inserted
    or replaced."""
    tokens = syntax._tokenize(src, syntax._Kinds(syntax._KINDS))[0][:-1]
    for _ in range(edits):
        i = rng.randint(0, len(tokens))
        edit = rng.randrange(3) if i < len(tokens) else 1
        if edit == 0:
            del tokens[i]
        elif edit == 1:
            tokens.insert(i, rng.choice(TOKENS))
        else:
            tokens[i] = rng.choice(TOKENS)
    return " ".join(tokens)


def differential_sources(seed, n):
    """n source texts: random token strings, and generated terms and
    formulas, each followed by copies with one or two tokens mutated (the
    first twice) and by a line that holds it in a group, so that lines
    parsed through one table meet each other's groups and consequents,
    also those of lines that failed."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        if rng.random() < 0.15:
            out.append(" ".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 12))))
            continue
        sort = rng.choice(["term", "formula"])
        src = random_source(rng, rng.randint(0, 6), sort)
        out.append(src)
        copies = [mutated(rng, src, rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
        out += copies + copies[:1]  # a line again, after what it keyed
        if sort == "term":
            out.append(f"{random_source(rng, 2, sort)}.({src}):{random_source(rng, 2, 'formula')}")
        else:
            out.append(f"({src}) -> {random_source(rng, 2, sort)} -> {src}")
    return out[:n]


def parser_mismatches(sources, batch=25):
    """The sources on which the parser and the reference differ, parsed
    alone and, batch lines at a time, through one shared _Table; inputs
    that the reference finds nested too deeply are left out.  Returns the
    mismatches and the number of comparisons."""
    bad, compared = [], 0
    sources = list(sources)
    for constants in CONSTANT_SETS:
        for start in range(0, len(sources), batch):
            table = syntax._Table(constants)
            for src in sources[start:start + batch]:
                for parse, sort in SORTS:
                    want = outcome(reference_parse, src, constants, sort)
                    if want[0].endswith("nested too deeply"):
                        continue
                    alone = outcome(parse, src, constants)
                    shared = outcome(parse, src, constants, _table=table)
                    compared += 1
                    if alone != want or shared != want:
                        bad.append((src, sorted(constants), sort.__name__, want, alone, shared))
    return bad, compared


def test_parser_agrees_with_reference():
    bad, compared = parser_mismatches(differential_sources(20, 3000))
    assert compared > 10000
    assert bad == []


@given(formulas, terms)
def test_parser_agrees_with_reference_on_printed_trees(a, t):
    texts = [print_formula(a), print_formula(a, True), print_term(t), print_term(t, True)]
    assert parser_mismatches(texts) == ([], 16)


# A deep input parses, or fails as the reference fails at n = 10, in
# linear time: n parentheses around p, a chain of n "->", and a term
# group n deep that ends in "x +".
@pytest.mark.parametrize("source, expected", [
    (lambda n: "(" * n + "p" + ")" * n, lambda n: p),
    (lambda n: " -> ".join(["p"] * (n + 1)), deep_chain),
    (lambda n: "(" * n + "x +" + ")" * n + ":p", lambda n: ("expected formula", n)),
], ids=["parentheses", "chain", "term-group"])
def test_deep_input_parses(source, expected):
    def result(parse, src, *args, **kwargs):
        try:
            return parse(src, *args, **kwargs)
        except ParseError as e:
            return e.message, e.pos

    assert result(reference_parse, source(10), frozenset(), syntax.Formula) == expected(10)
    src = source(20000)
    for table in (None, syntax._Table(frozenset())):
        start = time.perf_counter()
        got = result(parse_formula, src, _table=table)
        assert time.perf_counter() - start < 1
        assert got == expected(20000)


@pytest.mark.parametrize("src", ["p -> q r", "(p -> q r) -> p", "x:(p -> q -> r r)",
                                 "p -> (q -> r", "p -> q -> r)"])
def test_failed_line_keys_nothing_false(src):
    # a consequent is keyed only when its context ends where its text ends
    table = syntax._Table(frozenset())
    want = outcome(reference_parse, src, frozenset(), syntax.Formula)
    for _ in range(2):
        assert outcome(parse_formula, src, frozenset(), _table=table) == want
