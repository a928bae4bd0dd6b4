"""Axiom matching, constant specifications, proof checking, file formats."""

import pickle
import random

import pytest

from jlogic import proof_system
from jlogic.generators import (
    env_seed,
    random_formula,
    random_schema_instance,
    random_term,
)
from jlogic.proof_system import (
    AXIOM_SCHEMAS,
    AXIOM_TAGS,
    AxiomNecessitation,
    AxiomRule,
    ConstantSpecification,
    FileFormatError,
    Hypothesis,
    ModusPonens,
    Proof,
    ProofStep,
    check_proof,
    first_axiom_tag,
    instantiate_schema,
    match_axiom,
    match_schema,
    parse_cs,
    parse_proof,
    print_cs,
    print_proof,
    schema_metavariables,
    with_hypotheses,
    HypothesisNotFound,
)
from jlogic.syntax import (
    And,
    App,
    Atom,
    Bang,
    Constant,
    Formula,
    Implies,
    Just,
    Or,
    ParseError,
    Sum,
    Term,
    Variable,
    _binary,
    _leaf,
    close_subformulas,
    formula_size,
    parse_formula,
    print_formula,
)

CS = ConstantSpecification.default_schematic()
p, q = Atom("p"), Atom("q")
x = Variable("x")


def F(src):
    return parse_formula(src, constants=CS.constants())


match_cases = [
    ("x:p -> p", {"J-T"}),
    ("x:(p -> q) -> (y:p -> x.y:q)", {"J-App"}),
    ("p -> q", set()),
    ("x:p -> x + y:p", {"J-Sum-L"}),
    ("y:p -> x + y:p", {"J-Sum-R"}),
    ("x:p -> !x:x:p", {"J-4"}),
    ("p -> q -> p", {"IPC-1"}),
    ("_|_ -> p", {"IPC-9"}),
    # one formula can instantiate two schemas
    ("p /\\ p -> p", {"IPC-4", "IPC-5"}),
    ("p -> p \\/ p", {"IPC-6", "IPC-7"}),
    # sum halves coincide when both summands justify the formula
    ("x:p -> x + x:p", {"J-Sum-L", "J-Sum-R"}),
]


@pytest.mark.parametrize("src,tags", match_cases)
def test_match_axiom(src, tags):
    assert match_axiom(F(src)) == frozenset(tags)


def test_every_schema_has_instances():
    env = {"A": p, "B": q, "C": Atom("r"), "t": x, "s": Variable("y")}
    for tag in AXIOM_TAGS:
        needed = {k: env[k] for k in schema_metavariables(tag)}
        inst = instantiate_schema(tag, needed)
        assert tag in match_axiom(inst)
        assert match_schema(tag, inst) is not None


def test_match_inverts_instantiate():
    # the matcher binds exactly the values the substitution put in
    rng = random.Random(env_seed() + 28)
    for tag in AXIOM_TAGS:
        for _ in range(40):
            env = {name: random_term(rng, rng.randrange(4)) if name in ("s", "t")
                   else random_formula(rng, rng.randrange(4))
                   for name in schema_metavariables(tag)}
            assert match_schema(tag, instantiate_schema(tag, env)) == env


def test_first_axiom_tag_order():
    # ties resolve to the earliest tag in the declared order
    assert first_axiom_tag(F("p /\\ p -> p")) == "IPC-4"
    assert first_axiom_tag(F("p -> q")) is None


# --- reference matcher -------------------------------------------------------
#
# The generic recursive matcher and the linear scans over the fourteen
# schemas that the compiled matchers and the shape index replace.


def reference_match(pat, tgt, env):
    if isinstance(pat, proof_system._MetaF):
        if not isinstance(tgt, Formula):
            return False
        bound = env.get(pat.name)
        if bound is None:
            env[pat.name] = tgt
            return True
        return bound == tgt
    if isinstance(pat, proof_system._MetaT):
        if not isinstance(tgt, Term):
            return False
        bound = env.get(pat.name)
        if bound is None:
            env[pat.name] = tgt
            return True
        return bound == tgt
    if type(pat) is not type(tgt):
        return False
    if isinstance(pat, (And, Or, Implies, App, Sum)):
        return (reference_match(pat.left, tgt.left, env)
                and reference_match(pat.right, tgt.right, env))
    if isinstance(pat, Just):
        return (reference_match(pat.term, tgt.term, env)
                and reference_match(pat.body, tgt.body, env))
    if isinstance(pat, Bang):
        return reference_match(pat.inner, tgt.inner, env)
    return pat == tgt


def reference_match_schema(tag, a):
    env = {}
    return env if reference_match(AXIOM_SCHEMAS[tag], a, env) else None


def reference_match_axiom(a):
    return frozenset(t for t in AXIOM_TAGS if reference_match_schema(t, a) is not None)


def reference_first_axiom_tag(a):
    for tag in AXIOM_TAGS:
        if reference_match_schema(tag, a) is not None:
            return tag
    return None


def reference_covers(cs, constant, a):
    return any(c == constant and reference_match_schema(tag, a) is not None
               for c, tag in cs.schematic) or any(
        c == constant and inst == a for c, inst in cs.explicit)


def positions(node, path=()):
    """Every (path, subformula or subterm) of a node, the node first."""
    yield path, node
    for name in node.__match_args__:
        child = getattr(node, name)
        if not isinstance(child, str):
            yield from positions(child, path + (name,))


def replace_at(node, path, new):
    if not path:
        return new
    fields = {name: getattr(node, name) for name in node.__match_args__}
    fields[path[0]] = replace_at(fields[path[0]], path[1:], new)
    return type(node)(**fields)


def near_miss(rng, a):
    """a with one subformula or subterm replaced by a random one."""
    path, old = rng.choice(list(positions(a)))
    if isinstance(old, Term):
        return replace_at(a, path, random_term(rng, 2))
    return replace_at(a, path, random_formula(rng, 2))


def differential_cases():
    rng = random.Random("matchers")
    for tag in AXIOM_TAGS:
        for _ in range(30):
            inst = random_schema_instance(rng, tag, rng.randrange(4))
            yield inst
            for _ in range(3):
                yield near_miss(rng, inst)
    for _ in range(300):
        yield random_formula(rng, 4)
        yield Implies(random_formula(rng, 3), random_formula(rng, 3))
    for tag in AXIOM_TAGS:  # a schema is an instance of itself
        yield AXIOM_SCHEMAS[tag]


EXPLICIT_CS = parse_cs(
    "c1 := ax IPC-1\nc2 := ax J-T\nc2 := ax IPC-4\nk := x:p -> p\n"
    "k := p -> q -> p\nc1 := y:q -> q\n"
)


def test_matchers_agree_with_reference():
    instances = 0
    for a in differential_cases():
        for tag in AXIOM_TAGS:
            assert match_schema(tag, a) == reference_match_schema(tag, a), (tag, a)
        tags = reference_match_axiom(a)
        instances += bool(tags)
        assert match_axiom(a) == tags, a
        assert first_axiom_tag(a) == reference_first_axiom_tag(a), a
        for cs in (CS, EXPLICIT_CS):
            for c in sorted(cs.constants() | {"c9", "k2"}):
                assert cs.covers(c, a) == reference_covers(cs, c, a), (c, a)
    assert instances > 14 * 30  # the near-misses include instances too


def test_matchers_try_only_candidate_shapes(monkeypatch):
    tried = []
    for tag, matcher in list(proof_system._MATCHERS.items()):
        monkeypatch.setitem(
            proof_system._MATCHERS, tag,
            lambda a, env, tag=tag, matcher=matcher: tried.append(tag) or matcher(a, env),
        )
    for src in ["p", "x:(p -> q)", "p -> q"]:
        assert first_axiom_tag(F(src)) is None
    assert tried == []
    assert first_axiom_tag(F("p -> q -> p")) == "IPC-1"
    assert tried == ["IPC-1"]


def test_metavariables_differ_from_atoms_and_variables():
    assert proof_system._MetaF("p") != Atom("p")
    assert Atom("p") != proof_system._MetaF("p")
    assert proof_system._MetaT("x") != Variable("x")
    assert proof_system._MetaF("A") == proof_system._MetaF("A")


@_binary
class Xor(Formula):  # node classes declared here alone, as a new one would be
    left: Formula
    right: Formula


@_leaf
class Witness(Term):
    name: str


def test_a_node_class_is_declared_once():
    # names built at run time, so that equal names are distinct objects
    w, v = (Witness("".join(["w", "1"])) for _ in range(2))
    r = Xor(Just(w, p), q)
    same = Xor(Just(v, p), q)
    assert r == same and hash(r) == hash(same) and r is not same
    assert r != Xor(Just(Variable("w1"), p), q) != Xor(Just(Witness("w2"), p), q)
    assert w == v != Variable("w1")
    assert pickle.loads(pickle.dumps(r)) == r
    assert close_subformulas([r]) == {r, Just(w, p), p, q}
    assert formula_size(r) == 4
    t, A, B = proof_system._MetaT("t"), proof_system._MetaF("A"), proof_system._MetaF("B")
    pat = Xor(Just(t, A), Xor(A, B))
    env = {"t": w, "A": p, "B": q}
    instance = proof_system._substitute(pat, env)
    assert instance == Xor(Just(v, p), Xor(p, q))
    bound = set()
    matcher = proof_system._compile(pat, bound)
    got = {}
    assert matcher(instance, got) and list(got) == ["t", "A", "B"] and got == env
    assert bound == {"t", "A", "B"}
    assert not matcher(Xor(Just(w, p), Xor(q, q)), {})  # A bound to p
    assert not matcher(Xor(Just(w, p), Implies(p, q)), {})
    assert not matcher(Implies(Just(w, p), Xor(p, q)), {})
    assert match_axiom(Implies(r, Implies(q, r))) == {"IPC-1"}
    assert first_axiom_tag(Implies(Xor(p, q), Xor(p, q))) is None


def test_schematic_cs_covers_all_schemas():
    assert CS.is_axiomatically_appropriate()
    for tag in AXIOM_TAGS:
        env = {k: {"A": p, "B": q, "C": Atom("r"), "t": x, "s": Variable("y")}[k]
               for k in schema_metavariables(tag)}
        inst = instantiate_schema(tag, env)
        c = CS.constant_for(inst)
        assert c is not None
        assert CS.covers(c, inst)


def test_constant_for_prefers_earliest_schema():
    # an IPC-4/IPC-5 overlap goes to the IPC-4 constant
    inst = F("p /\\ p -> p")
    assert CS.constant_for(inst) == CS.constant_for(F("p /\\ q -> p"))


def reference_constant_for(cs, a):
    """constant_for as first written: the constants of each matched tag,
    in AXIOM_TAGS order, sorted afresh on every call, then those listing a
    as an explicit instance."""
    tags = match_axiom(a)
    if not tags:
        return None
    for tag in AXIOM_TAGS:
        names = sorted(c for c, t in cs.schematic if t == tag)
        if tag in tags and names:
            return names[0]
    names = sorted(c for c, inst in cs.explicit if inst == a)
    return names[0] if names else None


def test_constant_for_matches_reference():
    """On random specifications with several constants per tag and per
    explicit instance, listed in random order, constant_for picks what the
    per-call sort picked."""
    rng = random.Random(env_seed() * 7919 + 31)
    for _ in range(60):
        names = [f"k{i}" for i in range(rng.randint(1, 12))]
        schematic = [(rng.choice(names), tag)
                     for tag in rng.sample(AXIOM_TAGS, rng.randint(0, 6))
                     for _ in range(rng.randint(1, 3))]
        instances = [random_schema_instance(rng, rng.choice(AXIOM_TAGS))
                     for _ in range(4)]
        explicit = [(rng.choice(names), inst)
                    for inst in instances for _ in range(rng.randint(1, 3))]
        rng.shuffle(schematic)
        rng.shuffle(explicit)
        cs = ConstantSpecification(tuple(schematic), tuple(explicit))
        queries = instances + [random_schema_instance(rng, tag) for tag in AXIOM_TAGS]
        queries.append(random_formula(rng, 3))
        for a in queries:
            assert cs.constant_for(a) == reference_constant_for(cs, a), (cs, a)


def test_explicit_cs_round_trip():
    text = "c1 := ax J-T\nkj := x:p -> p\n"
    cs = parse_cs(text)
    assert cs.covers("kj", F("x:p -> p"))
    assert not cs.covers("kj", F("y:p -> p"))
    assert cs.covers("c1", F("y:q -> q"))
    assert parse_cs(print_cs(cs)) == cs


def test_explicit_cs_rejects_non_axiom():
    with pytest.raises(FileFormatError) as exc:
        parse_cs("k1 := p -> q\n")
    assert exc.value.line == 1


def test_explicit_cs_not_appropriate():
    cs = parse_cs("c1 := ax IPC-1\n")
    assert not cs.is_axiomatically_appropriate()
    assert cs.constant_for(F("x:p -> p")) is None


ACCEPT = Proof(
    hypotheses=(Just(x, p),),
    steps=(
        ProofStep(Just(x, p), Hypothesis(0)),
        ProofStep(Implies(Just(x, p), p), AxiomRule("J-T")),
        ProofStep(p, ModusPonens(1, 0)),
    ),
)


def test_check_accepts():
    report = check_proof(ACCEPT, CS)
    assert report.ok
    assert str(report) == "accepted"
    assert ACCEPT.conclusion == p


def test_check_accepts_necessitation():
    c = CS.constant_for(F("x:p -> p"))
    pi = Proof((), (ProofStep(Just(Constant(c), F("x:p -> p")),
                              AxiomNecessitation(c)),))
    assert check_proof(pi, CS).ok


reject_cases = [
    # BadMP: major is not minor -> current
    (Proof((F("p -> q"), Atom("r")),
           (ProofStep(F("p -> q"), Hypothesis(0)),
            ProofStep(Atom("r"), Hypothesis(1)),
            ProofStep(q, ModusPonens(0, 1)))),
     2, "BadMP"),
    # BadAxiom: tag does not match the conclusion
    (Proof((), (ProofStep(F("p -> q"), AxiomRule("IPC-1")),)),
     0, "BadAxiom"),
    # NotInCS: wrong constant for the formula
    (Proof((), (ProofStep(Just(Constant("c1"), F("x:p -> p")),
                          AxiomNecessitation("c1")),)),
     0, "NotInCS"),
    # NotInCS: conclusion is not of the form c:A
    (Proof((), (ProofStep(p, AxiomNecessitation("c1")),)),
     0, "NotInCS"),
    # BadIndex: hypothesis index out of range
    (Proof((p,), (ProofStep(p, Hypothesis(3)),)),
     0, "BadIndex"),
    # BadIndex: step conclusion disagrees with the hypothesis
    (Proof((p,), (ProofStep(q, Hypothesis(0)),)),
     0, "BadIndex"),
    # BadIndex: forward modus ponens reference
    (Proof((p,), (ProofStep(p, ModusPonens(1, 1)),)),
     0, "BadIndex"),
]


@pytest.mark.parametrize("pi,step,code", reject_cases)
def test_check_rejects(pi, step, code):
    report = check_proof(pi, CS)
    assert not report.ok
    assert report.step == step
    assert report.code == code


def test_check_empty_proof_raises():
    with pytest.raises(ValueError):
        check_proof(Proof((), ()), CS)


def test_proof_file_round_trip():
    text = print_proof(ACCEPT)
    assert parse_proof(text, CS.constants()) == ACCEPT


def test_proof_file_comments_and_errors():
    text = """# leading comment
hypotheses:
  1. x:p
proof:
  1. x:p ; hyp 1
  2. x:p -> p ; ax J-T   # factivity
  3. p ; mp 2,1
"""
    assert parse_proof(text, CS.constants()) == ACCEPT
    with pytest.raises(FileFormatError) as exc:
        parse_proof(text.replace("2. x:p", "4. x:p"), CS.constants())
    assert exc.value.line == 6
    with pytest.raises(FileFormatError):
        parse_proof("proof:\n  1. p ; zz 1\n")
    with pytest.raises(FileFormatError):
        parse_proof("")


# a proof step and a CS entry are one formula each: never split at commas
@pytest.mark.parametrize("parse,text,line,message", [
    (parse_proof, "proof:\n  1. p -> ; ax IPC-1\n", 2,
     "line 2: bad formula: expected formula (at position 4)"),
    (parse_proof, "hypotheses:\n  1. x:p\n  2. (p\nproof:\n  1. x:p ; hyp 1\n", 3,
     "line 3: bad formula: expected ')' (at position 2)"),
    (parse_proof, "# comment\n\nproof:\n  1. p, q ; hyp 1\n", 4,
     "line 4: bad formula: unexpected character ',' (at position 1)"),
    (parse_cs, "c1 := ax J-T\nkb := x:p ->\n", 2,
     "line 2: bad formula: expected formula (at position 6)"),
    (parse_cs, "\n# c\nkb := p -> p, q -> q\n", 3,
     "line 3: bad formula: unexpected character ',' (at position 6)"),
    (parse_cs, "kb := x:p -> p   # J-T\nkc := p ?\n", 2,
     "line 2: bad formula: unexpected character '?' (at position 2)"),
    # section headers are whole lines, and steps come after one
    (parse_proof, "# comment\n\n  1. p ; hyp 1\nproof:\n", 3,
     "line 3: expected 'hypotheses:' or 'proof:'"),
    (parse_proof, "proof: 1. p ; hyp 1\n", 1,
     "line 1: expected 'hypotheses:' or 'proof:'"),
    (parse_proof, "hypotheses:\n  x:p\nproof:\n  1. x:p ; hyp 1\n", 2,
     "line 2: expected 'N. ...'"),
    (parse_proof, "proof:\n  1. p -> p ; ax IPC-1\n  p ; hyp 1\n", 3,
     "line 3: expected 'N. ...'"),
    # hypotheses are numbered from 1, and a proof has at least one step
    (parse_proof, "hypotheses:\n  2. p\nproof:\n  1. p ; hyp 1\n", 2,
     "line 2: expected hypothesis 1"),
    (parse_proof, "hypotheses:\n  1. p\n", 1, "line 1: proof has no steps"),
])
def test_proof_and_cs_file_bad_item(parse, text, line, message):
    with pytest.raises(FileFormatError) as exc:
        parse(text)
    assert (exc.value.line, str(exc.value)) == (line, message)


def test_instantiate_schema_missing_metavariable():
    with pytest.raises(ValueError, match=r"^missing metavariables for IPC-1: \['B'\]$"):
        instantiate_schema("IPC-1", {"A": Atom("p")})


# constant names are the lexer's identifiers that are not atoms
@pytest.mark.parametrize("name,ok", [
    ("kb", True), ("c1", True), ("k_B9", True), ("p", False), ("p12", False),
    ("Kb", False), ("1c", False), ("k b", False), ("k.b", False), ("", False),
])
def test_cs_constant_names(name, ok):
    text = f"{name} := ax J-T\n"
    if ok:
        assert parse_cs(text).constants() == frozenset({name})
    else:
        with pytest.raises(FileFormatError, match="bad constant name"):
            parse_cs(text)


@pytest.mark.parametrize("arg,ok", [
    ("kb", True), ("p", True), ("Kb", False), ("k b", False),
])
def test_cs_rule_names(arg, ok):
    text = f"proof:\n  1. p ; cs {arg}\n"
    if ok:
        assert parse_proof(text).steps[0].rule == AxiomNecessitation(arg)
    else:
        with pytest.raises(FileFormatError, match="bad rule"):
            parse_proof(text)


def test_with_hypotheses_remaps():
    widened = with_hypotheses(ACCEPT, (q, Just(x, p)))
    assert check_proof(widened, CS).ok
    assert widened.steps[0].rule == Hypothesis(1)
    with pytest.raises(HypothesisNotFound):
        with_hypotheses(ACCEPT, (q,))


# A line nested deeper than a recursive parser could go parses as it does
# alone, also after an earlier line whose groups it repeats: 300
# parentheses around p, where the earlier line has 200; a 600-long "->"
# chain followed by "-> (" the same chain ")"; and 200 unclosed
# parentheses before a group of 60, which fails at the end as it does
# alone.
DEEP = "(" * 200 + "p" + ")" * 200
CHAIN = " -> ".join(["p"] * 600)
GROUP = "(" * 60 + "p" + ")" * 60


@pytest.mark.parametrize("earlier,line,error", [
    (DEEP, "(" * 100 + DEEP + ")" * 100, None),
    (f"({CHAIN})", f"{CHAIN} -> ({CHAIN})", None),
    (GROUP, "(" * 200 + GROUP, "expected ')'"),
], ids=["parentheses", "chain", "unclosed"])
def test_nesting_limit_per_line(earlier, line, error):
    text = f"hypotheses:\n  1. {earlier}\n  2. {line}\nproof:\n  1. {line} ; hyp 2\n"
    if error is not None:
        with pytest.raises(ParseError) as alone:
            parse_formula(line)
        assert alone.value.message == error
        with pytest.raises(FileFormatError) as exc:
            parse_proof(text)
        assert (exc.value.line, exc.value.message) == (3, f"bad formula: {alone.value}")
        return
    want = parse_formula(line)
    pi = parse_proof(text)
    got = pi.hypotheses[1]
    assert got == want and pi.steps[0].conclusion is got
    assert print_formula(got, True) == print_formula(want, True)
