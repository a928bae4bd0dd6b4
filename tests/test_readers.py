"""The file readers share one parse table per call, so the lines of one
file share parsed subtrees.  Every line must still give what it gives
parsed alone: the same tree, or the same ParseError at the same position."""

import random
from importlib import resources

import pytest

from jlogic import proof_system, saturation, semantics
from jlogic.generators import (
    random_accepted_proof,
    random_formula,
    random_schema_instance,
    random_term,
    random_valid_model,
)
from jlogic.proof_system import (
    AXIOM_TAGS,
    ConstantSpecification,
    FileFormatError,
    ModusPonens,
    deduce,
    internalize,
    parse_cs,
    parse_proof,
    print_cs,
    print_proof,
)
from jlogic.saturation import parse_universe
from jlogic.semantics import parse_model, print_model
from jlogic.syntax import (
    Implies,
    ParseError,
    Variable,
    formula_terms,
    parse_formula,
    print_formula,
)

CS = ConstantSpecification.default_schematic()
CONSTANTS = CS.constants()

# what a one-character corruption inserts or writes over a character
PIECES = "()!.+:,;|-> \\/_x1pc"


def corruptions(text, rng, n=2):
    """n copies of text, each with one character deleted, replaced or
    inserted."""
    out = []
    for _ in range(n):
        chars = list(text)
        i = rng.randrange(len(chars))
        edit = rng.randrange(3)
        if edit == 0:
            del chars[i]
        elif edit == 1:
            chars[i] = rng.choice(PIECES)
        else:
            chars.insert(i, rng.choice(PIECES))
        out.append("".join(chars))
    return out


def internalized(pi):
    """internalize(pi) with fresh variables as the hypotheses' witnesses."""
    used = {str(t) for st in pi.steps for t in formula_terms(st.conclusion)}
    fresh = [Variable(f"v{i}") for i in range(len(pi.hypotheses) + len(used))
             if f"v{i}" not in used][:len(pi.hypotheses)]
    return internalize(pi, tuple(fresh), CS)[1]


def proof_files(seeds):
    """Printed accepted proofs with their deduce and internalize outputs."""
    for seed in seeds:
        rng = random.Random(seed)
        pi = random_accepted_proof(rng, CS, max_hyps=3)
        yield print_proof(pi)
        yield print_proof(deduce(pi, pi.hypotheses[rng.randrange(len(pi.hypotheses))]))
        yield print_proof(internalized(pi))


def model_files(seeds):
    for seed in seeds:
        rng = random.Random(seed)
        universe = [random_formula(rng, 3) for _ in range(12)]
        terms = [random_term(rng, 2) for _ in range(3)]
        yield print_model(random_valid_model(rng, universe, terms, CS, max_worlds=3))


def cs_files(seeds):
    for seed in seeds:
        rng = random.Random(seed)
        lines = [f"c{i + 1} := ax {tag}" for i, tag in enumerate(AXIOM_TAGS) if rng.random() < 0.5]
        instances = [random_schema_instance(rng, rng.choice(AXIOM_TAGS), 2) for _ in range(4)]
        # an instance twice, and once inside the next, so lines share groups
        instances += [instances[0], Implies(instances[0], instances[1])]
        text = "\n".join(lines) + "\n"
        yield text + "".join(f"k{j} := {print_formula(a)}\n" for j, a in enumerate(instances))


UNIVERSE_FILES = sorted(
    (f.name, f.read_text()) for f in resources.files("jlogic").joinpath("universes").iterdir()
    if f.name.endswith(".txt"))


@pytest.fixture
def seen(monkeypatch):
    """(parser, text, constants, node or ParseError) for every line the
    readers parse, in order."""
    lines = []

    def spy(real):
        def parse(src, constants, *, _table):
            try:
                node = real(src, constants, _table=_table)
            except ParseError as e:
                lines.append((real, src, constants, e))
                raise
            lines.append((real, src, constants, node))
            return node
        return parse

    for module in (proof_system, semantics, saturation):
        for name in ("parse_formula", "parse_term"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(getattr(module, name)))
    return lines


def read_all(read, texts, seen):
    """Read each text and its corruptions; check every line the reader
    parsed against the same line parsed alone."""
    rng = random.Random(len(texts))
    checked = 0
    for text in texts:
        for variant in [text, *corruptions(text, rng)]:
            del seen[:]
            try:
                read(variant)
            except FileFormatError as e:
                if isinstance(e.__cause__, ParseError):
                    assert seen[-1][3] is e.__cause__
                    assert str(e).endswith(str(e.__cause__))
            for real, src, constants, got in seen:
                try:
                    want = real(src, constants)
                except ParseError as e:
                    want = e
                if isinstance(want, ParseError):
                    assert isinstance(got, ParseError), src
                    assert (got.message, got.pos) == (want.message, want.pos), src
                else:
                    assert got == want, src
                    assert print_formula(got, True) == print_formula(want, True), src
                checked += 1
    return checked


def test_proof_reader_matches_lines_alone(seen):
    texts = list(proof_files(range(120)))
    assert read_all(lambda t: parse_proof(t, CONSTANTS), texts, seen) > 5000


def test_model_reader_matches_lines_alone(seen):
    texts = list(model_files(range(25)))
    assert read_all(parse_model, texts, seen) > 1000


def test_universe_reader_matches_lines_alone(seen):
    texts = [text for _, text in UNIVERSE_FILES]
    assert read_all(parse_universe, texts, seen) > 50


def test_cs_reader_matches_lines_alone(seen):
    texts = [print_cs(CS), *cs_files(range(40))]
    assert read_all(parse_cs, texts, seen) > 200


def mp_sharing(pi):
    """Read pi back from its printed form and return, over its MP steps,
    how many there are and how many have a parenthesized antecedent.  That
    antecedent is the very node of the minor's conclusion, and the
    consequent always the very node of the step's conclusion."""
    back = parse_proof(print_proof(pi), CONSTANTS)
    shared = mps = 0
    for step in back.steps:
        rule = step.rule
        if isinstance(rule, ModusPonens):
            major = back.steps[rule.major].conclusion
            minor = back.steps[rule.minor].conclusion
            assert major.left == minor
            assert major.right is step.conclusion
            mps += 1
            if isinstance(minor, Implies):  # printed in parentheses in major
                assert major.left is minor
                shared += 1
    return mps, shared


def test_deduced_proof_shares_nodes():
    rng = random.Random(7)
    pi = random_accepted_proof(rng, CS, max_hyps=3)
    mps, shared = mp_sharing(deduce(pi, pi.hypotheses[0]))
    assert mps > 0 and shared > 0


def test_internalized_proof_shares_nodes():
    rng = random.Random(7)
    mps, _ = mp_sharing(internalized(random_accepted_proof(rng, CS, max_hyps=3)))
    assert mps > 0


def test_file_lines_share_subtrees():
    pi = parse_proof("proof:\n  1. p -> q ; ax IPC-1\n  2. (p -> q) -> r ; ax IPC-1\n"
                     "  3. x:(p -> q) \\/ p ; ax IPC-1\n")
    a, b, c = (step.conclusion for step in pi.steps)
    assert b.left is a and c.left.body is a and c.right is a.left
    # a table lives for one call: a second call builds its own nodes
    again = parse_proof("proof:\n  1. p -> q ; ax IPC-1\n").steps[0].conclusion
    assert again == a and again is not a
    # the consequent of "->" is keyed too, at the top of a line and in a group
    pi = parse_proof("proof:\n  1. p -> q -> r ; ax IPC-1\n  2. q -> r ; ax IPC-1\n"
                     "  3. (p -> q -> r) -> p ; ax IPC-1\n  4. (p1 -> q -> r) -> q -> r"
                     " ; ax IPC-1\n")
    a, b, c, d = (step.conclusion for step in pi.steps)
    assert b is a.right and c.left is a
    assert d.left.right is b and d.right is b


@pytest.mark.parametrize("earlier,line", [
    ("(xy):p", "(x y):p"),  # token boundaries are part of a key
    ("(p -> q)", "x.(p -> q):p"),  # a formula group is no term
    ("x.(y):p", "(y) -> p"),  # a term group is no formula
    # the earlier line keys the consequent "r -> q"; the later one fails
    # elsewhere: an unclosed group, or a token after the consequent
    ("p -> r -> q", "(p -> r -> q"),
    ("p -> r -> q", "p -> (r -> q"),
    ("p -> r -> q", "(p -> r -> q) r"),
    ("p -> r -> q", "p -> r -> q r"),
    ("p -> r -> q", "p -> r -> q)"),
])
def test_table_hits_only_the_same_tokens_and_sort(earlier, line):
    text = f"proof:\n  1. {earlier} ; ax J-T\n  2. {line} ; ax J-T\n"
    with pytest.raises(ParseError) as alone:
        parse_formula(line, CONSTANTS)
    with pytest.raises(FileFormatError) as exc:
        parse_proof(text, CONSTANTS)
    assert str(exc.value) == f"line 3: bad formula: {alone.value}"
