"""Deduction, internalization, and bounded search: the constructive
transformations and their contracts over randomized proofs."""

import hashlib
import random
import sys

import pytest
from hypothesis import given, strategies as st

from jlogic import proof_system

from jlogic.generators import (
    random_accepted_proof,
    random_schema_instance,
)
from jlogic.proof_system import (
    AXIOM_TAGS,
    MAX_DEPTH,
    AxiomNecessitation,
    AxiomRule,
    ConstantSpecification,
    Derivable,
    Hypothesis,
    ModusPonens,
    NotAppropriate,
    Proof,
    ProofStep,
    UnknownAtBound,
    bounded_derive,
    check_proof,
    deduce,
    internalize,
    match_axiom,
    parse_cs,
    print_proof,
    with_hypotheses,
)
from jlogic.syntax import (
    FALSUM,
    And,
    App,
    Atom,
    Bang,
    Constant,
    Implies,
    Just,
    Or,
    Variable,
    close_subformulas,
    formula_key,
    formula_terms,
    parse_formula,
)

CS = ConstantSpecification.default_schematic()
p, q, r = Atom("p"), Atom("q"), Atom("r")
x, y = Variable("x"), Variable("y")


def F(src):
    return parse_formula(src, constants=CS.constants())


# --- deduce -----------------------------------------------------------------


def test_deduce_discharges_used_hypothesis():
    pi = Proof(
        (Implies(p, q), p),
        (
            ProofStep(Implies(p, q), Hypothesis(0)),
            ProofStep(p, Hypothesis(1)),
            ProofStep(q, ModusPonens(0, 1)),
        ),
    )
    out = deduce(pi, p)
    assert check_proof(out, CS).ok
    assert out.hypotheses == (Implies(p, q),)
    assert out.conclusion == Implies(p, q)


def test_deduce_vacuous_hypothesis():
    ax = F("p -> q -> p")
    pi = Proof((), (ProofStep(ax, AxiomRule("IPC-1")),))
    out = deduce(pi, r)
    assert check_proof(out, CS).ok
    assert out.hypotheses == ()
    assert out.conclusion == Implies(r, ax)


def test_deduce_identity():
    pi = Proof((p,), (ProofStep(p, Hypothesis(0)),))
    out = deduce(pi, p)
    assert check_proof(out, CS).ok
    assert out.hypotheses == ()
    assert out.conclusion == Implies(p, p)


def test_deduce_removes_duplicate_occurrences():
    pi = Proof((p, p), (ProofStep(p, Hypothesis(1)),))
    out = deduce(pi, p)
    assert check_proof(out, CS).ok
    assert out.hypotheses == ()
    assert out.conclusion == Implies(p, p)


@pytest.mark.parametrize("seed", range(25))
def test_deduce_random(seed):
    rng = random.Random(seed)
    for _ in range(4):
        pi = random_accepted_proof(rng, CS)
        i = rng.randrange(len(pi.hypotheses))
        a = pi.hypotheses[i]
        out = deduce(pi, a)
        assert check_proof(out, CS).ok
        assert out.conclusion == Implies(a, pi.conclusion)
        assert a not in out.hypotheses
        assert tuple(h for h in pi.hypotheses if h != a) == out.hypotheses


# --- internalize ------------------------------------------------------------


def test_internalize_hypothesis():
    pi = Proof((p,), (ProofStep(p, Hypothesis(0)),))
    t, out = internalize(pi, (x,), CS)
    assert t == x
    assert check_proof(out, CS).ok
    assert out.hypotheses == (Just(x, p),)
    assert out.conclusion == Just(x, p)


def test_internalize_modus_ponens():
    pi = Proof(
        (Implies(p, q), p),
        (
            ProofStep(Implies(p, q), Hypothesis(0)),
            ProofStep(p, Hypothesis(1)),
            ProofStep(q, ModusPonens(0, 1)),
        ),
    )
    t, out = internalize(pi, (x, y), CS)
    assert t == App(x, y)
    assert check_proof(out, CS).ok
    assert out.conclusion == Just(App(x, y), q)
    assert out.hypotheses == (Just(x, Implies(p, q)), Just(y, p))


def test_internalize_necessitation():
    a = F("x:p -> p")
    c = CS.constant_for(a)
    pi = Proof((), (ProofStep(Just(Constant(c), a), AxiomNecessitation(c)),))
    t, out = internalize(pi, (), CS)
    assert str(t) == f"!{c}"
    assert check_proof(out, CS).ok
    assert out.conclusion == parse_formula(f"!{c}:{c}:(x:p -> p)",
                                           constants=CS.constants())


def test_internalize_not_appropriate():
    cs = parse_cs("c1 := ax IPC-1\n")
    pi = Proof((), (ProofStep(F("x:p -> p"), AxiomRule("J-T")),))
    with pytest.raises(NotAppropriate):
        internalize(pi, (), cs)


def test_internalize_witness_count_mismatch():
    pi = Proof((p,), (ProofStep(p, Hypothesis(0)),))
    with pytest.raises(ValueError):
        internalize(pi, (), CS)


def test_internalize_rejected_proof():
    pi = Proof((), (ProofStep(p, AxiomRule("IPC-1")),))
    with pytest.raises(ValueError, match="^input proof does not check: "
                       "rejected at step 1: BadAxiom "):
        internalize(pi, (), CS)


@pytest.mark.parametrize("seed", range(25))
def test_internalize_random(seed):
    rng = random.Random(1000 + seed)
    for _ in range(4):
        pi = random_accepted_proof(rng, CS, max_hyps=3)
        used = {str(t) for st in pi.steps for t in formula_terms(st.conclusion)}
        fresh, i = [], 0
        while len(fresh) < len(pi.hypotheses):
            name = f"v{i}"
            if name not in used:
                fresh.append(Variable(name))
            i += 1
        t, out = internalize(pi, tuple(fresh), CS)
        assert check_proof(out, CS).ok
        assert out.conclusion == Just(t, pi.conclusion)
        assert out.hypotheses == tuple(
            Just(w, h) for w, h in zip(fresh, pi.hypotheses)
        )


def test_deduce_then_internalize_compose():
    # M u {A} |- B  ~>  M |- A -> B  ~>  s:M |- t:(A -> B)
    pi = Proof(
        (Implies(p, q), p),
        (
            ProofStep(Implies(p, q), Hypothesis(0)),
            ProofStep(p, Hypothesis(1)),
            ProofStep(q, ModusPonens(0, 1)),
        ),
    )
    mid = deduce(pi, p)
    t, out = internalize(mid, (x,), CS)
    assert check_proof(out, CS).ok
    assert out.conclusion == Just(t, Implies(p, q))


# --- bounded_derive ---------------------------------------------------------


def test_bounded_derive_factivity():
    result = bounded_derive(frozenset({Just(x, p)}), p, CS, 2)
    assert isinstance(result, Derivable)
    assert check_proof(result.proof, CS).ok
    assert result.proof.conclusion == p


def test_bounded_derive_hypothesis_at_zero():
    result = bounded_derive(frozenset({q}), q, CS, 0)
    assert isinstance(result, Derivable)
    assert result.proof.conclusion == q


def test_bounded_derive_constant_at_zero():
    # c1 covers IPC-1 in the schematic CS, so one cs step proves c1:A
    result = bounded_derive((), F("c1:(p -> q -> p)"), CS, 0)
    assert isinstance(result, Derivable)
    assert print_proof(result.proof) == "proof:\n  1. c1:(p -> q -> p) ; cs c1\n"
    assert check_proof(result.proof, CS).ok
    assert bounded_derive((), F("c2:(p -> q -> p)"), CS, 0) == UnknownAtBound(0)


def test_bounded_derive_peirce_unknown():
    peirce = F("((p -> q) -> p) -> p")
    result = bounded_derive(frozenset(), peirce, CS, 3)
    assert isinstance(result, UnknownAtBound)
    assert result.bound == 3


def test_bounded_derive_implication_intro():
    result = bounded_derive(frozenset(), Implies(p, p), CS, 1)
    assert isinstance(result, Derivable)
    assert check_proof(result.proof, CS).ok


def test_bounded_derive_application():
    hyps = frozenset({F("x:(p -> q)"), F("y:p")})
    result = bounded_derive(hyps, F("x.y:q"), CS, 3)
    assert isinstance(result, Derivable)
    assert check_proof(result.proof, CS).ok
    assert result.proof.conclusion == F("x.y:q")


def test_bounded_derive_depth_ceiling():
    # p -> q is no theorem, and its search descends the whole bound
    goal = Implies(p, q)
    assert bounded_derive(frozenset(), goal, CS, MAX_DEPTH) == UnknownAtBound(MAX_DEPTH)
    with pytest.raises(ValueError):
        bounded_derive(frozenset(), goal, CS, MAX_DEPTH + 1)


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_bounded_derive_one_frame_per_unit_of_depth():
    # the whole bound fits in MAX_DEPTH frames past the caller's, and a
    # few for bounded_derive and the steps that a frame calls
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + MAX_DEPTH + 50)
    try:
        result = bounded_derive(frozenset(), Implies(p, q), CS, MAX_DEPTH)
    finally:
        sys.setrecursionlimit(limit)
    assert result == UnknownAtBound(MAX_DEPTH)


def test_bounded_derive_monotone_in_bound():
    cases = [
        (frozenset({Just(x, p)}), p, 2),
        (frozenset(), Implies(p, p), 1),
        (frozenset({q}), q, 0),
    ]
    for hyps, goal, k in cases:
        assert isinstance(bounded_derive(hyps, goal, CS, k), Derivable)
        assert isinstance(bounded_derive(hyps, goal, CS, k + 1), Derivable)
        assert isinstance(bounded_derive(hyps, goal, CS, k + 2), Derivable)


def test_bounded_derive_respects_hypothesis_order():
    hyps = frozenset({F("x:(p -> q)"), F("y:p")})
    result = bounded_derive(hyps, F("x.y:q"), CS, 3)
    assert set(result.proof.hypotheses) <= hyps


PINNED_PROOFS = [
    (("x:(p -> q)", "y:p"), "x.y:q", 3, """\
hypotheses:
  1. x:(p -> q)
  2. y:p
proof:
  1. x.y:q -> (x.y:q -> x.y:q) -> x.y:q ; ax IPC-1
  2. (x.y:q -> (x.y:q -> x.y:q) -> x.y:q) -> (x.y:q -> x.y:q -> x.y:q) -> x.y:q -> x.y:q ; ax IPC-2
  3. (x.y:q -> x.y:q -> x.y:q) -> x.y:q -> x.y:q ; mp 2,1
  4. x.y:q -> x.y:q -> x.y:q ; ax IPC-1
  5. x.y:q -> x.y:q ; mp 3,4
  6. x:(p -> q) -> y:p -> x.y:q ; ax J-App
  7. x:(p -> q) ; hyp 1
  8. y:p -> x.y:q ; mp 6,7
  9. y:p ; hyp 2
  10. x.y:q ; mp 8,9
  11. x.y:q ; mp 5,10
"""),
    # modus ponens inversion twice, hypotheses out of printed order
    (("q -> r", "p -> q", "p"), "r", 2, """\
hypotheses:
  1. q -> r
  2. p -> q
  3. p
proof:
  1. q -> r ; hyp 1
  2. p -> q ; hyp 2
  3. p ; hyp 3
  4. q ; mp 2,3
  5. r ; mp 1,4
"""),
    # introduction, then inversion under the introduced hypothesis
    (("q -> r", "p -> q"), "p -> r", 3, """\
hypotheses:
  1. q -> r
  2. p -> q
proof:
  1. q -> r ; hyp 1
  2. (q -> r) -> p -> q -> r ; ax IPC-1
  3. p -> q -> r ; mp 2,1
  4. p -> q ; hyp 2
  5. (p -> q) -> p -> p -> q ; ax IPC-1
  6. p -> p -> q ; mp 5,4
  7. p -> (p -> p) -> p ; ax IPC-1
  8. (p -> (p -> p) -> p) -> (p -> p -> p) -> p -> p ; ax IPC-2
  9. (p -> p -> p) -> p -> p ; mp 8,7
  10. p -> p -> p ; ax IPC-1
  11. p -> p ; mp 9,10
  12. (p -> p -> q) -> (p -> p) -> p -> q ; ax IPC-2
  13. (p -> p) -> p -> q ; mp 12,6
  14. p -> q ; mp 13,11
  15. (p -> q -> r) -> (p -> q) -> p -> r ; ax IPC-2
  16. (p -> q) -> p -> r ; mp 15,3
  17. p -> r ; mp 16,14
"""),
]


@pytest.mark.parametrize("hyps, goal, k, text", PINNED_PROOFS)
def test_bounded_derive_proof_pinned(hyps, goal, k, text):
    result = bounded_derive(tuple(map(F, hyps)), F(goal), CS, k)
    assert print_proof(result.proof) == text


# SHA-256 of the printed 161-step proof of (p -> q) -> (q -> r) -> p -> r
LONG_PROOF_SHA256 = (
    "a18db4c1fb63e14aa7a9ab03fef7287bbaaa218b8fa2c6af31f8485c8268eca7"
)


def test_bounded_derive_long_proof_pinned():
    result = bounded_derive((), F("(p -> q) -> (q -> r) -> p -> r"), CS, 5)
    assert check_proof(result.proof, CS).ok
    assert len(result.proof.steps) == 161
    text = print_proof(result.proof).encode()
    assert hashlib.sha256(text).hexdigest() == LONG_PROOF_SHA256


terms = st.recursive(
    st.sampled_from([x, y, Constant("c1")]),
    lambda inner: st.one_of(st.builds(App, inner, inner), st.builds(Bang, inner)),
    max_leaves=4,
)

formulas = st.recursive(
    st.sampled_from([p, q, r, FALSUM]),
    lambda inner: st.one_of(
        st.builds(Implies, inner, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Just, terms, inner),
    ),
    max_leaves=8,
)


@given(st.lists(formulas, min_size=1, max_size=4), st.data())
def test_bounded_derive_goal_among_hypotheses(distinct, data):
    # drawn from a few formulas, so hypotheses repeat
    hyps = tuple(data.draw(st.lists(st.sampled_from(distinct), min_size=1,
                                    max_size=6)))
    goal = data.draw(st.sampled_from(hyps))
    pool = tuple(sorted(close_subformulas(set(hyps) | {goal}), key=formula_key))
    for k in (0, 4):
        searched = proof_system._search(pool, CS, frozenset(hyps), goal, k)
        assert bounded_derive(hyps, goal, CS, k) == Derivable(
            with_hypotheses(searched, hyps))
    for k in (-1, MAX_DEPTH + 1):
        with pytest.raises(ValueError):
            bounded_derive(hyps, goal, CS, k)


def test_bounded_derive_sorts_only_the_pool(monkeypatch):
    calls = []
    real_key = proof_system.formula_key

    def counting_key(a):
        calls.append(a)
        return real_key(a)

    monkeypatch.setattr(proof_system, "formula_key", counting_key)
    hyps = (F("q -> r"), F("p -> q"))
    goal = F("p -> r")
    assert isinstance(bounded_derive(hyps, goal, CS, 3), Derivable)
    assert len(calls) <= len(close_subformulas(set(hyps) | {goal}))


# --- schema agreement -------------------------------------------------------


@pytest.mark.parametrize("tag", AXIOM_TAGS)
def test_match_axiom_agreement(tag):
    rng = random.Random(f"agreement/{tag}")
    for _ in range(50):
        inst = random_schema_instance(rng, tag, 3)
        assert tag in match_axiom(inst)
