"""Finite countermodel search: refutations for non-theorems, silence for
axioms, and the validity gate on everything returned."""

import pytest

from jlogic import semantics
from jlogic.proof_system import ConstantSpecification
from jlogic.semantics import (
    evaluate_truth,
    find_countermodel,
    validate_model,
)
from jlogic.syntax import parse_formula

CS = ConstantSpecification.default_schematic()


def test_excluded_middle_two_worlds():
    lem = parse_formula("p \\/ (p -> _|_)")
    found = find_countermodel(lem, 2)
    assert found is not None
    m, w = found.model, found.world
    assert len(m.worlds) <= 2
    assert validate_model(m).ok
    assert not evaluate_truth(m, w, lem)
    # deterministic first hit: the two-world chain with p above only
    assert m.worlds == ("w0", "w1")
    assert ("w0", "w1") in m.order
    assert m.atoms["w0"] == frozenset()
    assert m.atoms["w1"] == frozenset({"p"})
    assert w == "w0"


def test_peirce_three_worlds():
    peirce = parse_formula("((p -> q) -> p) -> p")
    found = find_countermodel(peirce, 3)
    assert found is not None
    assert len(found.model.worlds) <= 3
    assert validate_model(found.model).ok
    assert not evaluate_truth(found.model, found.world, peirce)


def test_double_negation_elimination_refuted():
    dne = parse_formula("((p -> _|_) -> _|_) -> p")
    found = find_countermodel(dne, 2)
    assert found is not None
    assert not evaluate_truth(found.model, found.world, dne)


refutable = [
    "p",
    "p \\/ (p -> _|_)",
    "((p -> q) -> p) -> p",
    "x:p",
    "p -> x:p",
    "x:p \\/ (x:p -> _|_)",
]


@pytest.mark.parametrize("src", refutable)
def test_found_models_pass_the_gate(src):
    a = parse_formula(src)
    found = find_countermodel(a, 2)
    assert found is not None
    assert validate_model(found.model).ok
    assert not evaluate_truth(found.model, found.world, a)


axiom_instances = [
    "x:(p -> q) -> (y:p -> x.y:q)",  # application
    "x:p -> x + y:p",                # left sum
    "y:p -> x + y:p",                # right sum
    "x:p -> p",                      # factivity
    "x:p -> !x:x:p",                 # introspection
]


@pytest.mark.parametrize("src", axiom_instances)
def test_evidence_axioms_have_no_countermodel(src):
    # small bound keeps this quick; the acceptance suite raises it
    assert find_countermodel(parse_formula(src), 2) is None


def test_intuitionistic_theorems_have_no_countermodel():
    for src in ["p -> p", "_|_ -> p", "p -> q -> p", "p /\\ q -> p"]:
        assert find_countermodel(parse_formula(src), 2) is None


def test_search_is_deterministic():
    a = parse_formula("(p -> q) \\/ (q -> p)")
    first = find_countermodel(a, 3)
    second = find_countermodel(a, 3)
    assert first is not None
    assert first.world == second.world
    assert first.model == second.model


def test_evidence_budget_zero_still_refutes_propositional():
    lem = parse_formula("p \\/ (p -> _|_)")
    found = find_countermodel(lem, 2, evidence_budget=0)
    assert found is not None


@pytest.mark.parametrize("src, calls", [
    ("x:(p -> q) -> y:p -> x.y:q", 0),  # theorem: nothing to return
    ("x:p -> p", 0),                    # false only where not factive
    ("p \\/ (p -> _|_)", 1),            # only the returned model
])
def test_search_validates_only_the_result(monkeypatch, src, calls):
    seen = []
    real = semantics.validate_model

    def counting(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(semantics, "validate_model", counting)
    find_countermodel(parse_formula(src), 2)
    assert len(seen) == calls


def test_invalid_result_is_an_error(monkeypatch):
    bad = semantics.CheckVerdict(False, ())
    monkeypatch.setattr(semantics, "validate_model", lambda m: bad)
    with pytest.raises(AssertionError):
        find_countermodel(parse_formula("p"), 1)
