"""Finite countermodel search: refutations for non-theorems, silence for
axioms, and the validity gate on everything returned."""

import itertools

import pytest

from jlogic import semantics
from jlogic.cli import main
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


def test_closures_are_built_lazily(monkeypatch):
    # the first candidate at one world (no atoms true, no seeds) refutes
    # the goal, so the search closes one seed assignment, not every one
    # within the budget, before validate_model closes the model it returns
    closes, at_validation = [], []
    real_close, real_validate = semantics._close, semantics.validate_model

    def counting_close(*args):
        closes.append(args)
        return real_close(*args)

    def counting_validate(m):
        at_validation.append(len(closes))
        return real_validate(m)

    monkeypatch.setattr(semantics, "_close", counting_close)
    monkeypatch.setattr(semantics, "validate_model", counting_validate)
    found = find_countermodel(parse_formula("x:" * 22 + "p"), 1)
    assert found is not None and found.world == "w0"
    assert at_validation == [1]


def test_invalid_result_is_an_error(monkeypatch):
    bad = semantics.CheckVerdict(False, ())
    monkeypatch.setattr(semantics, "validate_model", lambda m: bad)
    with pytest.raises(AssertionError):
        find_countermodel(parse_formula("p"), 1)


def test_negative_evidence_budget_is_an_error():
    with pytest.raises(ValueError):
        find_countermodel(parse_formula("p"), 1, evidence_budget=-1)


# --- enumeration ---------------------------------------------------------------


def reference_posets(n):
    """Brute force: every relation on n elements that is a partial order,
    in the least labelling by code sum of 1 << (i * n + j) over (i, j),
    sorted by that code."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    perms = list(itertools.permutations(range(n)))

    def code(rel):
        return sum(1 << (i * n + j) for (i, j) in rel)

    seen = {}
    for bits in range(1 << len(pairs)):
        rel = {(i, i) for i in range(n)}
        rel |= {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        if any((b, a) in rel and a != b for (a, b) in rel):
            continue
        if any((a, d) not in rel for (a, b) in rel for (c, d) in rel if b == c):
            continue
        best = min(code({(p[i], p[j]) for (i, j) in rel}) for p in perms)
        seen[best] = frozenset(
            (i, j) for i in range(n) for j in range(n) if best >> (i * n + j) & 1
        )
    return [seen[c] for c in sorted(seen)]


def relation(n, up):
    return frozenset((i, j) for i in range(n) for j in range(n) if up[i] >> j & 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_posets_match_brute_force(n):
    got = [relation(n, up) for up, *_ in semantics._canonical_posets(n)]
    assert got == reference_posets(n)


def test_poset_counts():
    # unlabelled posets on 1..5 elements (OEIS A000112)
    counts = [len(semantics._canonical_posets(n)) for n in range(1, 6)]
    assert counts == [1, 2, 5, 16, 63]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_upsets_and_minima_match_definitions(n):
    for up, upsets, minima, costs in semantics._canonical_posets(n):
        rel = relation(n, up)
        closed = [
            s for s in range(1 << n)
            if all(s >> j & 1 for (i, j) in rel if s >> i & 1)
        ]
        assert list(upsets) == closed
        for s, low, cost in zip(upsets, minima, costs):
            members = [i for i in range(n) if s >> i & 1]
            assert list(low) == [
                i for i in members
                if not any((j, i) in rel for j in members if j != i)
            ]
            assert cost == len(low)


@pytest.mark.parametrize("costs", [(0,), (0, 1), (0, 1, 2, 1), (1, 2, 1, 0, 3)])
def test_seed_assignments_match_filtered_product(costs):
    for k in range(4):
        for budget in range(4):
            expected = [
                combo for combo in itertools.product(range(len(costs)), repeat=k)
                if sum(costs[s] for s in combo) <= budget
            ]
            assert list(semantics._seed_assignments(costs, k, budget)) == expected


DUMMETT = """# false at: w0
worlds: w0 w1 w2
order:
  w0 <= w1
  w0 <= w2
atoms:
  w1: p
  w2: q
formulas: (p -> q) \\/ (q -> p), p, p -> q, q, q -> p
"""

EVIDENCE_OR = """# false at: w0
worlds: w0
atoms:
  w0: q
evidence:
  w0 | x | p \\/ q
terms: x
formulas: p, p \\/ q, q, x:(p \\/ q), x:(p \\/ q) -> x:p \\/ x:q, x:p, x:p \\/ x:q, x:q
"""


@pytest.mark.parametrize("src, expected", [
    ("(p -> q) \\/ (q -> p)", DUMMETT),
    ("x:(p \\/ q) -> x:p \\/ x:q", EVIDENCE_OR),
])
def test_countermodel_stdout_pinned(capsys, src, expected):
    assert main(["countermodel", src, "--max-worlds", "3"]) == 0
    assert capsys.readouterr().out == expected
