"""Derivability oracle, prime sets, saturation, canonical models, and the
shipped universe files."""

import hashlib
import itertools
import random
import tracemalloc
from importlib import resources

import pytest

from jlogic import proof_system, saturation
from jlogic.generators import env_seed, random_formula, random_term
from jlogic.proof_system import (
    ConstantSpecification,
    Derivable,
    UnknownAtBound,
    check_proof,
    print_proof,
    with_hypotheses,
)
from jlogic.semantics import (
    BasicEvaluation,
    Countermodel,
    evaluate_truth,
    falsifying_world,
    find_countermodel,
    print_model,
    validate_model,
)
from jlogic.saturation import (
    ORACLE_EVIDENCE_BUDGET,
    ORACLE_MAX_WORLDS,
    BoundedTheory,
    CapExceeded,
    DerivabilityOracle,
    FailedPrecondition,
    FormulaUniverse,
    PrimeVerdict,
    RefutedBySemantics,
    Unknown,
    bounded_canonical_model,
    check_prime,
    check_truth_lemma,
    inverse_evidence,
    parse_universe,
    prime_saturate,
    split_disjunction,
)
from jlogic.saturation import FileFormatError
from jlogic.syntax import (
    And,
    Atom,
    FALSUM,
    Implies,
    Just,
    Or,
    Variable,
    close_subformulas,
    close_subterms,
    formula_key,
    formula_terms,
    parse_formula,
    print_formula,
    print_term,
)

CS = ConstantSpecification.default_schematic()
p, q = Atom("p"), Atom("q")
x = Variable("x")


def members_of(th):
    return sorted(map(print_formula, th.members))


def shipped(name):
    root = resources.files("jlogic") / "universes"
    return parse_universe((root / name).read_text(), CS)


# --- oracle -----------------------------------------------------------------


def test_oracle_derivable():
    o = DerivabilityOracle(CS, 4)
    cert = o.query(frozenset({Just(x, p)}), p)
    assert isinstance(cert, Derivable)
    assert cert.proof.conclusion == p


def test_oracle_refutes_with_witness():
    o = DerivabilityOracle(CS, 4)
    hyps = frozenset({Implies(p, q)})
    cert = o.query(hyps, p)
    assert isinstance(cert, RefutedBySemantics)
    m, w = cert.countermodel.model, cert.countermodel.world
    assert validate_model(m).ok
    for h in hyps:
        assert evaluate_truth(m, w, h)
    assert not evaluate_truth(m, w, p)


def test_oracle_keeps_no_answers():
    o = DerivabilityOracle(CS, 4)
    first = o.query(frozenset(), Implies(p, p))
    assert isinstance(o.query(frozenset({Implies(p, q)}), p), RefutedBySemantics)
    assert isinstance(o.query(frozenset({q, p}), p), Derivable)
    assert vars(o) == {"cs": CS, "depth": 4}
    again = o.query(frozenset(), Implies(p, p))
    assert isinstance(again, Derivable) and again == first
    assert check_proof(again.proof, CS).ok


def counting(monkeypatch, name):
    """Replace saturation.<name> by a wrapper that records each call."""
    calls = []
    real = getattr(saturation, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(saturation, name, wrapper)
    return calls


def test_oracle_refutes_before_proving(monkeypatch):
    calls = counting(monkeypatch, "bounded_derive")
    o = DerivabilityOracle(CS, 4)
    assert isinstance(o.query(frozenset({Implies(p, q)}), p), RefutedBySemantics)
    assert calls == []  # a one-world countermodel settles it
    assert isinstance(o.query(frozenset({Just(x, p)}), p), Derivable)
    assert len(calls) == 1


def test_oracle_goal_among_hypotheses_skips_search(monkeypatch):
    calls = counting(monkeypatch, "find_countermodel")

    def no_search(*args):
        raise AssertionError("proof search for a goal among the hypotheses")

    monkeypatch.setattr(proof_system, "_search", no_search)
    cert = DerivabilityOracle(CS, 4).query(frozenset({q, p}), p)
    assert isinstance(cert, Derivable)
    assert check_proof(cert.proof, CS).ok
    assert cert.proof.conclusion == p
    assert calls == []


def test_witness_is_the_first_falsifying_world(monkeypatch):
    # both worlds make p true and q false; the witness is the first one
    # in m.worlds order, not in name order, nor the world the search named
    m = BasicEvaluation(("w1", "w0"), [("w1", "w1"), ("w0", "w0")],
                        {"w1": {"p"}, "w0": {"p"}})
    assert falsifying_world(m, [p, Implies(q, p)], q) == "w1"
    assert falsifying_world(m, [p], p) is None
    monkeypatch.setattr(saturation, "find_countermodel",
                        lambda *args: Countermodel(m, "w0"))
    cert = DerivabilityOracle(CS, 4).query(frozenset({p}), q)
    assert cert.countermodel.world == "w1"


def test_witness_missing_is_an_error(monkeypatch):
    # a model on which every world satisfies the sequent refutes nothing
    m = BasicEvaluation(("w0",), [("w0", "w0")], {"w0": {"p", "q"}})
    monkeypatch.setattr(saturation, "find_countermodel",
                        lambda *args: Countermodel(m, "w0"))
    with pytest.raises(AssertionError):
        DerivabilityOracle(CS, 4).query(frozenset({p}), q)


# --- split_disjunction ------------------------------------------------------


def test_split_left():
    assert split_disjunction(frozenset(), p, q, FALSUM, CS) == "left"


def test_split_right():
    n = frozenset({Implies(p, FALSUM)})
    assert split_disjunction(n, p, q, FALSUM, CS) == "right"


def test_split_tie_prefers_left():
    assert split_disjunction(frozenset(), p, p, And(p, q), CS) == "left"


def test_split_unknown_when_both_derive():
    # both branches reach the goal, so neither can be certified
    assert split_disjunction(frozenset(), p, q, Or(p, q), CS) == "unknown"


# --- check_prime ------------------------------------------------------------


def test_prime_positive():
    u = FormulaUniverse.from_formulas([Or(p, q)])
    th = BoundedTheory(u, frozenset({Or(p, q), p}), 4)
    assert check_prime(th, CS).status == "prime"


def test_prime_searches_only_outside_the_set(monkeypatch):
    # one countermodel search per formula outside the set, each settled
    # at one world; none for a member
    r = Atom("r")
    u = FormulaUniverse.from_formulas([Or(p, q), Just(x, p), Implies(q, r)])
    members = frozenset({Or(p, q), p, Implies(q, r)})
    calls = counting(monkeypatch, "find_countermodel")
    assert check_prime(BoundedTheory(u, members, 4), CS).status == "prime"
    goals = []
    for chain, worlds, *_ in calls:
        for _ in members:
            chain = chain.right
        goals.append((chain, worlds))
    assert goals == [(a, 1) for a in u if a not in members]


def test_prime_needs_disjunction_property():
    u = FormulaUniverse.from_formulas([Or(p, q)])
    th = BoundedTheory(u, frozenset({Or(p, q)}), 4)
    verdict = check_prime(th, CS)
    assert verdict.status == "not_prime"
    assert "disjunction" in verdict.reason


def test_prime_unknown_when_an_exclusion_was_unresolved():
    u = FormulaUniverse.from_formulas([Or(p, q)])
    unresolved = {(frozenset(), q): Unknown("no proof within the bound")}
    th = BoundedTheory(u, frozenset({Or(p, q)}), 4, unresolved)
    assert str(check_prime(th, CS)) == (
        "unknown: neither disjunct of p \\/ q is present and "
        "some exclusions were oracle-unresolved")


def test_prime_rejects_falsum():
    u = FormulaUniverse.from_formulas([FALSUM])
    th = BoundedTheory(u, frozenset({FALSUM}), 4)
    assert check_prime(th, CS).status == "not_prime"


def test_prime_needs_deductive_closure():
    # p in members forces p \/ q in members
    u = FormulaUniverse.from_formulas([Or(p, q)])
    th = BoundedTheory(u, frozenset({p}), 4)
    verdict = check_prime(th, CS)
    assert verdict.status == "not_prime"


# --- prime_saturate ---------------------------------------------------------


def test_saturate_disjunction_chooses():
    u = FormulaUniverse.from_formulas([Or(p, q), FALSUM])
    th = prime_saturate(frozenset({Or(p, q)}), FALSUM, u, CS, 4)
    assert Or(p, q) in th.members
    assert p in th.members or q in th.members
    assert FALSUM not in th.members
    assert check_prime(th, CS).status == "prime"


def test_saturate_avoiding_p_is_empty():
    u = FormulaUniverse.from_formulas([p])
    th = prime_saturate(frozenset(), p, u, CS, 4)
    assert th.members == frozenset()


def test_saturate_evidence_pulls_body():
    u = FormulaUniverse.from_formulas([Just(x, p), p])
    th = prime_saturate(frozenset({Just(x, p)}), FALSUM, u, CS, 4)
    assert {Just(x, p), p} <= th.members


def test_saturate_failed_precondition():
    u = FormulaUniverse.from_formulas([p])
    with pytest.raises(FailedPrecondition):
        prime_saturate(frozenset({p}), p, u, CS, 4)


def test_saturate_base_outside_universe():
    u = FormulaUniverse.from_formulas([p])
    with pytest.raises(ValueError):
        prime_saturate(frozenset({q}), FALSUM, u, CS, 4)


def test_saturate_trace_is_complete():
    spec = shipped("sat-disjunction.txt")
    th = prime_saturate(spec.base, spec.goal, spec.universe, CS, 4)
    assert [s.index for s in th.trace] == list(range(len(th.trace)))
    # every universe formula is considered exactly once
    assert sorted(map(print_formula, (s.candidate for s in th.trace))) == sorted(
        map(print_formula, spec.universe)
    )
    for s in th.trace:
        if s.certificate is None:
            assert s.added  # was already a member
        elif s.added:
            assert isinstance(s.certificate, RefutedBySemantics)
        else:
            assert not isinstance(s.certificate, RefutedBySemantics)


shipped_saturations = [
    ("sat-disjunction.txt", ["p", "p \\/ q", "q"]),
    ("sat-evidence.txt", ["p", "x:p"]),
    ("sat-peirce.txt", ["(p -> q) -> p"]),
    ("sat-application.txt",
     ["p", "p -> q", "q", "x.y:q", "x:(p -> q)", "y:p"]),
    ("sat-introspection.txt", ["!x:x:p", "p", "x + y:p", "x:p"]),
]


@pytest.mark.parametrize("name,expected", shipped_saturations)
def test_shipped_saturations(name, expected):
    spec = shipped(name)
    th = prime_saturate(spec.base, spec.goal, spec.universe, CS, 4)
    assert members_of(th) == expected
    assert check_prime(th, CS).status == "prime"
    assert not any(isinstance(c, Unknown) for c in th.certificates.values())
    assert spec.base <= th.members
    assert spec.goal not in th.members


# --- oracle differential ------------------------------------------------------


def proves(cert, hyps, goal):
    """cert is a proof of goal from hyps that checks."""
    pf = cert.proof
    return (check_proof(pf, CS).ok and pf.conclusion == goal
            and set(pf.hypotheses) <= hyps)


def holds(m, w, formulas):
    return all(evaluate_truth(m, w, a) for a in formulas)


def random_specs(seed, count, sizes):
    """count seeded random universes whose size is in sizes."""
    rng = random.Random(seed)
    kept = 0
    while kept < count:
        text = ", ".join(str(random_formula(rng, 2, variables=("x", "y")))
                         for _ in range(2))
        spec = parse_universe(f"universe: {text}\n", CS)
        if len(spec.universe) in sizes:
            kept += 1
            yield f"random: {text}", spec


def shipped_specs():
    root = resources.files("jlogic") / "universes"
    for path in sorted(root.iterdir(), key=lambda e: e.name):
        if path.name.endswith(".txt"):
            yield path.name, parse_universe(path.read_text(), CS)


def universe_specs():
    """The shipped universes and a seeded sample of small random ones."""
    yield from shipped_specs()
    # universes of up to six formulas keep this quick
    yield from random_specs("oracle-differential", 12, range(7))


def test_oracle_never_proves_and_refutes_one_sequent():
    """Every certificate of every saturation and primeness check re-checks;
    no derived sequent has a countermodel within two worlds, and no
    refuting model falsifies a derived sequent at any world."""
    derived = refuted = 0
    for name, spec in universe_specs():
        goal = spec.goal if spec.goal is not None else FALSUM
        try:
            th = prime_saturate(spec.base, goal, spec.universe, CS, 4)
        except FailedPrecondition:
            continue
        for step in th.trace:
            assert step.certificate is None or step.certificate in \
                th.certificates.values(), (name, step)
        check_prime(th, CS)
        proofs, models = [], []
        for (hyps, a), cert in th.certificates.items():
            if isinstance(cert, Derivable):
                assert proves(cert, hyps, a), (name, print_formula(a))
                proofs.append((hyps, a))
            elif isinstance(cert, RefutedBySemantics):
                m, w = cert.countermodel.model, cert.countermodel.world
                assert validate_model(m).ok, name
                assert holds(m, w, hyps) and not holds(m, w, [a]), (name, a)
                models.append(m)
        for hyps, a in proofs:
            chain = a
            for h in sorted(hyps, key=print_formula, reverse=True):
                chain = Implies(h, chain)
            found = find_countermodel(chain, 2)
            assert found is None or not validate_model(found.model).ok or holds(
                found.model, found.world, [chain]), (name, print_formula(chain))
            terms = close_subterms(formula_terms(chain))
            for m in models:
                if not terms <= m.term_universe:
                    continue  # the sequent cannot be evaluated in m
                for w in m.worlds:
                    if holds(m, w, hyps):
                        assert holds(m, w, [a]), (name, print_formula(a))
        derived += len(proofs)
        refuted += len(models)
    assert derived > 20 and refuted > 50


def searched_derive(hyps, goal, cs, k):
    """bounded_derive with no answer before the search: every sequent,
    a goal among the hypotheses too, goes through _search and
    with_hypotheses."""
    pool = tuple(sorted(close_subformulas(set(hyps) | {goal}), key=formula_key))
    proof = proof_system._search(pool, cs, frozenset(hyps), goal, k)
    if proof is None:
        return UnknownAtBound(k)
    return Derivable(with_hypotheses(proof, hyps))


def first_falsifying_world(m, hyps, goal):
    """The first world of m where every hypothesis holds and the goal
    fails, found by evaluate_truth one world and formula at a time."""
    return next(w for w in m.worlds
                if holds(m, w, hyps) and not evaluate_truth(m, w, goal))


def proof_first_query(self, hyps, goal):
    """DerivabilityOracle.query in the proof-first order: the proof
    search of searched_derive, then the countermodel search from one
    world up to ORACLE_MAX_WORLDS worlds, with no one-world search before
    the proof search, and the witness found by first_falsifying_world."""
    hyps = frozenset(hyps)
    ordered = tuple(sorted(hyps, key=formula_key))
    result = searched_derive(ordered, goal, self.cs, self.depth)
    if isinstance(result, Derivable):
        cert = result
    else:
        chain = goal
        for h in reversed(ordered):
            chain = Implies(h, chain)
        found = find_countermodel(
            chain, ORACLE_MAX_WORLDS, ORACLE_EVIDENCE_BUDGET, self.cs
        )
        if found is None:
            cert = Unknown(
                f"no proof at depth {self.depth}; no countermodel "
                f"within {ORACLE_MAX_WORLDS} worlds"
            )
        else:
            witness = first_falsifying_world(found.model, ordered, goal)
            cert = RefutedBySemantics(Countermodel(found.model, witness))
    return cert


def describe(cert):
    """A certificate as text: its kind and its proof, model and world, or
    reason."""
    if isinstance(cert, Derivable):
        return ("Derivable", print_proof(cert.proof))
    if isinstance(cert, RefutedBySemantics):
        cm = cert.countermodel
        return ("RefutedBySemantics", print_model(cm.model), cm.world)
    return ("Unknown", cert.reason)


def oracle_transcript(monkeypatch, query, specs):
    """Every oracle answer, in order, of saturating, checking and building
    the canonical model of each universe with query as the oracle, and
    the results of those operations."""
    log = []

    def recording(self, hyps, goal):
        cert = query(self, hyps, goal)
        log.append(("query", sorted(map(print_formula, hyps)),
                    print_formula(goal), describe(cert)))
        return cert

    monkeypatch.setattr(DerivabilityOracle, "query", recording)
    for name, spec in specs:
        goal = spec.goal if spec.goal is not None else FALSUM
        try:
            th = prime_saturate(spec.base, goal, spec.universe, CS, 4)
            log.append(("saturate", name, members_of(th), str(check_prime(th, CS))))
        except FailedPrecondition as e:
            log.append(("saturate", name, str(e)))
        cm = bounded_canonical_model(spec.universe, CS, 4)
        log.append(("canonical", name, print_model(cm.model),
                    sorted(sorted(map(print_formula, s)) for s in cm.excluded_unknown)))
    return log


def test_oracle_matches_proof_first_reference(monkeypatch):
    """Refuting at one world before the proof search changes no answer and
    no certificate."""
    specs = [*shipped_specs(),
             *random_specs("proof-first-reference", 16, range(3, 7))]
    # derivable in IPC, but its proof needs IPC-8, so the oracle says Unknown
    specs.append(("unknown", parse_universe("universe: _|_ \\/ q -> p -> q\n", CS)))
    new = oracle_transcript(monkeypatch, DerivabilityOracle.query, specs)
    reference = oracle_transcript(monkeypatch, proof_first_query, specs)
    assert new == reference
    kinds = {entry[3][0] for entry in new if entry[0] == "query"}
    assert kinds == {"Derivable", "RefutedBySemantics", "Unknown"}


# --- inverse_evidence -------------------------------------------------------


def test_inverse_evidence_read_off():
    u = FormulaUniverse.from_formulas([Just(x, p), Just(x, Implies(p, q))])
    th = BoundedTheory(u, frozenset({Just(x, p), p}), 4)
    assert inverse_evidence(th, x) == frozenset({p})
    assert inverse_evidence(th, Variable("y")) == frozenset()
    th2 = BoundedTheory(
        u, frozenset({Just(x, p), Just(x, Implies(p, q))}), 4
    )
    assert inverse_evidence(th2, x) == frozenset({p, Implies(p, q)})


def test_inverse_evidence_inside_members_for_primes():
    for name, _ in shipped_saturations:
        spec = shipped(name)
        th = prime_saturate(spec.base, spec.goal, spec.universe, CS, 4)
        terms = {a.term for a in spec.universe if isinstance(a, Just)}
        for t in terms:
            assert inverse_evidence(th, t) <= th.members


# --- bounded canonical model ------------------------------------------------


def test_canonical_atom():
    u = FormulaUniverse.from_formulas([p])
    cm = bounded_canonical_model(u, CS, 4)
    assert [members_of(th) for th in cm.theories] == [[], ["p"]]
    assert cm.model.worlds == ("Δ0", "Δ1")
    assert ("Δ0", "Δ1") in cm.model.order
    assert ("Δ1", "Δ0") not in cm.model.order


def test_canonical_disjunction_worlds_are_prime():
    u = FormulaUniverse.from_formulas([Or(p, q)])
    cm = bounded_canonical_model(u, CS, 4)
    assert [members_of(th) for th in cm.theories] == [
        [], ["p", "p \\/ q"], ["p \\/ q", "q"], ["p", "p \\/ q", "q"],
    ]
    for th in cm.theories:
        if Or(p, q) in th.members:
            assert p in th.members or q in th.members


def test_canonical_evidence_respects_factivity():
    u = FormulaUniverse.from_formulas([Just(x, p), p])
    cm = bounded_canonical_model(u, CS, 4)
    assert [members_of(th) for th in cm.theories] == [
        [], ["p"], ["p", "x:p"],
    ]
    for th in cm.theories:
        if Just(x, p) in th.members:
            assert p in th.members


def test_canonical_order_is_inclusion():
    u = FormulaUniverse.from_formulas([Implies(p, q)])
    cm = bounded_canonical_model(u, CS, 4)
    names = cm.model.worlds
    for i, a in enumerate(cm.theories):
        for j, b in enumerate(cm.theories):
            included = a.members <= b.members
            assert ((names[i], names[j]) in cm.model.order) == included


def test_canonical_truth_lemma_on_shipped_universes():
    root = resources.files("jlogic") / "universes"
    for path in sorted(root.iterdir(), key=lambda e: e.name):
        if not path.name.endswith(".txt"):
            continue
        spec = parse_universe(path.read_text(), CS)
        cm = bounded_canonical_model(spec.universe, CS, 4)
        assert validate_model(cm.model).ok, path.name
        assert cm.excluded_unknown == ()
        assert cm.theories, path.name
        assert all(th.universe == spec.universe for th in cm.theories)
        assert check_truth_lemma(cm) == [], path.name


def test_truth_lemma_reports_disagreements():
    u = FormulaUniverse.from_formulas([Or(p, q)])
    cm = bounded_canonical_model(u, CS, 4)
    assert check_truth_lemma(cm) == []
    # Δ1 = {p, p \/ q} without p: p holds at Δ1 but is no member, and
    # p \/ q is a member that still holds
    bad = BoundedTheory(u, frozenset({Or(p, q)}), 4)
    cm.theories = (cm.theories[0], bad, *cm.theories[2:])
    assert check_truth_lemma(cm) == [("Δ1", p)]
    # Δ0 = {} given q: q is a member where it does not hold
    cm.theories = (BoundedTheory(u, frozenset({q}), 4), *cm.theories[1:])
    assert check_truth_lemma(cm) == [("Δ0", q), ("Δ1", p)]


def test_canonical_cap():
    u = FormulaUniverse.from_formulas([Or(p, q)])
    with pytest.raises(CapExceeded):
        bounded_canonical_model(u, CS, 4, cap=2)


def unscreened_canonical(u):
    """The worlds and the unknown sets of a canonical model built with no
    closure screen: check_prime on every subset of u that holds no _|_
    and has the disjunction property, by size, then in the order of
    itertools.combinations."""
    worlds, unknown = [], []
    for size in range(len(u) + 1):
        for combo in itertools.combinations(u.formulas, size):
            s = frozenset(combo)
            if FALSUM in s or any(isinstance(a, Or) and a.left not in s
                                  and a.right not in s for a in s):
                continue
            status = check_prime(BoundedTheory(u, s, 4), CS).status
            if status == "prime":
                worlds.append(s)
            elif status == "unknown":
                unknown.append(s)
    return worlds, unknown


def evidence_specs(rng, count):
    """count random universes of at most six formulas, mostly t:B with a
    term built by ., + and ! from x, y and the constants c1 (IPC-1) and c6
    (IPC-6), some of them s:(p -> q), t:p, s.t:q, where J-App applies."""
    bodies = ("p", "q", "p -> q", "q -> p", "p -> q -> p", "p /\\ q", "p \\/ q")
    names = ("x", "y", "c1", "c6")
    kept = 0
    while kept < count:
        parts = []
        for _ in range(rng.randint(1, 3)):
            body = rng.choice(bodies)
            kind = rng.random()
            if kind < 0.2:
                s, t = (print_term(random_term(rng, 1, names)) for _ in "st")
                body = f"{s}:(p -> q), {t}:p, ({s}).({t}):q"
            elif kind < 0.8:
                body = f"{print_term(random_term(rng, 2, names))}:({body})"
            parts.append(body)
        spec = parse_universe(f"universe: {', '.join(parts)}\n", CS)
        if len(spec.universe) <= 6:
            kept += 1
            yield spec


def test_canonical_matches_unscreened_reference():
    """The screen drops no world: on random universes with composite and
    constant terms, the worlds are those of check_prime on every subset,
    and every set excluded as unknown is one that the reference leaves
    undecided too."""
    kinds = set()
    for spec in evidence_specs(random.Random(env_seed() * 7919 + 21), 40):
        u = spec.universe
        kinds |= {type(t).__name__ for t in close_subterms(
            a.term for a in u if isinstance(a, Just))}
        worlds, unknown = unscreened_canonical(u)
        cm = bounded_canonical_model(u, CS, 4)
        assert [th.members for th in cm.theories] == worlds, u.formulas
        assert set(cm.excluded_unknown) <= set(unknown), u.formulas
    assert kinds >= {"App", "Sum", "Bang", "Constant"}


def test_canonical_composite_terms_pinned():
    """Evidence that chains through application, sum and ! terms: the
    worlds are pinned by the SHA-256 of the printed model, and the
    evidence closure rejects every candidate that the oracle cannot
    decide, so none is excluded as unknown."""
    spec = parse_universe("universe: x:(p -> q), y:p, x.y:q, x + y:p, "
                          "!x:x:p, (x + y).y:q, x:p\n", CS)
    cm = bounded_canonical_model(spec.universe, CS, 4)
    assert len(spec.universe) == 10 and len(cm.model.worlds) == 50
    assert hashlib.sha256(print_model(cm.model).encode()).hexdigest() == (
        "7df19c89ed6de4926f4a4e8c5bd024a9282045593786064fd64bdb18f48a052e")
    assert cm.excluded_unknown == ()


def test_canonical_screen_memory_is_bounded(monkeypatch):
    """The screen judges 2 ** 20 subsets in blocks, so its masks stay
    small: on 20 formulas (a J-4 chain over x:p, which leaves three
    candidates) it peaks under a mebibyte, with check_prime stubbed."""
    term, f = "x", "x:p"
    for _ in range(18):
        term = "!" + term
        f = f"{term}:{f}"
    u = parse_universe(f"universe: {f}\n", CS).universe
    assert len(u) == 20
    candidates = []

    def stub(th, cs):
        candidates.append(th.members)
        return PrimeVerdict("not_prime" if th.members else "prime")

    monkeypatch.setattr(saturation, "check_prime", stub)
    tracemalloc.start()
    try:
        cm = bounded_canonical_model(u, CS, 4, cap=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(s) for s in candidates] == [0, 1, 20]
    assert cm.model.worlds == ("Δ0",)
    assert peak < 2 ** 20


# --- universe files ---------------------------------------------------------


def test_parse_universe_sections():
    spec = parse_universe("universe: p, q\nbase: p\ngoal: q\n")
    assert spec.base == frozenset({p})
    assert spec.goal == q
    assert {p, q} <= set(spec.universe)


def test_parse_universe_closure_and_continuation():
    spec = parse_universe("universe:\n  x:p\n  p -> q\n")
    assert Just(x, p) in spec.universe
    assert p in spec.universe  # subformula closure


def test_parse_universe_errors():
    with pytest.raises(FileFormatError):
        parse_universe("p, q\n")
    with pytest.raises(FileFormatError):
        parse_universe("universe: p\ngoal: p, q\n")
    with pytest.raises(FileFormatError):
        parse_universe("")


@pytest.mark.parametrize("text,line,message", [
    ("universe: p, q ->\n", 1, "line 1: expected formula (at position 4)"),
    ("# comment\n\nuniverse: p\n  q /\\\n", 4,
     "line 4: expected formula (at position 4)"),
    ("universe: p\ngoal: p ?\n", 2, "line 2: unexpected character '?' (at position 2)"),
    ("universe: p\nbase: x:y, q\n", 2, "line 2: expected formula (at position 2)"),
    # content needs a section first
    ("p, q\n", 1, "line 1: expected 'universe:', 'base:', or 'goal:'"),
    ("# comment\n\nq\nuniverse: p\n", 3,
     "line 3: expected 'universe:', 'base:', or 'goal:'"),
])
def test_universe_file_bad_item(text, line, message):
    with pytest.raises(FileFormatError) as exc:
        parse_universe(text)
    assert (exc.value.line, str(exc.value)) == (line, message)
