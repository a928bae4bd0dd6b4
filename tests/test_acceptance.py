"""Acceptance gate: eight end-to-end criteria with fixed tolerances.

Each test prints one pass/fail line (past capture, so it shows in plain
pytest runs).  Randomness is seeded from JLOGIC_SEED (default 0) so the
suite is reproducible."""

import random
import time
from importlib import resources

from jlogic.generators import (
    env_seed,
    random_accepted_proof,
    random_formula,
    random_formula_over,
    random_schema_instance,
    random_term,
    random_theorems,
    random_valid_model,
)
from jlogic.proof_system import (
    AXIOM_TAGS,
    ConstantSpecification,
    check_proof,
    deduce,
    internalize,
    instantiate_schema,
    match_axiom,
    schema_metavariables,
)
from jlogic.saturation import (
    Unknown,
    bounded_canonical_model,
    check_prime,
    check_truth_lemma,
    inverse_evidence,
    parse_universe,
    prime_saturate,
)
from jlogic.semantics import evaluate_truth, find_countermodel, validate_model
from jlogic.syntax import (
    FALSUM,
    Implies,
    Just,
    Variable,
    close_subformulas,
    formula_terms,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
)

CS = ConstantSpecification.default_schematic()


def _rng(criterion):
    return random.Random(env_seed() * 7919 + criterion)


def _report(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _shipped_universes():
    root = resources.files("jlogic") / "universes"
    for path in sorted(root.iterdir(), key=lambda e: e.name):
        if path.name.endswith(".txt"):
            yield path.name, parse_universe(path.read_text(), CS)


def test_criterion_1_axiom_recognition(capsys):
    rng = _rng(1)
    start = time.perf_counter()
    misses = 0
    for tag in AXIOM_TAGS:
        for _ in range(1000):
            inst = random_schema_instance(rng, tag, 4)
            if tag not in match_axiom(inst):
                misses += 1
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        1,
        misses == 0 and elapsed < 10.0,
        f"14x1000 instances, {misses} false negatives, {elapsed:.1f}s",
    )


def test_criterion_2_deduction_and_internalization(capsys):
    rng = _rng(2)
    start = time.perf_counter()
    deduce_bad = 0
    for _ in range(100):
        pi = random_accepted_proof(rng, CS)
        a = pi.hypotheses[rng.randrange(len(pi.hypotheses))]
        out = deduce(pi, a)
        if not (check_proof(out, CS).ok
                and out.conclusion == Implies(a, pi.conclusion)
                and a not in out.hypotheses):
            deduce_bad += 1
    internalize_bad = 0
    for _ in range(100):
        pi = random_accepted_proof(rng, CS, max_hyps=3)
        used = {str(t) for s in pi.steps for t in formula_terms(s.conclusion)}
        fresh, i = [], 0
        while len(fresh) < len(pi.hypotheses):
            name = f"v{i}"
            if name not in used:
                fresh.append(Variable(name))
            i += 1
        t, out = internalize(pi, tuple(fresh), CS)
        if not (check_proof(out, CS).ok
                and out.conclusion == Just(t, pi.conclusion)):
            internalize_bad += 1
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        2,
        deduce_bad == 0 and internalize_bad == 0 and elapsed < 60.0,
        f"100 deductions ({deduce_bad} bad), 100 internalizations "
        f"({internalize_bad} bad), {elapsed:.1f}s",
    )


def test_criterion_3_soundness(capsys):
    rng = _rng(3)
    start = time.perf_counter()
    theorems = random_theorems(rng, 200)
    universe = close_subformulas(theorems)
    terms = {t for a in universe for t in formula_terms(a)}
    failures = 0
    for _ in range(100):
        m = random_valid_model(rng, universe, terms, CS)
        for a in theorems:
            for w in m.worlds:
                if not evaluate_truth(m, w, a):
                    failures += 1
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        3,
        failures == 0 and elapsed < 120.0,
        f"200 theorems x 100 models, {failures} false evaluations, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_monotonicity(capsys):
    rng = _rng(4)
    universe = [parse_formula(s) for s in
                ["p \\/ q", "x:p", "y:(p -> q)", "x.y:q", "r"]]
    terms = {parse_term(s) for s in ["x", "y", "x.y", "x + y", "!x"]}
    models = [random_valid_model(rng, universe, terms, CS)
              for _ in range(100)]
    losses = 0
    checked = 0
    while checked < 10000:
        m = models[checked % len(models)]
        pairs = sorted(m.order)
        for _ in range(100):
            a = random_formula_over(rng, m.formula_universe, 3)
            w, v = pairs[rng.randrange(len(pairs))]
            if evaluate_truth(m, w, a) and not evaluate_truth(m, v, a):
                losses += 1
            checked += 1
            if checked >= 10000:
                break
    _report(capsys, 4, losses == 0, f"10000 triples, {losses} upward truth losses")


def test_criterion_5_intuitionistic_discrimination(capsys):
    rng = _rng(5)
    lem = parse_formula("p \\/ (p -> _|_)")
    peirce = parse_formula("((p -> q) -> p) -> p")
    found_lem = find_countermodel(lem, 2)
    found_peirce = find_countermodel(peirce, 3)
    ok = (
        found_lem is not None and len(found_lem.model.worlds) <= 2
        and found_peirce is not None and len(found_peirce.model.worlds) <= 3
    )
    sampled = 0
    spurious = []
    for tag in ("J-App", "J-Sum-L", "J-Sum-R", "J-T", "J-4"):
        for _ in range(3):
            env = {}
            for name in sorted(schema_metavariables(tag)):
                if name in ("s", "t"):
                    env[name] = random_term(rng, 1)
                else:
                    env[name] = random_formula(rng, 0, atoms=("p", "q"))
            inst = instantiate_schema(tag, env)
            sampled += 1
            if find_countermodel(inst, 3) is not None:
                spurious.append(print_formula(inst))
    _report(
        capsys,
        5,
        ok and not spurious,
        f"excluded middle <=2 worlds, Peirce <=3 worlds, "
        f"{sampled} axiom instances unrefuted"
        + (f"; spurious: {spurious}" if spurious else ""),
    )


def test_criterion_6_prime_machinery(capsys):
    unknowns = 0
    not_prime = []
    evidence_violations = 0
    universes = 0
    for name, spec in _shipped_universes():
        universes += 1
        assert len(spec.universe) <= 30, name
        base = spec.base
        goal = spec.goal if spec.goal is not None else FALSUM
        th = prime_saturate(base, goal, spec.universe, CS, 4)
        verdict = check_prime(th, CS)
        if verdict.status != "prime":
            not_prime.append(name)
        unknowns += sum(
            1 for c in th.certificates.values() if isinstance(c, Unknown)
        )
        for t in {a.term for a in spec.universe if isinstance(a, Just)}:
            if not inverse_evidence(th, t) <= th.members:
                evidence_violations += 1
    _report(
        capsys,
        6,
        not not_prime and unknowns == 0 and evidence_violations == 0,
        f"{universes} universes prime, {unknowns} unknown certificates, "
        f"{evidence_violations} evidence violations"
        + (f"; not prime: {not_prime}" if not_prime else ""),
    )


def test_criterion_7_bounded_truth_lemma(capsys):
    mismatches = 0
    excluded = 0
    instances = 0
    for name, spec in _shipped_universes():
        assert len(spec.universe) <= 12, name
        cm = bounded_canonical_model(spec.universe, CS, 4)
        assert validate_model(cm.model).ok, name
        excluded += len(cm.excluded_unknown)
        assert all(th.universe == spec.universe for th in cm.theories), name
        instances += len(cm.theories) * len(spec.universe)
        mismatches += len(check_truth_lemma(cm))
    _report(
        capsys,
        7,
        mismatches == 0 and excluded == 0,
        f"{instances} membership/truth instances agree, "
        f"{excluded} excluded unknown sets",
    )


def test_criterion_8_round_trip_fuzz(capsys):
    rng = _rng(8)
    mismatches = 0
    for i in range(5000):
        if i % 2:
            a = random_formula(rng, 8)
            if parse_formula(print_formula(a)) != a:
                mismatches += 1
        else:
            t = random_term(rng, 8)
            if parse_term(print_term(t)) != t:
                mismatches += 1
    _report(capsys, 8, mismatches == 0, f"5000 round-trips, {mismatches} mismatches")
