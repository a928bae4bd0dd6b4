"""Seeded random generators for terms, formulas, axiom instances,
accepted proofs, theorem pools, and valid models.

Everything is driven by an explicit random.Random so runs are
reproducible; env_seed() reads a base seed from the JLOGIC_SEED
environment variable."""

from __future__ import annotations

import functools
import os
import random

from jlogic.proof_system import (
    AXIOM_TAGS,
    AxiomRule,
    ConstantSpecification,
    Hypothesis,
    ModusPonens,
    AxiomNecessitation,
    Proof,
    ProofStep,
    check_proof,
    first_axiom_tag,
    instantiate_schema,
    schema_metavariables,
)
from jlogic.semantics import (
    BasicEvaluation,
    evaluate_truth,
    transitive_reflexive_closure,
    validate_model,
)
from jlogic.syntax import (
    And,
    App,
    Atom,
    Bang,
    Constant,
    FALSUM,
    Formula,
    Implies,
    Just,
    Or,
    Sum,
    Term,
    Variable,
    close_subformulas,
    close_subterms,
    formula_key,
    formula_size,
    formula_terms,
    subformulas,
)


def env_seed() -> int:
    return int(os.environ.get("JLOGIC_SEED", "0"))


def random_term(
    rng: random.Random,
    depth: int,
    variables: tuple[str, ...] = ("x", "y", "z"),
) -> Term:
    if depth <= 0 or rng.random() < 0.3:
        return Variable(rng.choice(variables))
    kind = rng.randrange(3)
    if kind == 0:
        return App(random_term(rng, depth - 1, variables),
                   random_term(rng, depth - 1, variables))
    if kind == 1:
        return Sum(random_term(rng, depth - 1, variables),
                   random_term(rng, depth - 1, variables))
    return Bang(random_term(rng, depth - 1, variables))


def random_formula(
    rng: random.Random,
    depth: int,
    atoms: tuple[str, ...] = ("p", "q", "r"),
    variables: tuple[str, ...] = ("x", "y", "z"),
    allow_just: bool = True,
) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return FALSUM
        return Atom(rng.choice(atoms))
    kind = rng.randrange(4 if allow_just else 3)
    if kind == 0:
        return Implies(random_formula(rng, depth - 1, atoms, variables, allow_just),
                       random_formula(rng, depth - 1, atoms, variables, allow_just))
    if kind == 1:
        return And(random_formula(rng, depth - 1, atoms, variables, allow_just),
                   random_formula(rng, depth - 1, atoms, variables, allow_just))
    if kind == 2:
        return Or(random_formula(rng, depth - 1, atoms, variables, allow_just),
                  random_formula(rng, depth - 1, atoms, variables, allow_just))
    return Just(random_term(rng, min(depth - 1, 2), variables),
                random_formula(rng, depth - 1, atoms, variables, allow_just))


def random_schema_instance(rng: random.Random, tag: str, depth: int = 3) -> Formula:
    """Random instance of a schema: metavariables get random formulas and
    terms of the requested depth."""
    env = {}
    for name in sorted(schema_metavariables(tag)):
        if name in ("s", "t"):
            env[name] = random_term(rng, depth)
        else:
            env[name] = random_formula(rng, depth)
    return instantiate_schema(tag, env)


def random_accepted_proof(
    rng: random.Random,
    cs: ConstantSpecification,
    max_steps: int = 30,
    max_hyps: int = 4,
) -> Proof:
    """Random proof accepted by check_proof, mixing all four step kinds.

    The hypotheses form an implication chain B1, B1 -> B2, ... so modus
    ponens always has work to do; axiom and necessitation steps are
    woven in both as modus ponens fuel (weakening instances) and as
    decoration."""
    n_links = rng.randint(1, max_hyps - 1) if max_hyps > 1 else 1
    chain = [random_formula(rng, 1) for _ in range(n_links + 1)]
    hyps: list[Formula] = [chain[0]]
    for i in range(n_links):
        hyps.append(Implies(chain[i], chain[i + 1]))
    steps: list[ProofStep] = [ProofStep(chain[0], Hypothesis(0))]
    have = {chain[0]: 0}

    def emit(conclusion: Formula, rule) -> int:
        steps.append(ProofStep(conclusion, rule))
        have.setdefault(conclusion, len(steps) - 1)
        return len(steps) - 1

    for i in range(n_links):
        if rng.random() < 0.5 and len(steps) + 4 < max_steps:
            # decorate with an axiom, a weakening of it, or a cs step
            inst = random_schema_instance(rng, rng.choice(AXIOM_TAGS), 1)
            j = emit(inst, AxiomRule(first_axiom_tag(inst)))
            if rng.random() < 0.5:
                name = cs.constant_for(inst)
                if name is not None:
                    emit(Just(Constant(name), inst), AxiomNecessitation(name))
            else:
                k = emit(Implies(inst, Implies(chain[i], inst)), AxiomRule("IPC-1"))
                emit(Implies(chain[i], inst), ModusPonens(k, j))
        link = emit(hyps[i + 1], Hypothesis(i + 1))
        emit(chain[i + 1], ModusPonens(link, have[chain[i]]))
        if len(steps) >= max_steps - 2:
            break
    pi = Proof(tuple(hyps), tuple(steps))
    report = check_proof(pi, cs)
    if not report.ok:
        raise AssertionError(f"generator produced a bad proof: {report}")
    return pi


def random_theorems(
    rng: random.Random,
    count: int,
    pool_atoms: tuple[str, ...] = ("p", "q"),
    pool_variables: tuple[str, ...] = ("x", "y"),
    rounds: int = 6,
    size_cap: int = 40,
) -> list[Formula]:
    """Theorems by forward closure: axiom instances over a small formula
    pool, then modus ponens up to a bounded number of rounds.  Constants
    never occur, so the results can be evaluated in models with an empty
    specification footprint."""
    pool = [
        Atom(pool_atoms[0]),
        Atom(pool_atoms[1]),
        FALSUM,
        Just(Variable(pool_variables[0]), Atom(pool_atoms[0])),
        Just(Variable(pool_variables[1]),
             Implies(Atom(pool_atoms[0]), Atom(pool_atoms[1]))),
        Implies(Atom(pool_atoms[0]), Atom(pool_atoms[1])),
    ]
    theorems: list[Formula] = []
    seen: set[Formula] = set()

    def add(a: Formula) -> None:
        if a not in seen and formula_size(a) <= size_cap:
            seen.add(a)
            theorems.append(a)

    while len(theorems) < count:
        for tag in AXIOM_TAGS:
            env = {}
            for name in sorted(schema_metavariables(tag)):
                if name in ("s", "t"):
                    env[name] = random_term(rng, 1, pool_variables)
                else:
                    env[name] = rng.choice(pool)
            add(instantiate_schema(tag, env))
        for _ in range(rounds):
            if len(theorems) < 2:
                break
            major = rng.choice(theorems)
            if isinstance(major, Implies) and major.left in seen:
                add(major.right)
    return theorems[:count]


def random_poset(rng: random.Random, n: int):
    """Random reflexive-transitive order on w0..w{n-1}; pairs only go
    from lower to higher index, so antisymmetry is automatic."""
    names = tuple(f"w{i}" for i in range(n))
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.45
    ]
    return names, transitive_reflexive_closure(names, pairs)


def random_valid_model(
    rng: random.Random,
    formula_universe,
    term_universe,
    cs: ConstantSpecification,
    max_worlds: int = 4,
    evidence_budget: int = 6,
    attempts: int = 50,
) -> BasicEvaluation:
    """Random basic modular model over the given universes.

    Valuations are random upward-closed sets; evidence seeds place
    propositional formulas that already hold at the seed world into the
    evidence of a variable, which keeps factivity intact through the
    closure.  The result is validated; a failed attempt is retried."""
    formula_universe = close_subformulas(formula_universe)
    term_universe = close_subterms(
        set(term_universe)
        | {t for a in formula_universe for t in formula_terms(a)}
    )
    atom_names = sorted(
        {a.name for a in formula_universe if isinstance(a, Atom)}
    )
    seed_terms = sorted(
        (t for t in term_universe if isinstance(t, Variable)),
        key=str,
    )
    propositional = sorted(
        (
            a for a in formula_universe
            if not any(isinstance(b, Just) for b in subformulas(a))
        ),
        key=formula_key,
    )
    for _ in range(attempts):
        n = rng.randint(1, max_worlds)
        names, order = random_poset(rng, n)
        atoms: dict[str, set[str]] = {w: set() for w in names}
        for p in atom_names:
            base = [w for w in names if rng.random() < 0.5]
            for w in names:
                if any((b, w) in order for b in base):
                    atoms[w].add(p)
        skeleton = BasicEvaluation(
            names, order, atoms,
            term_universe=term_universe,
            formula_universe=(),
            cs=cs,
        )
        evidence: dict[str, dict[Term, set[Formula]]] = {}
        if seed_terms and propositional:
            for _ in range(rng.randint(0, evidence_budget)):
                w = rng.choice(names)
                t = rng.choice(seed_terms)
                b = rng.choice(propositional)
                if evaluate_truth(skeleton, w, b):
                    evidence.setdefault(w, {}).setdefault(t, set()).add(b)
        m = BasicEvaluation(
            names, order, atoms,
            base_evidence=evidence,
            term_universe=term_universe,
            formula_universe=formula_universe,
            cs=cs,
        )
        if validate_model(m).ok:
            return m
    raise AssertionError("could not generate a valid model")


def _over_pool(universe: frozenset):
    pool = sorted(universe, key=formula_key)
    justs = tuple(a for a in pool if isinstance(a, Just))
    atoms = tuple(sorted({a.name for b in pool for a in subformulas(b)
                          if isinstance(a, Atom)})) or ("p",)
    return justs, atoms


_over_pool = functools.lru_cache(maxsize=64)(_over_pool)


def random_formula_over(
    rng: random.Random,
    formula_universe,
    depth: int = 3,
) -> Formula:
    """Random formula whose Just-subformulas are drawn from an existing
    universe, so it stays evaluable in models over that universe."""
    justs, atoms = _over_pool(frozenset(formula_universe))

    def go(d: int) -> Formula:
        if d <= 0 or rng.random() < 0.3:
            roll = rng.random()
            if justs and roll < 0.3:
                return rng.choice(justs)
            if roll < 0.4:
                return FALSUM
            return Atom(rng.choice(atoms))
        kind = rng.randrange(3)
        if kind == 0:
            return Implies(go(d - 1), go(d - 1))
        if kind == 1:
            return And(go(d - 1), go(d - 1))
        return Or(go(d - 1), go(d - 1))

    return go(depth)
