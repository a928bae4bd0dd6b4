"""Evidence closure, truth evaluation, model validation, model files."""

import itertools
import random
import time

import pytest

from jlogic.generators import random_formula, random_valid_model
from jlogic.proof_system import ConstantSpecification
from jlogic.semantics import (
    BasicEvaluation,
    UniverseNotClosed,
    check_validity,
    evaluate_truth,
    find_countermodel,
    parse_model,
    print_model,
    transitive_reflexive_closure,
    validate_model,
)
from jlogic.semantics import FileFormatError
from jlogic.syntax import (
    App,
    Atom,
    And,
    Bang,
    Constant,
    FALSUM,
    Falsum,
    Implies,
    Just,
    Or,
    Sum,
    Variable,
    formula_key,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
    subformulas,
    term_key,
    term_size,
)
from test_countermodel import reference_close, reference_evaluator

CS = ConstantSpecification.default_schematic()
p, q = Atom("p"), Atom("q")
x, y = Variable("x"), Variable("y")
s, t = Variable("s"), Variable("t")


def lem_model(**kw):
    """Two-world chain with p true only above: refutes excluded middle."""
    return BasicEvaluation(
        ("w0", "w1"),
        (("w0", "w0"), ("w0", "w1"), ("w1", "w1")),
        {"w0": set(), "w1": {"p"}},
        **kw,
    )


# --- closure ----------------------------------------------------------------


def test_closure_sum_union():
    m = BasicEvaluation(
        ("w0",), (("w0", "w0"),), {"w0": {"p"}},
        base_evidence={"w0": {x: {p}}},
        term_universe={Sum(x, y)},
    )
    assert m.evidence(Sum(x, y), "w0") >= {p}
    assert m.evidence(y, "w0") == frozenset()


def test_closure_application_image():
    m = BasicEvaluation(
        ("w0",), (("w0", "w0"),), {"w0": {"p", "q"}},
        base_evidence={"w0": {s: {Implies(p, q)}, t: {p}}},
        term_universe={App(s, t)},
    )
    assert q in m.evidence(App(s, t), "w0")


def test_closure_bang_introspection():
    m = BasicEvaluation(
        ("w0",), (("w0", "w0"),), {"w0": {"p"}},
        base_evidence={"w0": {s: {p}}},
        term_universe={Bang(s)},
    )
    assert Just(s, p) in m.evidence(Bang(s), "w0")


def test_closure_constants_get_specification():
    a = parse_formula("x:p -> p")
    c = CS.constant_for(a)
    m = BasicEvaluation(
        ("w0",), (("w0", "w0"),), {"w0": {"p"}},
        base_evidence={"w0": {x: {p}}},
        term_universe={parse_term(c)},
        formula_universe={a},
    )
    assert a in m.evidence(parse_term(c), "w0")


def test_closure_upward_monotone():
    m = lem_model(
        base_evidence={"w1": {x: {p}}},
        term_universe={x},
    )
    assert p in m.evidence(x, "w1")
    assert p not in m.evidence(x, "w0")
    m2 = lem_model(
        base_evidence={"w0": {x: {Implies(p, p)}}},
        formula_universe={Implies(p, p)},
    )
    assert Implies(p, p) in m2.evidence(x, "w1")


def _conditions_hold(m, fam):
    """Independent re-statement of the evidence closure conditions (1)-(4)
    and M2 over a family fam[t][w]; validate_model leaves them to the
    construction of the closure, and this certifies that the real closure
    satisfies them and is minimal."""
    for w in m.worlds:
        for term in m.term_universe:
            have = fam[term][w]
            if isinstance(term, App):
                for f in fam[term.left][w]:
                    if isinstance(f, Implies) and f.left in fam[term.right][w]:
                        if f.right not in have:
                            return False
            elif isinstance(term, Sum):
                if not (fam[term.left][w] | fam[term.right][w]) <= have:
                    return False
            elif isinstance(term, Bang):
                for f in fam[term.inner][w]:
                    if Just(term.inner, f) not in have:
                        return False
            elif term.__class__.__name__ == "Constant":
                for a in m.cs.instances_for(term.name, m.formula_universe):
                    if a not in have:
                        return False
        for v in m.worlds:
            if (w, v) in m.order:
                for term in m.term_universe:
                    if not fam[term][w] <= fam[term][v]:
                        return False
    # base evidence must be contained
    for w, per_term in m.base_evidence.items():
        for term, formulas in per_term.items():
            if not set(formulas) <= fam[term][w]:
                return False
    return True


def _closure_test_model(seed):
    """The hand-built model for seed None, else a random valid model whose
    term universe holds application, sum, ! and constant terms."""
    if seed is None:
        return BasicEvaluation(
            ("w0", "w1"),
            transitive_reflexive_closure(("w0", "w1"), [("w0", "w1")]),
            {"w0": {"p"}, "w1": {"p", "q"}},
            base_evidence={"w0": {s: {Implies(p, q)}, t: {p}}},
            term_universe={App(s, t), Bang(t)},
        )
    c1 = Constant("c1")  # covers IPC-1
    universe = [parse_formula(f, constants=CS.constants()) for f in [
        "x:(p -> q)", "y:p \\/ q", "p -> q -> p", "c1.y:(q -> p)", "!x:x:q",
    ]]
    terms = {App(x, y), Sum(x, y), Bang(Sum(x, y)), c1, App(c1, y)}
    return random_valid_model(random.Random(seed), universe, terms, CS,
                              max_worlds=3, evidence_budget=12)


@pytest.mark.parametrize("seed", [None, *range(8)],
                         ids=["hand", *(f"seed{i}" for i in range(8))])
def test_closure_is_least_fixed_point(seed):
    m = _closure_test_model(seed)
    fam = {
        term: {w: set(m.evidence(term, w)) for w in m.worlds}
        for term in m.term_universe
    }
    assert _conditions_hold(m, fam)
    base = {
        (w, term, a)
        for w, per in m.base_evidence.items()
        for term, formulas in per.items()
        for a in formulas
    }
    removable = [
        (w, term, a)
        for term in m.term_universe
        for w in m.worlds
        for a in fam[term][w]
        if (w, term, a) not in base
    ]
    assert removable  # the closure actually added something
    for w, term, a in removable:
        smaller = {
            u: {v: set(formulas) for v, formulas in per.items()}
            for u, per in fam.items()
        }
        smaller[term][w].discard(a)
        assert not _conditions_hold(m, smaller), (term, w, a)


def test_closure_idempotent():
    m = BasicEvaluation(
        ("w0",), (("w0", "w0"),), {"w0": {"p", "q"}},
        base_evidence={"w0": {s: {Implies(p, q)}, t: {p}}},
        term_universe={App(s, t), Bang(s)},
    )
    fam = {
        term: {w: frozenset(m.evidence(term, w)) for w in m.worlds}
        for term in m.term_universe
    }
    again = BasicEvaluation(
        m.worlds, m.order, {w: set(m.atoms[w]) for w in m.worlds},
        base_evidence={
            w: {term: set(fam[term][w]) for term in fam if fam[term][w]}
            for w in m.worlds
        },
        term_universe=m.term_universe,
        formula_universe=m.formula_universe,
        cs=m.cs,
    )
    for term in m.term_universe:
        for w in m.worlds:
            assert again.evidence(term, w) == fam[term][w]


def reference_validation_text(m, derived=None):
    """str(validate_model(m)) as the per-world closure gives it: the
    order laws and M1, then factivity by a walk over the worlds, the
    terms in term_key order and the false formulas in formula_key
    order.  derived is the per-world closure to read, reference_close
    of m by default."""
    out = []
    rel = m.order
    for w in m.worlds:
        if (w, w) not in rel:
            out.append(f"order-reflexivity at {w}: {w} <= {w} missing")
    pairs = sorted(rel)
    for (a, b) in pairs:
        for (c, d) in pairs:
            if b == c and (a, d) not in rel:
                out.append(f"order-transitivity at {a},{b},{d}: "
                           f"{a} <= {b} <= {d} but not {a} <= {d}")
        if a != b and (b, a) in rel and a < b:
            out.append(f"order-antisymmetry at {a},{b}: {a} <= {b} and {b} <= {a}")
    for (w, v) in pairs:
        for name in sorted(m.atoms[w]):
            if name not in m.atoms[v]:
                out.append(f"M1 at {w},{v}: atom {name} lost going up")
    if derived is None:
        derived = reference_close(m.worlds, m.order, m.base_evidence,
                                  sorted(m.term_universe, key=term_size),
                                  m.formula_universe, m.cs)
    for w in m.worlds:
        for term in sorted(m.term_universe, key=term_key):
            false = [a for a in derived[term][w] if not evaluate_truth(m, w, a)]
            for a in sorted(false, key=formula_key):
                out.append(f"factivity at {w}: {print_formula(a)} in "
                           f"{print_term(term)}* but false")
    return "invalid:\n" + "\n".join(f"  {v}" for v in out) if out else "valid"


def _invalid_models():
    """Hand-built models that break what find_countermodel never does:
    orders that are not transitive or not reflexive, seeds above minimal
    worlds, and evidence that is false where it is evidenced.  World
    names run against their positions, so that a sort by name would show
    in the violation order."""
    c1 = Constant("c1")
    terms = {App(x, y), Sum(x, y), Bang(x), Bang(App(x, y)), c1, App(c1, x)}
    formulas = [parse_formula(f, constants=CS.constants())
                for f in ["p -> q -> p", "x:p -> p", "c1.x:(q -> p)"]]
    kw = dict(term_universe=terms, formula_universe=formulas, cs=CS)
    seeds = {"b": {x: {Implies(p, q), q}, y: {p}}, "a": {y: {q}, x: {p}}}

    def model(worlds, order, atoms, evidence):
        return BasicEvaluation(worlds, order, atoms, base_evidence=evidence, **kw)

    return {
        # a chain b <= a <= c without b <= c
        "not-transitive": model(("b", "a", "c"),
                                [(w, w) for w in "bac"] + [("b", "a"), ("a", "c")],
                                {"a": {"p"}, "c": {"p", "q"}}, seeds),
        # b <= a and nothing else: no world is below itself
        "not-reflexive": model(("b", "a"), [("b", "a")], {"a": {"p"}}, seeds),
        # a partial order with seeds at every world, not only minimal ones
        "seeds-above-minima": model(
            ("b", "a", "c"),
            transitive_reflexive_closure("bac", [("b", "a"), ("b", "c")]),
            {"b": {"q"}, "a": {"p", "q"}, "c": {"q"}},
            {**seeds, "c": {y: {p, q}}}),
        # one world where p and q are false
        "false-evidence": model(("a",), [("a", "a")], {}, {"a": seeds["b"]}),
    }


def seeds_up_reference(m):
    """The closure of m on any order, one world at a time: each seed at
    its world and at every world that world sees, and the rules applied
    world by world with no union step (reference_close on no order)."""
    base = {v: {} for v in m.worlds}
    for w, per_term in m.base_evidence.items():
        for v in m.worlds:
            if v == w or (w, v) in m.order:
                for term, formulas in per_term.items():
                    base[v].setdefault(term, set()).update(formulas)
    return reference_close(m.worlds, (), base, sorted(m.term_universe, key=term_size),
                           m.formula_universe, m.cs)


@pytest.mark.parametrize("case", [*_invalid_models(), *range(8)],
                         ids=lambda c: f"seed{c}" if isinstance(c, int) else c)
def test_mask_closure_matches_per_world(case):
    if isinstance(case, str):
        m = _invalid_models()[case]
    else:
        m = _closure_test_model(case)
    if case == "not-transitive":
        # the union step is the closure only on a transitive order
        derived = seeds_up_reference(m)
    else:
        derived = reference_close(m.worlds, m.order, m.base_evidence,
                                  sorted(m.term_universe, key=term_size),
                                  m.formula_universe, m.cs)
    for term in m.term_universe:
        for w in m.worlds:
            assert m.evidence(term, w) == derived[term][w], (term, w)
    text = str(validate_model(m))
    assert text == reference_validation_text(m, derived)
    assert (text == "valid") == isinstance(case, int)


def random_transitive_model(rng):
    """A model on a random transitive order, as direct construction may
    build one: world names against their positions, some worlds that do
    not see themselves, cycles among the others, any atoms, and seeds at
    any world, minimal or not, over a term universe with constants,
    application, sum and !."""
    c1, c4 = Constant("c1"), Constant("c4")  # IPC-1 and IPC-4
    worlds = [f"w{i}" for i in rng.sample(range(10), rng.randint(1, 5))]
    pairs = [(rng.choice(worlds), rng.choice(worlds)) for _ in range(rng.randint(0, 8))]
    star = transitive_reflexive_closure(worlds, pairs)
    # a step of pairs, then any walk: transitive, and reflexive only on
    # a cycle or where a world is given itself
    order = {(a, c) for a, b in pairs for b2, c in star if b2 == b}
    order |= {(w, w) for w in worlds if rng.random() < 0.6}
    atoms = {w: {a for a in "pq" if rng.random() < 0.5} for w in worlds}
    pool = [p, q, Implies(p, q), Implies(q, p), Just(x, p),
            parse_formula("p /\\ q -> p")]
    evidence = {w: {term: set(rng.sample(pool, rng.randint(1, 2)))
                    for term in rng.sample([x, y, App(x, y), c1], rng.randint(0, 2))}
                for w in worlds}
    universe = [parse_formula(f, constants=CS.constants()) for f in [
        "p -> q -> p", "p /\\ q -> p", "x:p -> p", "c1.x:(q -> p)",
        "c4 + y:(p /\\ q -> p)", "!x:x:p", "x.y:q \\/ y:p",
    ]]
    return BasicEvaluation(worlds, order, atoms, base_evidence=evidence,
                           term_universe={c1, App(c1, x), Sum(c4, y), Bang(x)},
                           formula_universe=universe, cs=CS)


@pytest.mark.parametrize("seed", range(4))
def test_closure_on_transitive_orders_matches_union_step(seed):
    # seeds placed at their world and the worlds it sees, with no union
    # step, close to what the union step gives on every transitive order
    rng = random.Random(seed)
    for _ in range(150):
        m = random_transitive_model(rng)
        assert all((a, d) in m.order for a, b in m.order for c, d in m.order if b == c)
        derived = reference_close(m.worlds, m.order, m.base_evidence,
                                  sorted(m.term_universe, key=term_size),
                                  m.formula_universe, m.cs)
        for term in m.term_universe:
            for w in m.worlds:
                assert m.evidence(term, w) == derived[term][w], (term, w)
        assert str(validate_model(m)) == reference_validation_text(m)
        up = [sum(1 << j for j, v in enumerate(m.worlds) if (w, v) in m.order)
              for w in m.worlds]
        atoms = {a: sum(1 << i for i, w in enumerate(m.worlds) if a in m.atoms[w])
                 for a in "pq"}
        truth_set = reference_evaluator(m.worlds, up, atoms, derived)
        for a in m.formula_universe:
            for i, w in enumerate(m.worlds):
                assert evaluate_truth(m, w, a) == bool(truth_set(a) >> i & 1), (a, w)


def test_universe_not_closed():
    m = lem_model()
    with pytest.raises(UniverseNotClosed):
        m.evidence(x, "w0")
    with pytest.raises(ValueError, match="unknown world 'w9'"):
        lem_model(term_universe={x}).evidence(x, "w9")
    with pytest.raises(ValueError):
        evaluate_truth(m, "nowhere", p)
    with pytest.raises(UniverseNotClosed):
        evaluate_truth(m, "w0", Just(y, p))
    # a failed query leaves no half-evaluated subformula behind
    bad = Or(Implies(p, q), Just(y, p))
    with pytest.raises(UniverseNotClosed):
        evaluate_truth(m, "w0", bad)
    with pytest.raises(UniverseNotClosed):
        evaluate_truth(m, "w0", bad)
    with pytest.raises(TypeError):
        evaluate_truth(m, "w0", And(Implies(q, p), x))
    assert evaluate_truth(m, "w0", Implies(q, p))
    assert not evaluate_truth(m, "w0", Implies(p, q))


# --- truth ------------------------------------------------------------------


def test_lem_false_at_root():
    m = lem_model()
    lem = parse_formula("p \\/ (p -> _|_)")
    assert not evaluate_truth(m, "w0", lem)
    assert evaluate_truth(m, "w1", lem)


def test_just_clause_is_membership():
    m = BasicEvaluation(
        ("w0",), (("w0", "w0"),), {"w0": {"p"}},
        base_evidence={"w0": {x: {p}}},
    )
    assert evaluate_truth(m, "w0", Just(x, p))
    assert not evaluate_truth(m, "w0", Just(x, q))


def test_falsum_false_everywhere():
    m = lem_model()
    for w in m.worlds:
        assert not evaluate_truth(m, w, FALSUM)


def test_implication_quantifies_upward():
    m = lem_model()
    # negation of p fails at w0 because p turns true above
    assert not evaluate_truth(m, "w0", Implies(p, FALSUM))
    # yet the double negation holds there
    assert evaluate_truth(m, "w0", Implies(Implies(p, FALSUM), FALSUM))
    assert evaluate_truth(m, "w0", Implies(p, p))


def test_deep_formula_evaluates():
    chain = p
    for _ in range(3000):
        chain = Implies(p, chain)
    m = BasicEvaluation(("w0",), (("w0", "w0"),), {"w0": set()})
    assert evaluate_truth(m, "w0", chain)
    assert not evaluate_truth(m, "w0", Implies(chain, p))
    m = BasicEvaluation(
        ("w0",), (("w0", "w0"),), {"w0": set()},
        base_evidence={"w0": {x: {chain}}},
        formula_universe={chain},
    )
    assert validate_model(m).ok


# --- validation -------------------------------------------------------------


def test_validate_lem_model_ok():
    verdict = validate_model(lem_model())
    assert verdict.ok
    assert str(verdict) == "valid"


def test_validate_factivity_violation():
    m = BasicEvaluation(
        ("w0",), (("w0", "w0"),), {"w0": set()},
        base_evidence={"w0": {x: {p}}},
    )
    verdict = validate_model(m)
    assert not verdict.ok
    v = [v for v in verdict.violations if v.condition == "factivity"]
    assert v and v[0].worlds == ("w0",)
    assert "p" in v[0].witness


def test_validate_m1_violation():
    m = BasicEvaluation(
        ("w0", "w1"),
        (("w0", "w0"), ("w0", "w1"), ("w1", "w1")),
        {"w0": {"p"}, "w1": set()},
    )
    verdict = validate_model(m)
    assert not verdict.ok
    assert any(v.condition == "M1" for v in verdict.violations)


def test_validate_order_violations():
    m = BasicEvaluation(("w0",), (), {"w0": set()})
    assert any(
        v.condition == "order-reflexivity"
        for v in validate_model(m).violations
    )


# str(validate_model(...)) of the model below, as the version that sorted
# the world names, the order pairs and each pair's atoms on every call
# printed it
PINNED_VERDICT = """invalid:
  order-reflexivity at w4: w4 <= w4 missing
  order-transitivity at w2,w0,w1: w2 <= w0 <= w1 but not w2 <= w1
  order-transitivity at w2,w0,w3: w2 <= w0 <= w3 but not w2 <= w3
  order-transitivity at w2,w0,w4: w2 <= w0 <= w4 but not w2 <= w4
  order-antisymmetry at w3,w4: w3 <= w4 and w4 <= w3
  order-transitivity at w4,w3,w4: w4 <= w3 <= w4 but not w4 <= w4
  M1 at w0,w3: atom p lost going up
  M1 at w0,w4: atom p lost going up
  M1 at w2,w0: atom q lost going up
  M1 at w2,w0: atom r lost going up
  M1 at w3,w4: atom p0 lost going up
  M1 at w3,w4: atom p1 lost going up
  factivity at w0: q in x* but false
  factivity at w0: r in y* but false
  factivity at w1: q in x* but false
  factivity at w4: q in x* but false
  factivity at w3: q in x* but false"""


def test_validate_violation_order_pinned():
    # world positions run against the names (w4 before w3), the pair
    # (w2, w0) misses three transitive pairs and loses two atoms, and
    # (w3, w4) breaks antisymmetry next to (w4, w3)'s transitivity
    m = BasicEvaluation(
        ("w2", "w0", "w1", "w4", "w3"),
        [("w0", "w0"), ("w1", "w1"), ("w2", "w2"), ("w3", "w3"),
         ("w2", "w0"), ("w0", "w1"), ("w3", "w4"), ("w4", "w3"),
         ("w0", "w3"), ("w0", "w4")],
        {"w2": {"r", "p", "q"}, "w0": {"p"}, "w1": {"p"}, "w3": {"p1", "p0"}},
        base_evidence={"w0": {x: {q}}, "w2": {y: {Atom("r"), p}}},
    )
    verdict = validate_model(m)
    assert str(verdict) == PINNED_VERDICT == reference_validation_text(m)


# --- validity ---------------------------------------------------------------


def test_factivity_axiom_valid():
    m = lem_model(base_evidence={"w1": {x: {p}}}, term_universe={x})
    assert validate_model(m).ok
    assert check_validity(m, parse_formula("x:p -> p"))


def test_efq_valid_p_not():
    m = lem_model()
    assert check_validity(m, Implies(FALSUM, p))
    assert not check_validity(m, p)


# --- model files ------------------------------------------------------------


def test_model_file_round_trip():
    m = lem_model(
        base_evidence={"w1": {x: {p}, Sum(x, y): {p}}},
        term_universe={x, Sum(x, y), Bang(x)},
        formula_universe={parse_formula("p \\/ q")},
    )
    assert parse_model(print_model(m)) == m


def test_model_file_round_trip_countermodels():
    # the third one has _|_ in an evidence line; the seeded random goals
    # after them all have a countermodel at two worlds too
    goals = [parse_formula(src) for src in
             ["p \\/ (p -> _|_)", "((p -> q) -> p) -> p", "x:(p -> _|_) -> p"]]
    rng = random.Random(13)
    goals += [random_formula(rng, 3) for _ in range(12)]
    for goal in goals:
        found = find_countermodel(goal, 2)
        assert found is not None, print_formula(goal)
        back = parse_model(print_model(found.model))
        assert back == found.model
        assert validate_model(back).ok
        assert not evaluate_truth(back, found.world, goal)
        # the search hands its compiled rows to the model it returns
        for a in sorted(subformulas(goal), key=formula_key):
            for w in back.worlds:
                assert evaluate_truth(found.model, w, a) == evaluate_truth(back, w, a)


def test_model_file_errors():
    with pytest.raises(FileFormatError) as exc:
        parse_model("worlds: w0\nnonsense\n")
    assert exc.value.line == 2
    with pytest.raises(FileFormatError):
        parse_model("")
    with pytest.raises(FileFormatError):
        parse_model("worlds: w0\norder:\n  w0 <= w9\n")
    with pytest.raises(FileFormatError) as exc:
        parse_model("# w0 twice\nworlds: w0 w1 w0\n")
    assert (exc.value.line, str(exc.value)) == (2, "line 2: duplicate world 'w0'")


@pytest.mark.parametrize("text,line,message", [
    ("worlds: w0 w1\nevidence:\n  w0 | x | p, q ->\n", 3,
     "line 3: expected formula (at position 4)"),
    ("worlds: w0\n# comment\n\nevidence:\n  w0 | p | q\n", 5,
     "line 5: atom 'p' used as a term (at position 0)"),
    # the evidence term is one item: it is not split at commas
    ("worlds: w0\nevidence:\n  w0 | x, y | p\n", 3,
     "line 3: unexpected character ',' (at position 1)"),
    ("worlds: w0\nterms: x, y +\n", 2, "line 2: expected term (at position 3)"),
    ("worlds: w0\n\nformulas: p, (q   # open\n", 3,
     "line 3: expected ')' (at position 2)"),
    # section headers: content needs a section, and these take indented lines
    ("# comment\n\nw0 w1\nworlds: w0 w1\n", 3, "line 3: expected a section header"),
    ("worlds: w0 w1\norder: w0 <= w1\n", 2, "line 2: section order: takes indented lines"),
    ("worlds: w0\natoms: w0: p\n", 2, "line 2: section atoms: takes indented lines"),
    ("worlds: w0\n\nevidence: w0 | x | p\n", 3,
     "line 3: section evidence: takes indented lines"),
    # atoms are atom names, one per white-space separated word
    ("worlds: w0 w1\norder:\n  w0 <= w1\natoms:\n  w0: x 1 p,q\n", 5,
     "line 5: bad atom 'x'"),
    ("worlds: w0\natoms:\n  w0: p p,q\n", 3, "line 3: bad atom 'p,q'"),
    ("worlds: w0\natoms:\n  w0: p _|_\n", 3, "line 3: bad atom '_|_'"),
    # a world name holds no separator of the atoms:, evidence: or order: lines
    ("worlds: a:b c|d\n", 1, "line 1: bad world 'a:b'"),
    ("# x\nworlds: w0 c|d\n", 2, "line 2: bad world 'c|d'"),
    ("worlds: w0 a<=b\n", 1, "line 1: bad world 'a<=b'"),
    # nor is it a section head
    ("worlds: w0 worlds\n", 1, "line 1: bad world 'worlds'"),
    ("worlds: order w0\n", 1, "line 1: bad world 'order'"),
    ("# x\nworlds: w0 atoms\natoms:\n  atoms: p\n", 2, "line 2: bad world 'atoms'"),
    ("worlds: evidence\n", 1, "line 1: bad world 'evidence'"),
    ("worlds: w0 terms\n", 1, "line 1: bad world 'terms'"),
    ("worlds: w0 formulas\natoms:\n  formulas: p\n", 1,
     "line 1: bad world 'formulas'"),
    ("order:\n  w0 <= w1\nworlds: w0 w1\n", 2, "line 2: worlds: must come first"),
    ("worlds: w0 w1\norder:\n  w0 w1\n", 3, "line 3: expected 'w <= v'"),
    ("worlds: w0\nevidence:\n  w9 | x | p\n", 3, "line 3: unknown world 'w9'"),
    # a worlds: header that no line of names follows lists no world
    ("worlds:\n", 1, "line 1: empty worlds list"),
    ("worlds:\natoms:\n  w0: p\n", 1, "line 1: empty worlds list"),
])
def test_model_file_bad_item(text, line, message):
    with pytest.raises(FileFormatError) as exc:
        parse_model(text)
    assert (exc.value.line, str(exc.value)) == (line, message)


@pytest.mark.parametrize("args,message", [
    (((), (), {}), "a model needs at least one world"),
    ((("a", "a"), (), {}), "duplicate world names"),
    ((("a",), (("a", "b"),), {}), r"order pair \(a, b\) uses an unknown world"),
    ((("a",), (), {"b": {"p"}}), "atom valuation uses an unknown world b"),
    ((("a",), (), {}, {"b": {Variable("x"): {Atom("p")}}}),
     "evidence uses an unknown world b"),
])
def test_model_bad_frame(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BasicEvaluation(*args)


# a section head as a world would open that section where it starts an
# atoms: line
@pytest.mark.parametrize("world", ["", "a b", "a\tb", "a:b", "c|d", "w#1", "a<=b",
                                   "worlds", "order", "atoms", "evidence",
                                   "terms", "formulas"])
def test_print_model_rejects_unreadable_world(world):
    m = BasicEvaluation(("w0", world), (), {"w0": set(), world: {"p"}},
                        {world: {Variable("x"): {Atom("p")}}})
    with pytest.raises(ValueError, match="cannot be written"):
        print_model(m)


def test_model_file_worlds_below_header():
    m = parse_model("worlds:\n  w0 w1\norder:\n  w0 <= w1\natoms:\n  w1: p\n")
    assert m.worlds == ("w0", "w1")
    assert parse_model(print_model(m)) == m


def test_world_names_kept_as_given():
    # the order pairs name the worlds as given, as worlds and atoms do
    m = BasicEvaluation((0, 1), [(0, 0), (1, 1), (0, 1)], {})
    assert m.order == {(0, 0), (1, 1), (0, 1)}
    assert str(validate_model(m)) == "valid"
    for model in (m, BasicEvaluation((1,), (), {})):
        with pytest.raises(ValueError, match="cannot be written"):
            print_model(model)


def test_model_file_closes_order():
    text = """worlds: a b c
order:
  a <= b
  b <= c
"""
    m = parse_model(text)
    assert ("a", "c") in m.order
    assert ("a", "a") in m.order


def reference_closure(worlds, pairs):
    """The closure that the walk from each world replaced: every pair of
    pairs rescanned until nothing changes."""
    rel = {(w, w) for w in worlds} | set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return frozenset(rel)


def random_order(rng):
    """Worlds with names against their positions, and random pairs among
    them and a few other names: any relation, cycles included."""
    worlds = [f"w{i}" for i in rng.sample(range(20), rng.randint(1, 7))]
    names = worlds + ["u", "v"][:rng.randint(0, 2)]
    pairs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 12))]
    return worlds, pairs


@pytest.mark.parametrize("seed", range(4))
def test_order_closure_and_validation_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(150):
        worlds, pairs = random_order(rng)
        assert transitive_reflexive_closure(worlds, pairs) == reference_closure(worlds, pairs)
        # an order as given, often invalid, and its closure
        pairs = [(a, b) for a, b in pairs if a in worlds and b in worlds]
        atoms = {w: {"p", "q"} - {rng.choice("pqr")} for w in worlds}
        for order in (pairs, transitive_reflexive_closure(worlds, pairs)):
            m = BasicEvaluation(worlds, order, atoms, cs=CS)
            assert str(validate_model(m)) == reference_validation_text(m)


def test_chain_order_is_quick():
    # a 300-world chain read from its covering pairs and validated; read
    # back from its printed order of every pair, it is the same order
    n = 300
    text = ("worlds: " + " ".join(f"w{i}" for i in range(n)) + "\norder:\n"
            + "".join(f"  w{i} <= w{i + 1}\n" for i in range(n - 1)))
    start = time.perf_counter()
    m = parse_model(text)
    assert validate_model(m).ok
    assert time.perf_counter() - start < 1
    assert len(m.order) == n * (n + 1) // 2
    assert parse_model(print_model(m)).order == m.order


# --- randomized valid models ------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_random_models_monotone(seed):
    rng = random.Random(seed)
    universe = [parse_formula(s) for s in
                ["p \\/ q", "x:p", "p -> q", "y:(p -> q)"]]
    terms = {x, y, Sum(x, y)}
    m = random_valid_model(rng, universe, terms, CS)
    assert validate_model(m).ok
    for a in m.formula_universe:
        for (w, v) in m.order:
            if evaluate_truth(m, w, a):
                assert evaluate_truth(m, v, a)


def reference_truth(m, w, a):
    """Truth at one world straight from the definition, without caching."""
    if isinstance(a, Atom):
        return a.name in m.atoms[w]
    if isinstance(a, Falsum):
        return False
    if isinstance(a, And):
        return reference_truth(m, w, a.left) and reference_truth(m, w, a.right)
    if isinstance(a, Or):
        return reference_truth(m, w, a.left) or reference_truth(m, w, a.right)
    if isinstance(a, Implies):
        return all(
            not reference_truth(m, v, a.left) or reference_truth(m, v, a.right)
            for v in m.worlds if (w, v) in m.order
        )
    return a.body in m.evidence(a.term, w)


@pytest.mark.parametrize("seed", range(20))
def test_truth_sets_match_reference(seed):
    rng = random.Random(seed)
    universe = [parse_formula(s) for s in [
        "p \\/ q -> r", "x:p /\\ (q -> _|_)", "((p -> q) -> p) -> p",
        "y:(p -> q) -> x:p -> y.x:q", "!x:x:p \\/ x + y:r",
    ]]
    m = random_valid_model(rng, universe, {x, y}, CS, max_worlds=5)
    for a in m.formula_universe:
        for w in m.worlds:
            assert evaluate_truth(m, w, a) == reference_truth(m, w, a), (a, w)
