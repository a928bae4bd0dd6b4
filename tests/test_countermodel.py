"""Finite countermodel search: refutations for non-theorems, silence for
axioms, and the validity gate on everything returned."""

import ast
import hashlib
import itertools
import random
from importlib import resources
from pathlib import Path

import pytest

from jlogic import semantics
from jlogic.cli import main
from jlogic.generators import random_formula
from jlogic.proof_system import ConstantSpecification
from jlogic.saturation import parse_universe
from jlogic.semantics import (
    BasicEvaluation,
    UniverseNotClosed,
    evaluate_truth,
    find_countermodel,
    print_model,
    validate_model,
)
from jlogic.syntax import (
    And,
    App,
    Atom,
    Bang,
    Constant,
    Falsum,
    Implies,
    Just,
    Or,
    ParseError,
    Sum,
    close_subterms,
    formula_key,
    parse_formula,
    print_formula,
    subformulas,
    term_key,
    term_size,
)

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
    # the first candidate at one world (no atoms true, no seeds) refutes
    # the goal, so the search closes one seed assignment, not every one
    # within the budget, before validate_model closes the model it returns
    found = find_countermodel(parse_formula("x:" * 22 + "p"), 1)
    assert found is not None and found.world == "w0"
    assert at_validation == [1]
    # a goal with no t:B has one closure, the empty one, and builds none;
    # its third valuation refutes it
    closes.clear()
    at_validation.clear()
    found = find_countermodel(parse_formula("p -> q"), 1)
    assert found is not None and found.world == "w0"
    assert at_validation == [0]


def test_invalid_result_is_an_error(monkeypatch):
    bad = semantics.CheckVerdict(False, ())
    monkeypatch.setattr(semantics, "validate_model", lambda m: bad)
    with pytest.raises(AssertionError):
        find_countermodel(parse_formula("p"), 1)


def test_no_worlds_is_an_error():
    with pytest.raises(ValueError, match="^need at least one world$"):
        find_countermodel(parse_formula("p"), 0)


def test_negative_evidence_budget_is_an_error():
    with pytest.raises(ValueError):
        find_countermodel(parse_formula("p"), 1, evidence_budget=-1)


def test_world_bound_above_max_worlds_is_an_error(monkeypatch):
    # raised before any poset of any size is enumerated
    monkeypatch.setattr(semantics, "_canonical_posets", None)
    assert semantics.MAX_WORLDS == 5
    with pytest.raises(ValueError):
        find_countermodel(parse_formula("p -> p"), semantics.MAX_WORLDS + 1)


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
    for poset in semantics._canonical_posets(n):
        rel = relation(n, poset.up)
        closed = [
            s for s in range(1 << n)
            if all(s >> j & 1 for (i, j) in rel if s >> i & 1)
        ]
        assert list(poset.upsets) == closed
        for s, low, cost in zip(poset.upsets, poset.minima, poset.costs):
            members = [i for i in range(n) if s >> i & 1]
            assert list(low) == [
                i for i in members
                if not any((j, i) in rel for j in members if j != i)
            ]
            assert cost == len(low)
        for mask in range(1 << n):
            members = [j for j in range(n) if mask >> j & 1]
            seeing = sum(1 << i for i in range(n)
                         if any((i, j) in rel for j in members))
            assert poset.frame._below[mask] == seeing, mask


def block_atoms(poset, atom_count):
    """How many atoms vary inside a block of the poset's valuations."""
    inner = 0
    while inner < atom_count and len(poset.upsets) ** (inner + 1) <= semantics._BLOCK:
        inner += 1
    return inner


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_below_matches_below_lane_by_lane(n):
    rng = random.Random(n)
    for poset in semantics._canonical_posets(n):
        inner = block_atoms(poset, 3)
        lanes = semantics._lanes(poset, inner)
        count = len(poset.upsets) ** inner
        for _ in range(5):
            masks = [rng.randrange(1 << n) for _ in range(count)]
            packed = lanes.below[sum(m << (n * v) for v, m in enumerate(masks))]
            assert [packed >> (n * v) & (1 << n) - 1 for v in range(count)] \
                == [poset.frame._below[m] for m in masks]
            assert packed < 1 << n * count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_atoms_decode_to_product_order(n):
    for poset in semantics._canonical_posets(n):
        for inner in sorted({0, 1, block_atoms(poset, 12)}):
            lanes = semantics._lanes(poset, inner)
            valuations = list(itertools.product(poset.upsets, repeat=inner))
            assert lanes.rep == sum(1 << (n * v) for v in range(len(valuations)))
            assert lanes.full == lanes.rep * ((1 << n) - 1)
            decoded = [tuple(mask >> (n * v) & (1 << n) - 1 for mask in lanes.atoms)
                       for v in range(len(valuations))]
            assert decoded == valuations


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_atoms_hold_each_valuation_over_its_chunk(n):
    # lane v * chunk + c is the c-th seed assignment at the v-th valuation
    for poset in semantics._canonical_posets(n):
        for chunk in (2, 5):
            for inner in (0, 1, 2):
                lanes = semantics._lanes(poset, inner, chunk)
                valuations = list(itertools.product(poset.upsets, repeat=inner))
                size = len(valuations) * chunk
                assert lanes.rep == sum(1 << (n * lane) for lane in range(size))
                assert lanes.spread == sum(1 << (n * chunk * v)
                                           for v in range(len(valuations)))
                decoded = [tuple(mask >> (n * lane) & (1 << n) - 1
                                 for mask in lanes.atoms) for lane in range(size)]
                assert decoded == [v for v in valuations for _ in range(chunk)]


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_seed_chunks_decode_to_seed_assignments(monkeypatch, block):
    # full chunks of block lanes, then the rest padded with copies of the
    # last assignment to a power of two, at most block
    monkeypatch.setattr(semantics, "_BLOCK", block)
    monkeypatch.setattr(semantics, "_POSET_CACHE", {})
    for n in (1, 2, 3):
        for poset in semantics._canonical_posets(n):
            for k, budget in ((1, 0), (2, 6), (3, 2)):
                want = list(semantics._seed_assignments(poset.costs, k, budget))
                chunks = list(semantics._seed_chunks(poset, k, budget))
                got = []
                for size, masks in chunks:
                    assert len(masks) == k
                    assert size == block or size == 1 << (size - 1).bit_length() < block
                    got += [tuple(poset.upsets.index(mask >> (n * c) & (1 << n) - 1)
                                  for mask in masks) for c in range(size)]
                    assert all(mask < 1 << n * size for mask in masks)
                assert all(size == block for size, _ in chunks[:-1])
                assert got[:len(want)] == want
                assert got[len(want):] == want[-1:] * (len(got) - len(want))
                assert len(got) - len(want) < chunks[-1][0] / 2


def test_lanes_are_kept_for_few_chunk_sizes(monkeypatch):
    # a search keeps no seed chunks, and _lanes only for chunk sizes that
    # are powers of two
    monkeypatch.setattr(semantics, "_POSET_CACHE", {})
    for i, a in enumerate(evidence_goals(31, 60)):
        find_countermodel(a, 1 + i % 3, 3)
    for n in (1, 2, 3):
        for poset in semantics._canonical_posets(n):
            assert all(chunk & (chunk - 1) == 0 for _, chunk in poset.lanes)


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


# --- the compiled evaluator and the mask closure against references ----------


def reference_close(worlds, order, base_evidence, terms, formula_universe, cs):
    """The evidence closure one world at a time, as {t: {w: frozenset}}:
    the closure that the one over masks of worlds replaced.  A term's
    provisional set at each world is its base plus the condition images
    from its subterms' final sets, and its final set at w is the union of
    the provisional sets at w and at every world u with (u, w) in order.
    terms lists every subterm before its superterms."""
    below = {w: tuple(u for u in worlds if (u, w) in order) for w in worlds}
    derived = {}
    for t in terms:
        if isinstance(t, Constant):
            covered = [a for a in formula_universe if cs.covers(t.name, a)]
        provisional = {}
        for w in worlds:
            s = set(base_evidence.get(w, {}).get(t, ()))
            if isinstance(t, Constant):
                s.update(covered)
            elif isinstance(t, App):
                left = derived[t.left][w]
                right = derived[t.right][w]
                for f in left:
                    if isinstance(f, Implies) and f.left in right:
                        s.add(f.right)
            elif isinstance(t, Sum):
                s |= derived[t.left][w]
                s |= derived[t.right][w]
            elif isinstance(t, Bang):
                s |= {Just(t.inner, b) for b in derived[t.inner][w]}
            provisional[w] = s
        derived[t] = {
            w: frozenset(provisional[w].union(*(provisional[u] for u in below[w])))
            for w in worlds
        }
    return derived


def reference_evaluator(worlds, up, atoms, derived):
    """Truth sets by recursion over the formula, memoized per formula:
    the evaluator that the compiled rows replaced."""
    cache = {}

    def truth_set(a):
        out = cache.get(a)
        if out is not None:
            return out
        if isinstance(a, Atom):
            out = atoms.get(a.name, 0)
        elif isinstance(a, Falsum):
            out = 0
        elif isinstance(a, And):
            out = truth_set(a.left) & truth_set(a.right)
        elif isinstance(a, Or):
            out = truth_set(a.left) | truth_set(a.right)
        elif isinstance(a, Implies):
            bad = truth_set(a.left) & ~truth_set(a.right)
            out = 0
            for i, above in enumerate(up):
                if not above & bad:
                    out |= 1 << i
        elif isinstance(a, Just):
            per_world = derived.get(a.term)
            if per_world is None:
                raise UniverseNotClosed(f"term {a.term} is outside the term universe")
            out = 0
            for i, w in enumerate(worlds):
                if a.body in per_world[w]:
                    out |= 1 << i
        else:
            raise TypeError(f"not a formula: {a!r}")
        cache[a] = out
        return out

    return truth_set


def reference_search(a, max_worlds, evidence_budget, cs=CS):
    """The same enumeration as find_countermodel, judging each candidate
    with a fresh reference_evaluator on its closure and a factivity loop
    over every evidenced formula.  Returns (model, world) or None."""
    f_universe = subformulas(a)
    atom_names = sorted({f.name for f in f_universe if isinstance(f, Atom)})
    pool = sorted(
        ((f.term, f.body) for f in f_universe if isinstance(f, Just)),
        key=lambda tb: (term_key(tb[0]), formula_key(tb[1])),
    )
    t_universe = close_subterms(t for t, _ in pool)
    t_order = sorted(t_universe, key=term_size)
    for n in range(1, max_worlds + 1):
        names = tuple(f"w{i}" for i in range(n))
        for poset in semantics._canonical_posets(n):
            up = poset.up
            order = frozenset((names[i], names[j])
                              for i in range(n) for j in range(n) if up[i] >> j & 1)
            closures = []
            for combo in semantics._seed_assignments(poset.costs, len(pool),
                                                     evidence_budget):
                base = {w: {} for w in names}
                for (t, b), s in zip(pool, combo):
                    for i in poset.minima[s]:
                        base[names[i]].setdefault(t, set()).add(b)
                derived = reference_close(names, order, base, t_order, f_universe, cs)
                evidenced = {}
                for per_world in derived.values():
                    for i, w in enumerate(names):
                        for f in per_world[w]:
                            evidenced[f] = evidenced.get(f, 0) | 1 << i
                closures.append((base, derived, evidenced))
            for valuation in itertools.product(poset.upsets, repeat=len(atom_names)):
                atoms = dict(zip(atom_names, valuation))
                for base, derived, evidenced in closures:
                    truth_set = reference_evaluator(names, up, atoms, derived)
                    refuted = ~truth_set(a) & ((1 << n) - 1)
                    if not refuted or any(
                        need & ~truth_set(f) for f, need in evidenced.items()
                    ):
                        continue
                    m = BasicEvaluation(
                        names, order,
                        {names[i]: {p for p, s in atoms.items() if s >> i & 1}
                         for i in range(n)},
                        base_evidence=base,
                        term_universe=t_universe,
                        formula_universe=f_universe,
                        cs=cs,
                    )
                    return m, names[(refuted & -refuted).bit_length() - 1]
    return None


def goal_literals():
    """Every string constant in the test files that parses as a formula."""
    out = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    out.add(parse_formula(node.value))
                except ParseError:
                    pass
    return sorted(out, key=formula_key)


def random_goals(seed, count):
    rng = random.Random(seed)
    return [random_formula(rng, 2 + i % 3) for i in range(count)]


def oracle_chains(seed, count):
    """count curried sequents h1 -> ... -> hk -> goal as DerivabilityOracle
    builds them, the hypotheses in formula_key order: 0-7 hypotheses and
    a goal outside them, drawn from the universe of a shipped file or of
    two random formulas."""
    root = resources.files("jlogic") / "universes"
    shipped = [parse_universe(path.read_text(), CS).universe.formulas
               for path in sorted(root.iterdir(), key=lambda e: e.name)
               if path.name.endswith(".txt")]
    rng = random.Random(seed)
    chains = []
    for i in range(count):
        if i % 2:
            formulas = rng.choice(shipped)
        else:
            text = ", ".join(str(random_formula(rng, 2, variables=("x", "y")))
                             for _ in range(2))
            formulas = parse_universe(f"universe: {text}\n", CS).universe.formulas
        hyps = rng.sample(formulas, min(rng.randint(0, 7), len(formulas) - 1))
        chain = rng.choice([a for a in formulas if a not in hyps])
        for h in sorted(hyps, key=formula_key, reverse=True):
            chain = Implies(h, chain)
        chains.append(chain)
    return chains


def has_evidence(a):
    return any(isinstance(f, Just) for f in subformulas(a))


def test_search_matches_reference_evaluator():
    searches = [(a, n, 3) for a in goal_literals() for n in (1, 2)]
    searches += [(a, 1 + i % 2, 3) for i, a in enumerate(random_goals(11, 300))]
    searches += [(parse_formula(src), 3, 3) for src in [
        "(p -> q) \\/ (q -> p)",
        "(p -> _|_) \\/ ((p -> _|_) -> _|_)",
        "x:(p \\/ q) -> x:p \\/ x:q",
        "x:p -> x + y:p",
    ]]
    searches += [(a, 3, 3) for a in random_goals(12, 10)]
    # the oracle's one-world searches, with and without t:B
    chains = oracle_chains(13, 300)
    assert 100 < sum(map(has_evidence, chains)) < 200
    searches += [(a, 1, 6) for a in chains]
    found = 0
    for a, n, budget in searches:
        got = find_countermodel(a, n, budget)
        want = reference_search(a, n, budget)
        if want is None:
            assert got is None, print_formula(a)
            continue
        found += 1
        assert got is not None, print_formula(a)
        assert (got.world, print_model(got.model)) == (want[1], print_model(want[0]))
    assert found > 300  # most comparisons are of countermodels


# The benchmark's non-theorem shapes at 3 worlds, the J-axiom goals at 2
# worlds and 200 seeded random goals, with world + print_model of the
# first countermodel of each (or "none"), as the recursive evaluator
# found them.
NON_THEOREMS = [
    "p \\/ (p -> _|_)",
    "((p -> q) -> p) -> p",
    "((p -> _|_) -> _|_) -> p",
    "(p -> q) \\/ (q -> p)",
    "(p -> _|_) \\/ ((p -> _|_) -> _|_)",
    "(x:p -> q) -> x:q",
    "x:(p -> _|_) -> p",
    "x:p -> y:p",
    "p -> x:p",
    "x:(p \\/ q) -> x:p \\/ x:q",
    "(p -> q) -> p",
    "x:(p -> q) -> x:p -> y:q",
]
J_AXIOMS = [
    "x:p -> !x:x:p",
    "x:p -> x + y:p",
    "y:p -> x + y:p",
    "x:p -> p",
    "x:(p -> q) -> y:p -> x.y:q",
    "x:(p -> q) -> x:p -> x.x:q",
]
FIRST_COUNTERMODELS_SHA256 = (
    "c713f08da4f2c892152bfa00d8c9fdb883320fe32cd3b734d04e1588734e2c6a"
)


def test_first_countermodels_pinned():
    searches = [(parse_formula(src), 3, 6) for src in NON_THEOREMS]
    searches += [(parse_formula(src), 2, 6) for src in J_AXIOMS]
    searches += [(a, 1 + i % 2, 3) for i, a in enumerate(random_goals(2016, 200))]
    digest = hashlib.sha256()
    for a, n, budget in searches:
        found = find_countermodel(a, n, budget)
        text = "none\n" if found is None else found.world + "\n" + print_model(found.model)
        digest.update(text.encode())
    assert digest.hexdigest() == FIRST_COUNTERMODELS_SHA256


# Goals whose valuations fill more than one block, each with where its
# first countermodel lies, (worlds, poset position, block, lane, seeded)
# with seeded when its seed assignment is not the first (no seeds), and
# whether reference_search is quick enough to run on it.  The digest is
# of the countermodels that the search judging one candidate at a time
# found.
BLOCK_GOALS = [
    ("x:p -> q \\/ r \\/ p1 \\/ p2", 3, (1, 0, 0, 16, True), True),
    ("x:p0 -> (p1 -> p2) \\/ (p2 -> p1) \\/ p3 \\/ p4", 3, (3, 2, 0, 2675, True), False),
    ("p0 /\\ p1 /\\ p2 /\\ p3 /\\ p4 -> p0", 3, None, True),
    ("p0 -> p1 \\/ (p1 -> _|_) \\/ p2 \\/ p3 \\/ p4 \\/ p5 \\/ p6 \\/ p7", 2,
     (2, 1, 2, 729, False), True),
    ("p1 /\\ p9 -> p0 \\/ p10 \\/ p11 \\/ p12 \\/ p13 \\/ p2 \\/ p3 \\/ p4 \\/ p5 \\/ p6"
     " \\/ p7 \\/ p8", 1, (1, 0, 1, 1, False), True),
    ("p0 -> (p1 -> p2) \\/ (p2 -> p1) \\/ p3 \\/ p4 \\/ p5", 3, (3, 2, 4, 875, False), False),
    ("(p -> q) -> (q -> r) -> p -> r", 5, None, False),
    # bounded width 3: refuted first on one world below four
    ("(p0 -> p1 \\/ p2 \\/ p3) \\/ (p1 -> p0 \\/ p2 \\/ p3) \\/ (p2 -> p0 \\/ p1 \\/ p3)"
     " \\/ (p3 -> p0 \\/ p1 \\/ p2)", 5, (5, 4, 19, 76, False), False),
]
BLOCK_GOALS_SHA256 = "aae031956c48d199427d8f8bfdff1561e2b0140d1097044cfac42a1622227676"


def place(a, found):
    """(worlds, poset position, block, lane, seeded) of a countermodel."""
    m = found.model
    n = len(m.worlds)
    up = tuple(sum(1 << j for j in range(n) if (m.worlds[i], m.worlds[j]) in m.order)
               for i in range(n))
    posets = semantics._canonical_posets(n)
    position = [poset.up for poset in posets].index(up)
    poset = posets[position]
    names = sorted({f.name for f in subformulas(a) if isinstance(f, Atom)})
    valuation = 0
    for name in names:
        mask = sum(1 << i for i, w in enumerate(m.worlds) if name in m.atoms[w])
        valuation = valuation * len(poset.upsets) + poset.upsets.index(mask)
    size = len(poset.upsets) ** block_atoms(poset, len(names))
    seeded = any(m.base_evidence[w] for w in m.worlds)
    return n, position, valuation // size, valuation % size, seeded


def test_block_boundaries_keep_the_first_countermodel():
    digest = hashlib.sha256()
    for src, n, where, quick in BLOCK_GOALS:
        a = parse_formula(src)
        found = find_countermodel(a, n)
        assert (found and place(a, found)) == where, src
        text = "none\n" if found is None else found.world + "\n" + print_model(found.model)
        digest.update(text.encode())
        if quick:
            want = reference_search(a, n, 6)
            assert text == ("none\n" if want is None
                            else want[1] + "\n" + print_model(want[0])), src
    assert digest.hexdigest() == BLOCK_GOALS_SHA256


def test_many_atoms_refuted_at_one_world_return_at_once(monkeypatch):
    # valuation 0 of the one-world poset refutes the goal: one block runs
    runs = []
    real = semantics._run

    def counting(rows, *args):
        runs.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(semantics, "_run", counting)
    goal = parse_formula(" \\/ ".join(f"p{i}" for i in range(14)))
    found = find_countermodel(goal, 5)
    assert found is not None and found.model.worlds == ("w0",)
    assert len(runs) == 1


def evidence_goals(seed, count):
    """count seeded random goals with at least two t:B subformulas."""
    rng = random.Random(seed)
    goals = []
    while len(goals) < count:
        a = random_formula(rng, 3)
        if sum(isinstance(f, Just) for f in subformulas(a)) >= 2:
            goals.append(a)
    return goals


def test_chunk_and_block_boundaries_keep_the_first_countermodel(monkeypatch):
    # small blocks split the seed assignments of a poset into many chunks
    # and a chunk's valuations over many blocks; the posets are rebuilt
    # so that no lanes or chunks of the real block size are reused
    searches = [(parse_formula(src), 3, 6) for src in NON_THEOREMS]
    searches += [(parse_formula(src), 2, 6) for src in J_AXIOMS]
    searches += [(a, 1 + i % 3, 3) for i, a in enumerate(evidence_goals(29, 200))]
    wants = []
    for a, n, budget in searches:
        want = reference_search(a, n, budget)
        wants.append(None if want is None else (want[1], print_model(want[0])))
    assert sum(want is not None for want in wants) > 150
    for block in (1, 3, 64):
        monkeypatch.setattr(semantics, "_BLOCK", block)
        monkeypatch.setattr(semantics, "_POSET_CACHE", {})
        for (a, n, budget), want in zip(searches, wants):
            found = find_countermodel(a, n, budget)
            got = None if found is None else (found.world, print_model(found.model))
            assert got == want, (block, print_formula(a), n)
        test_first_countermodels_pinned()


@pytest.mark.parametrize("src, n", [
    ("x:(p -> q) -> y:p -> x.y:q", 3),  # one chunk, one valuation a block
    ("x:" * 22 + "p", 1),  # 110,056 seed assignments: chunks of _BLOCK
])
def test_masks_hold_at_most_block_lanes(monkeypatch, src, n):
    widest = []
    real = semantics._run

    def bounded(rows, values, atoms, full, below, just):
        real(rows, values, atoms, full, below, just)
        # the rows it wrote and the t:B masks that the search put in values
        widest.append(max(mask.bit_length() for mask in values))
        assert widest[-1] <= full.bit_length() <= semantics._BLOCK * n

    monkeypatch.setattr(semantics, "_run", bounded)
    find_countermodel(parse_formula(src), n)
    assert widest and max(widest) > semantics._BLOCK // 4  # lanes are in use


def test_theorems_with_many_seed_assignments_have_no_countermodel():
    # up to 848 seed assignments on a poset of two worlds, and up to
    # 2,510 on one of four: each poset's fit in one chunk
    assert find_countermodel(
        parse_formula("x:p -> y:q -> z:r -> u:p -> v:q -> q"), 2) is None
    assert find_countermodel(parse_formula("x:(p -> q) -> y:p -> x.y:q"), 4) is None


def test_found_models_have_the_constructors_frame():
    searches = [(src, n) for src in refutable for n in (1, 2, 3)]
    searches += [(src, n) for src, n, where, _ in BLOCK_GOALS
                 if where is not None and n <= 3]
    checked = 0
    for src, n in searches:
        found = find_countermodel(parse_formula(src), n)
        if found is None:
            continue
        checked += 1
        m = found.model
        rebuilt = BasicEvaluation(m.worlds, m.order, m.atoms, m.base_evidence,
                                  m.term_universe, m.formula_universe, m.cs)
        assert rebuilt == m, src
        assert (rebuilt._position, rebuilt._full) == (m._position, m._full), src
        for mask in range(1 << len(m.worlds)):
            assert rebuilt._below[mask] == m._below[mask], (src, mask)
        assert str(validate_model(rebuilt)) == str(validate_model(m)), src
    assert checked == len(searches) - 3  # three goals need two worlds
