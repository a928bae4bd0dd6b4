"""Prime sets at bounded scale: a layered derivability oracle, primeness
checking, disjunction splitting, saturation toward a prime extension, and
assembly of a bounded canonical-model fragment.

A prime set is consistent, deductively closed, and has the disjunction
property.  Everything here is relative to a finite subformula-closed
formula universe with a fixed enumeration, and to a bounded oracle that
answers sequent queries with a checkable proof, a validated countermodel,
or Unknown.  Unknown is never treated as non-derivability: saturation
declines to add such candidates and records the unresolved query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from jlogic.proof_system import (
    ConstantSpecification,
    Derivable,
    bounded_derive,
    match_axiom,
)
from jlogic.semantics import (
    BasicEvaluation,
    Countermodel,
    close_evidence,
    evaluate_truth,
    falsifying_world,
    find_countermodel,
)
from jlogic.syntax import (
    And,
    Atom,
    FALSUM,
    FileFormatError,
    Formula,
    Implies,
    Just,
    Or,
    Term,
    _Table,
    _sections,
    close_subformulas,
    close_subterms,
    formula_key,
    parse_formula,
    print_formula,
    term_size,
)


class FailedPrecondition(Exception):
    """The saturation base already derives the goal."""


class CapExceeded(Exception):
    """The universe is too large for exhaustive prime-subset enumeration."""


@dataclass(frozen=True)
class FormulaUniverse:
    """Finite subformula-closed set with a fixed total enumeration
    (lexicographic on printed form)."""

    formulas: tuple[Formula, ...]
    formula_set: frozenset[Formula] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "formula_set", frozenset(self.formulas))

    @classmethod
    def from_formulas(cls, formulas) -> "FormulaUniverse":
        closed = close_subformulas(formulas)
        return cls(tuple(sorted(closed, key=formula_key)))

    def __contains__(self, a: Formula) -> bool:
        return a in self.formula_set

    def __iter__(self):
        return iter(self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)


@dataclass(frozen=True)
class RefutedBySemantics:
    """Countermodel whose world makes every hypothesis of the queried
    sequent true and its goal false."""

    countermodel: Countermodel


@dataclass(frozen=True)
class Unknown:
    reason: str


Certificate = Derivable | RefutedBySemantics | Unknown


# The oracle's countermodel search bounds.
ORACLE_MAX_WORLDS = 3
ORACLE_EVIDENCE_BUDGET = 6


class DerivabilityOracle:
    """Layered sequent oracle.  Unless the goal is among the hypotheses,
    a countermodel search on the curried implication at one world comes
    first and answers RefutedBySemantics with a validated model; failing
    that, a bounded proof search answers Derivable with a checkable
    proof; failing that, the countermodel search up to ORACLE_MAX_WORLDS
    worlds answers RefutedBySemantics; failing all, Unknown.

    The order cannot change an answer: a sequent with a validated
    countermodel has no checking proof, and the full search enumerates
    one-world models first, so a one-world hit is its first model too.
    A goal among the hypotheses is derivable, so it skips the search
    that cannot succeed, and bounded_derive answers it with the one-step
    hyp proof before any proof search.  The witness is the first world
    of the model where the sequent fails, read off its truth masks (see
    falsifying_world); AssertionError if there is none.  The oracle keeps
    no answers: its callers record them (BoundedTheory.certificates)."""

    def __init__(self, cs: ConstantSpecification, depth: int):
        self.cs = cs
        self.depth = depth

    def query(self, hyps, goal: Formula) -> Certificate:
        hyps = frozenset(hyps)
        ordered = tuple(sorted(hyps, key=formula_key))
        if goal in hyps:
            return bounded_derive(ordered, goal, self.cs, self.depth)
        chain = goal
        for h in reversed(ordered):
            chain = Implies(h, chain)
        found = find_countermodel(chain, 1, ORACLE_EVIDENCE_BUDGET, self.cs)
        if found is None:
            result = bounded_derive(ordered, goal, self.cs, self.depth)
            if isinstance(result, Derivable):
                return result
            found = find_countermodel(
                chain, ORACLE_MAX_WORLDS, ORACLE_EVIDENCE_BUDGET, self.cs
            )
            if found is None:
                return Unknown(
                    f"no proof at depth {self.depth}; no countermodel "
                    f"within {ORACLE_MAX_WORLDS} worlds"
                )
        witness = falsifying_world(found.model, ordered, goal)
        if witness is None:
            raise AssertionError("countermodel does not falsify the sequent")
        return RefutedBySemantics(Countermodel(found.model, witness))


@dataclass(frozen=True)
class SaturationStep:
    index: int
    candidate: Formula
    added: bool
    certificate: Certificate | None  # None when the candidate was already present


@dataclass
class BoundedTheory:
    """Subset of a formula universe with the oracle evidence gathered
    while building or checking it."""

    universe: FormulaUniverse
    members: frozenset[Formula]
    oracle_bound: int
    certificates: dict[tuple[frozenset[Formula], Formula], Certificate] = field(
        default_factory=dict
    )
    trace: tuple[SaturationStep, ...] = ()


@dataclass(frozen=True)
class PrimeVerdict:
    status: str  # "prime" | "not_prime" | "unknown"
    reason: str = ""

    def __str__(self) -> str:
        return self.status if not self.reason else f"{self.status}: {self.reason}"


def _certificates_unknown(th: BoundedTheory) -> bool:
    return any(isinstance(c, Unknown) for c in th.certificates.values())


def check_prime(th: BoundedTheory, cs: ConstantSpecification) -> PrimeVerdict:
    """Primeness of th.members relative to its universe: consistency,
    the disjunction property, and relative deductive closure via oracle
    queries members |- A for every universe formula A.  The verdict is
    unknown when it rests on an unresolved oracle answer: a closure query
    that came back Unknown, or a missing disjunct whose exclusion during
    saturation was Unknown-based."""
    members = th.members
    if FALSUM in members:
        return PrimeVerdict("not_prime", "contains _|_")
    for a in sorted(members, key=formula_key):
        if isinstance(a, Or) and a.left not in members and a.right not in members:
            if _certificates_unknown(th):
                return PrimeVerdict(
                    "unknown",
                    f"neither disjunct of {print_formula(a)} is present and "
                    "some exclusions were oracle-unresolved",
                )
            return PrimeVerdict(
                "not_prime", f"disjunction property fails for {print_formula(a)}"
            )
    oracle = DerivabilityOracle(cs, th.oracle_bound)
    unknown_reason = None
    for a in th.universe:
        cert = oracle.query(members, a)
        th.certificates[(members, a)] = cert
        if isinstance(cert, Derivable) and a not in members:
            return PrimeVerdict(
                "not_prime",
                f"derivable {print_formula(a)} is missing (closure fails)",
            )
        if isinstance(cert, Unknown) and a not in members and unknown_reason is None:
            unknown_reason = f"closure status of {print_formula(a)} is unresolved"
    if unknown_reason is not None:
        return PrimeVerdict("unknown", unknown_reason)
    return PrimeVerdict("prime")


def split_disjunction(
    n,
    a: Formula,
    b: Formula,
    goal: Formula,
    cs: ConstantSpecification,
    depth: int = 4,
) -> str:
    """Pick a disjunct that can be added without deriving the goal:
    "left" or "right" with a semantic non-derivability certificate for
    the chosen branch, left preferred; "unknown" when neither branch has
    one."""
    n = frozenset(n)
    oracle = DerivabilityOracle(cs, depth)
    if isinstance(oracle.query(n | {a}, goal), RefutedBySemantics):
        return "left"
    if isinstance(oracle.query(n | {b}, goal), RefutedBySemantics):
        return "right"
    return "unknown"


def prime_saturate(
    n,
    goal: Formula,
    u: FormulaUniverse,
    cs: ConstantSpecification,
    k: int,
) -> BoundedTheory:
    """Saturate n toward a prime set avoiding the goal, following the
    universe enumeration: each candidate is added exactly when the oracle
    refutes that the extended set derives the goal.  Derivable answers
    reject the candidate; Unknown answers also reject it (conservative)
    and are recorded.  Raises FailedPrecondition if n already derives
    the goal."""
    members = frozenset(n)
    if not members <= u.formula_set:
        raise ValueError("base is not inside the universe")
    oracle = DerivabilityOracle(cs, k)
    first = oracle.query(members, goal)
    if isinstance(first, Derivable):
        raise FailedPrecondition(
            f"base already derives {print_formula(goal)}"
        )
    certificates = {(members, goal): first}
    trace: list[SaturationStep] = []
    for i, candidate in enumerate(u.formulas):
        if candidate in members:
            trace.append(SaturationStep(i, candidate, True, None))
            continue
        extended = members | {candidate}
        cert = oracle.query(extended, goal)
        certificates[(extended, goal)] = cert
        if isinstance(cert, RefutedBySemantics):
            members = extended
            trace.append(SaturationStep(i, candidate, True, cert))
        else:
            trace.append(SaturationStep(i, candidate, False, cert))
    return BoundedTheory(u, members, k, certificates, tuple(trace))


def inverse_evidence(th: BoundedTheory, t: Term) -> frozenset[Formula]:
    """{A | t:A in members}: the canonical evidence of t at this set."""
    return frozenset(
        a.body for a in th.members if isinstance(a, Just) and a.term == t
    )


# ---------------------------------------------------------------------------
# Bounded canonical model


@dataclass
class CanonicalModel:
    model: BasicEvaluation
    theories: tuple[BoundedTheory, ...]  # parallel to model.worlds
    verdicts: tuple[PrimeVerdict, ...]
    excluded_unknown: tuple[frozenset[Formula], ...]  # candidate sets, unresolved


# The most formulas in a universe that bounded_canonical_model takes unless
# told otherwise (jlogic canonical --cap).  The screen judges all 2^n
# subsets of an n-formula universe, and the ones that pass are kept as
# frozensets until check_prime has judged them: a universe of n independent
# atoms has 2^n prime worlds, so the cap bounds memory as well as time.
CANONICAL_CAP = 24

# The canonical screen judges at most 2 ** _BLOCK_BITS subsets at once, so
# no mask holds more bits than that, whatever the universe size.
_BLOCK_BITS = 16


def _screened_subsets(
    u: FormulaUniverse, cs: ConstantSpecification
) -> list[frozenset[Formula]]:
    """The subsets of u that pass the screen of bounded_canonical_model, by
    size, then in itertools.combinations order.  Bit m of a block's masks
    stands for the subset of the formulas at the set bits of m, and a
    block fixes the formulas past the first _BLOCK_BITS, so has[a], the
    subsets that hold a, is a fixed pattern.  Each rule is one expression
    of masks that marks the subsets holding a premise and lacking what it
    forces; one closure serves the whole block."""
    n, formulas = len(u), u.formulas
    terms = sorted(close_subterms(a.term for a in u if isinstance(a, Just)),
                   key=term_size)
    low = min(n, _BLOCK_BITS)
    full = (1 << (1 << low)) - 1
    # bit m of pattern[i] is bit i of m: fields of 2 ** (i + 1) bits, each
    # with its upper half set
    pattern = [(((1 << half) - 1) << half) * (full // ((1 << 2 * half) - 1))
               for half in (1 << i for i in range(low))]
    subsets = []
    for block in range(1 << (n - low)):
        has = dict(zip(formulas, pattern + [
            full if block >> j & 1 else 0 for j in range(n - low)]))
        seeds: dict[Term, dict[Formula, int]] = {}
        for a, mask in has.items():
            if isinstance(a, Just) and mask:
                seeds.setdefault(a.term, {})[a.body] = mask
        closure = close_evidence(seeds, terms, formulas, cs, full)
        bad = 0
        for a, mask in has.items():
            kind = type(a)
            if kind is Just:  # J-T; the closure's t:B
                bad |= mask & ~has[a.body] | closure[a.term].get(a.body, 0) & ~mask
            elif kind is Implies:  # modus ponens; -> introduction
                right = has[a.right]
                bad |= mask & has[a.left] & ~right | right & ~mask
            elif kind is And:  # /\ elimination; /\ introduction
                both = has[a.left] & has[a.right]
                bad |= mask & ~both | both & ~mask
            elif kind is Or:  # the disjunction property; \/ introduction
                either = has[a.left] | has[a.right]
                bad |= mask & ~either | either & ~mask
            elif a == FALSUM:
                bad |= mask
            if match_axiom(a):
                bad |= ~mask
        # bin() reversed, less its '0b': character m is bit m
        bits = bin(full & ~bad)[:1:-1]
        m = bits.find("1")
        while m >= 0:
            subsets.append(block << low | m)
            m = bits.find("1", m + 1)
    chosen = sorted(([i for i in range(n) if m >> i & 1] for m in subsets),
                    key=lambda ix: (len(ix), ix))
    return [frozenset(formulas[i] for i in ix) for ix in chosen]


def bounded_canonical_model(
    u: FormulaUniverse,
    cs: ConstantSpecification,
    k: int,
    cap: int = CANONICAL_CAP,
) -> CanonicalModel:
    """Canonical-model fragment over u: worlds are the certified-prime
    subsets of u ordered by inclusion, atoms hold by membership, and the
    evidence of t is {A | t:A in the world}.  A screen first drops every
    subset that holds _|_, breaks the disjunction property, or lacks an
    axiom instance or a formula that modus ponens, ->, /\\ or \\/
    introduction, /\\ elimination, J-T or the evidence closure of its t:B
    members (close_evidence: J-App, J-Sum, J-4 and the CS) forces.  What
    it forces is derivable, so it drops no prime set.  check_prime then
    certifies the survivors by size, then in itertools.combinations
    order, which the worlds keep.  excluded_unknown holds the survivors
    whose verdict is unknown: only sets that the closure cannot reject."""
    if len(u) > cap:
        raise CapExceeded(f"universe has {len(u)} formulas; cap is {cap}")

    worlds: list[BoundedTheory] = []
    verdicts: list[PrimeVerdict] = []
    excluded: list[frozenset[Formula]] = []
    for s in _screened_subsets(u, cs):
        th = BoundedTheory(u, s, k)
        verdict = check_prime(th, cs)
        if verdict.status == "prime":
            worlds.append(th)
            verdicts.append(verdict)
        elif verdict.status == "unknown":
            excluded.append(s)

    names = tuple(f"Δ{i}" for i in range(len(worlds)))
    sets = {w: th.members for w, th in zip(names, worlds)}
    order = frozenset((v, w) for v in names for w in names if sets[v] <= sets[w])
    atoms = {w: frozenset(a.name for a in s if isinstance(a, Atom))
             for w, s in sets.items()}
    evidence = {w: {a.term: inverse_evidence(th, a.term)
                    for a in th.members if isinstance(a, Just)}
                for w, th in zip(names, worlds)}
    model = BasicEvaluation(names, order, atoms, base_evidence=evidence,
                            formula_universe=u.formulas, cs=cs)
    return CanonicalModel(model, tuple(worlds), tuple(verdicts), tuple(excluded))


def check_truth_lemma(cm: CanonicalModel) -> list[tuple[str, Formula]]:
    """The bounded truth lemma, "A ∈ Δ iff Δ ⊩ A", over every world Δ of
    cm and every formula A of its universe: the (world, formula) pairs
    where membership and truth disagree, in world order and then universe
    order.  An empty list means the lemma holds."""
    return [(w, a)
            for w, th in zip(cm.model.worlds, cm.theories)
            for a in th.universe
            if (a in th.members) != evaluate_truth(cm.model, w, a)]


# ---------------------------------------------------------------------------
# Universe files


@dataclass(frozen=True)
class UniverseSpec:
    universe: FormulaUniverse
    base: frozenset[Formula]
    goal: Formula | None


def parse_universe(
    text: str, cs: ConstantSpecification | None = None
) -> UniverseSpec:
    """Parse a universe file with sections `universe:` (comma-separated
    formulas), optional `base:`, and optional `goal:` (one formula).  The
    universe is closed under subformulas and extended with the base and
    goal formulas."""
    the_cs = cs if cs is not None else ConstantSpecification.default_schematic()
    table = _Table(the_cs.constants())
    seeds: list[Formula] = []
    base: list[Formula] = []
    goal: Formula | None = None
    heads = ("universe", "base", "goal")
    for lineno, section, line in _sections(
            text, heads, heads, "expected 'universe:', 'base:', or 'goal:'"):
        formulas = table.items(lineno, parse_formula, line)
        if section == "universe":
            seeds += formulas
        elif section == "base":
            base += formulas
        elif line:
            if goal is not None or len(formulas) != 1:
                raise FileFormatError("goal: takes exactly one formula", lineno)
            goal = formulas[0]
    if not seeds and not base:
        raise FileFormatError("missing universe section", 1)
    everything = seeds + base + ([goal] if goal is not None else [])
    return UniverseSpec(
        FormulaUniverse.from_formulas(everything), frozenset(base), goal
    )
