"""Finite basic evaluations and basic modular models: evidence closure,
truth evaluation, validation of the order, valuation monotonicity and
factivity, validity over a model, and exhaustive countermodel search.

A basic evaluation is a finite poset of worlds with a monotone atomic
valuation and per-world evidence sets t*_w over a finite subterm-closed
term universe.  Derived evidence is the least family over the base that
satisfies, at every world w:

    (1)  s*_w . t*_w  is a subset of  (s.t)*_w   where X.Y = {A | some
         B -> A in X with B in Y}
    (2)  s*_w and t*_w  are subsets of  (s+t)*_w
    (3)  (c, A) in CS, A in the formula universe  implies  A in c*_w
    (4)  {s:B | B in s*_w}  is a subset of  (!s)*_w

together with upward monotonicity (M2): w <= v implies t*_w is a subset
of t*_v.  A basic modular model is a basic evaluation that is factive:
every formula in an evidence set is true at that world.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import or_

from jlogic.proof_system import (
    ConstantSpecification,
    FileFormatError,
    _file_lines,
    _parse_at,
    _parse_list,
)
from jlogic.syntax import (
    And,
    Atom,
    Bang,
    Constant,
    Falsum,
    Formula,
    Implies,
    Just,
    Or,
    Sum,
    App,
    Term,
    close_subformulas,
    close_subterms,
    formula_key,
    formula_terms,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
    subformulas,
    term_key,
    term_size,
)


class UniverseNotClosed(Exception):
    """A truth or closure query needs a term or formula outside the
    model's universes."""


def transitive_reflexive_closure(worlds, pairs) -> frozenset[tuple[str, str]]:
    """Close an order relation under reflexivity and transitivity."""
    worlds = tuple(worlds)
    rel = {(w, w) for w in worlds} | set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return frozenset(rel)


class BasicEvaluation:
    """Finite basic evaluation over explicit universes.

    The constructor normalizes its inputs: universes are closed under
    subterms/subformulas and extended with every term occurring in the
    base evidence or the formula universe, so that factivity checks can
    always evaluate the evidence formulas.  The order relation is stored
    as given; validate_model checks the partial-order laws.
    """

    def __init__(
        self,
        worlds,
        order,
        atoms,
        base_evidence=None,
        term_universe=(),
        formula_universe=(),
        cs: ConstantSpecification | None = None,
    ):
        self.worlds: tuple[str, ...] = tuple(worlds)
        if not self.worlds:
            raise ValueError("a model needs at least one world")
        if len(set(self.worlds)) != len(self.worlds):
            raise ValueError("duplicate world names")
        known = set(self.worlds)
        self.order: frozenset[tuple[str, str]] = frozenset(
            (str(a), str(b)) for a, b in order
        )
        for a, b in self.order:
            if a not in known or b not in known:
                raise ValueError(f"order pair ({a}, {b}) uses an unknown world")
        self.atoms: dict[str, frozenset[str]] = {
            w: frozenset(atoms.get(w, ())) for w in self.worlds
        }
        for w in atoms or {}:
            if w not in known:
                raise ValueError(f"atom valuation uses an unknown world {w}")

        base: dict[str, dict[Term, frozenset[Formula]]] = {w: {} for w in self.worlds}
        for w, per_term in (base_evidence or {}).items():
            if w not in known:
                raise ValueError(f"evidence uses an unknown world {w}")
            for t, formulas in per_term.items():
                base[w][t] = frozenset(formulas)
        self.base_evidence = base

        ts = set(term_universe)
        for per_term in base.values():
            for t, formulas in per_term.items():
                ts.add(t)
                for a in formulas:
                    ts |= formula_terms(a)
        self.formula_universe: frozenset[Formula] = close_subformulas(formula_universe)
        ts |= {a.term for a in self.formula_universe if isinstance(a, Just)}
        self.term_universe: frozenset[Term] = close_subterms(ts)
        self.cs = cs if cs is not None else ConstantSpecification.default_schematic()

        self._closure: dict[Term, dict[str, frozenset[Formula]]] | None = None
        self._truth_set = None  # the evaluator, built on first use

    def closure(self) -> dict[Term, dict[str, frozenset[Formula]]]:
        if self._closure is None:
            self._closure = _close(
                self.worlds,
                self.order,
                self.base_evidence,
                sorted(self.term_universe, key=term_size),
                self.formula_universe,
                self.cs,
            )
        return self._closure

    def evidence(self, t: Term, w: str) -> frozenset[Formula]:
        """Derived evidence set t*_w."""
        if t not in self.term_universe:
            raise UniverseNotClosed(f"term {t} is outside the term universe")
        return self.closure()[t][w]

    def _fields(self):
        return (
            self.worlds,
            self.order,
            self.atoms,
            self.base_evidence,
            self.term_universe,
            self.formula_universe,
            self.cs,
        )

    def __eq__(self, other):
        return isinstance(other, BasicEvaluation) and self._fields() == other._fields()


def _close(worlds, order, base_evidence, terms, formula_universe, cs):
    """Least evidence family over the base satisfying (1)-(4) and (M2).

    terms is the term universe with every subterm before its superterms
    (sorted by size, say).  One pass over it: a term's provisional set at
    each world is its base plus the exact condition images from its
    subterms' final sets; its final set at w is the union of provisional
    sets at w and all worlds below w.  Subterm finals are complete when a
    composite is processed, so (1)-(4) hold at every world for any order,
    and the union makes the family upward-monotone (M2) whenever the order
    is transitive.  So validate_model checks neither: it checks only that
    the order is a partial order.  Both universes must be closed under
    subterms and subformulas; both callers close them.
    """
    below = {w: tuple(u for u in worlds if (u, w) in order) for w in worlds}
    derived: dict[Term, dict[str, frozenset[Formula]]] = {}
    for t in terms:
        if isinstance(t, Constant):
            covered = [a for a in formula_universe if cs.covers(t.name, a)]
        provisional: dict[str, set[Formula]] = {}
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


def _evaluator(worlds, up, atoms, derived):
    """Truth sets over one basic evaluation, memoized per formula.

    Worlds are bit positions in the order of worlds; up[i] is the set of
    worlds above worlds[i], atoms maps an atom name to the set of worlds
    where it holds, and derived is the evidence closure.  The returned
    function maps a formula to the set of worlds where it holds."""
    cache: dict[Formula, int] = {}

    def truth_set(a: Formula) -> int:
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


def evaluate_truth(m: BasicEvaluation, w: str, a: Formula) -> bool:
    """Truth at a world: falsum is false, atoms by valuation, conjunction
    and disjunction pointwise, implication over all worlds above w, and
    t:A by membership of A in the derived evidence t*_w.

    Computes the set of worlds where a holds, with its subformulas' sets,
    and keeps them in a cache on m that later queries reuse."""
    if w not in m.atoms:
        raise ValueError(f"unknown world {w!r}")
    if m._truth_set is None:
        index = {v: i for i, v in enumerate(m.worlds)}
        up = [0] * len(m.worlds)
        for u, v in m.order:
            up[index[u]] |= 1 << index[v]
        atoms: dict[str, int] = {}
        for i, v in enumerate(m.worlds):
            for p in m.atoms[v]:
                atoms[p] = atoms.get(p, 0) | 1 << i
        m._truth_set = _evaluator(m.worlds, up, atoms, m.closure())
    return bool(m._truth_set(a) >> m.worlds.index(w) & 1)


def check_validity(m: BasicEvaluation, a: Formula) -> bool:
    """True iff a holds at every world (assumes validate_model passed)."""
    return all(evaluate_truth(m, w, a) for w in m.worlds)


@dataclass(frozen=True)
class Violation:
    condition: str
    worlds: tuple[str, ...]
    witness: str

    def __str__(self) -> str:
        return f"{self.condition} at {','.join(self.worlds)}: {self.witness}"


@dataclass(frozen=True)
class CheckVerdict:
    ok: bool
    violations: tuple[Violation, ...]

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "invalid:\n" + "\n".join(f"  {v}" for v in self.violations)


def validate_model(m: BasicEvaluation) -> CheckVerdict:
    """Check the partial-order laws, valuation monotonicity (M1) and
    factivity: what a model's inputs can break.  Evidence monotonicity
    (M2) and closure conditions (1)-(4) hold by construction of the
    closure on a transitive order (see _close), and a non-transitive one
    is reported as such.  Collects every violation rather than stopping
    at the first."""
    out: list[Violation] = []
    rel = m.order
    for w in m.worlds:
        if (w, w) not in rel:
            out.append(Violation("order-reflexivity", (w,), f"{w} <= {w} missing"))
    pairs = sorted(rel)
    for (a, b) in pairs:
        for (c, d) in pairs:
            if b == c and (a, d) not in rel:
                out.append(Violation("order-transitivity", (a, b, d),
                                     f"{a} <= {b} <= {d} but not {a} <= {d}"))
        if a != b and (b, a) in rel and a < b:
            out.append(Violation("order-antisymmetry", (a, b),
                                 f"{a} <= {b} and {b} <= {a}"))
    for (w, v) in pairs:
        for p in sorted(m.atoms[w]):
            if p not in m.atoms[v]:
                out.append(Violation("M1", (w, v), f"atom {p} lost going up"))

    derived = m.closure()
    terms = sorted(m.term_universe, key=term_key)
    for w in m.worlds:
        for t in terms:
            for a in sorted(derived[t][w], key=formula_key):
                if not evaluate_truth(m, w, a):
                    out.append(Violation("factivity", (w,),
                                         f"{print_formula(a)} in {print_term(t)}* "
                                         f"but false"))
    return CheckVerdict(not out, tuple(out))


# ---------------------------------------------------------------------------
# Countermodel search


@dataclass(frozen=True)
class Countermodel:
    model: BasicEvaluation
    world: str


_POSET_CACHE: dict[int, list[tuple]] = {}


def _canonical_posets(n: int) -> list[tuple]:
    """All partial orders on n worlds up to isomorphism, each in its
    canonical labelling, sorted by canonical code, as entries (up, upsets,
    minima, costs).  up[i] is the mask of world i and the worlds above it;
    upsets are the up-closed masks in increasing order, minima their
    minimal worlds, and costs how many minimal worlds each has.

    Built from world n-1 down, up[i] is 1 << i or'ed with the up[j] of
    some worlds j > i: such an order is transitive and antisymmetric by
    construction, and every poset has one (a linear extension).  The
    canonical code is the least sum of up[i] << (i * n) over relabellings."""
    if n in _POSET_CACHE:
        return _POSET_CACHE[n]
    orders = {()}  # up[i + 1:] for the worlds built so far
    for i in reversed(range(n)):
        orders = {
            (reduce(or_, itertools.compress(tail, pick), 1 << i),) + tail
            for tail in orders
            for pick in itertools.product((0, 1), repeat=len(tail))
        }
    images = [
        (p, [sum(1 << p[j] for j in range(n) if m >> j & 1) for m in range(1 << n)])
        for p in itertools.permutations(range(n))
    ]
    codes = {min(sum(image[m] << (p[i] * n) for i, m in enumerate(up))
                 for p, image in images) for up in orders}
    out = []
    for code in sorted(codes):
        up = tuple(code >> (i * n) & ((1 << n) - 1) for i in range(n))
        upsets = tuple(s for s in range(1 << n)
                       if all(up[i] & ~s == 0 for i in range(n) if s >> i & 1))
        below = [sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n)]
        minima = tuple(
            tuple(i for i in range(n) if s & below[i] == 1 << i) for s in upsets
        )
        out.append((up, upsets, minima, tuple(map(len, minima))))
    _POSET_CACHE[n] = out
    return out


def _seed_assignments(costs, k: int, budget: int):
    """Every k-tuple of indices into costs whose costs sum to at most
    budget, in the order of itertools.product."""
    if k == 0:
        yield ()
        return
    for s, cost in enumerate(costs):
        if cost <= budget:
            for rest in _seed_assignments(costs, k - 1, budget - cost):
                yield (s,) + rest


def find_countermodel(
    a: Formula,
    max_worlds: int,
    evidence_budget: int = 6,
    cs: ConstantSpecification | None = None,
) -> Countermodel | None:
    """Search for a basic modular model falsifying a at some world.

    Deterministic exhaustive enumeration: posets by world count then
    canonical code; atom valuations over upsets, lexicographically in
    atom order; evidence seed assignments innermost.  Seeds range over
    the Just-subformulas of a, each placed at the minimal worlds of an
    upset, with the total seed count capped by evidence_budget.

    Each candidate is judged on sets of worlds: the evaluator behind
    evaluate_truth runs on the evidence closure of the seed assignment,
    built when the first valuation of a poset meets it and reused by the
    later ones.  The order laws, M1, M2 and conditions (1)-(4) hold
    by construction (canonical posets, upset valuations, _close), so a
    candidate is kept when a fails at some world and the candidate is
    factive.  Only the model about to be returned goes through
    validate_model, which re-checks the order, M1 and factivity; the
    search raises AssertionError if that fails.  So a result
    certifies that a is not a theorem; None means no countermodel exists
    in the searched space, not that a is valid.
    """
    if max_worlds < 1:
        raise ValueError("need at least one world")
    if evidence_budget < 0:
        raise ValueError("the evidence budget must be at least 0")
    cs = cs if cs is not None else ConstantSpecification.default_schematic()
    f_universe = subformulas(a)
    atom_names = sorted({f.name for f in f_universe if isinstance(f, Atom)})
    justs = [f for f in f_universe if isinstance(f, Just)]
    pool = sorted(
        ((f.term, f.body) for f in justs),
        key=lambda tb: (term_key(tb[0]), formula_key(tb[1])),
    )
    t_universe = close_subterms(f.term for f in justs)
    t_order = sorted(t_universe, key=term_size)

    for n in range(1, max_worlds + 1):
        names = tuple(f"w{i}" for i in range(n))
        for up, upsets, minima, costs in _canonical_posets(n):
            order = frozenset((names[i], names[j])
                              for i in range(n) for j in range(n) if up[i] >> j & 1)
            closures = []

            def seeded():
                """The closure of each seed assignment, built on the first
                valuation pass and kept in closures for the later ones."""
                for combo in _seed_assignments(costs, len(pool), evidence_budget):
                    base: dict[str, dict[Term, set[Formula]]] = {w: {} for w in names}
                    for (t, b), s in zip(pool, combo):
                        for i in minima[s]:
                            base[names[i]].setdefault(t, set()).add(b)
                    derived = _close(names, order, base, t_order, f_universe, cs)
                    # factivity: each formula must hold wherever it is evidenced
                    evidenced: dict[Formula, int] = {}
                    for per_world in derived.values():
                        for i, w in enumerate(names):
                            for f in per_world[w]:
                                evidenced[f] = evidenced.get(f, 0) | 1 << i
                    closures.append((base, derived, evidenced))
                    yield base, derived, evidenced

            valuations = itertools.product(upsets, repeat=len(atom_names))
            for k, valuation in enumerate(valuations):
                atoms = dict(zip(atom_names, valuation))
                for base, derived, evidenced in closures if k else seeded():
                    truth_set = _evaluator(names, up, atoms, derived)
                    refuted = ~truth_set(a) & ((1 << n) - 1)
                    if not refuted or any(
                        need & ~truth_set(f) for f, need in evidenced.items()
                    ):
                        continue
                    m = BasicEvaluation(
                        names,
                        order,
                        {
                            names[i]: frozenset(
                                p for p, s in atoms.items() if s >> i & 1
                            )
                            for i in range(n)
                        },
                        base_evidence=base,
                        term_universe=t_universe,
                        formula_universe=f_universe,
                        cs=cs,
                    )
                    verdict = validate_model(m)
                    if not verdict.ok:
                        raise AssertionError(
                            f"countermodel search built an invalid model: {verdict}"
                        )
                    world = names[(refuted & -refuted).bit_length() - 1]
                    return Countermodel(m, world)
    return None


# ---------------------------------------------------------------------------
# Model files


def print_model(m: BasicEvaluation) -> str:
    """Render a model in the section format accepted by parse_model.
    Evidence lines show the base seeds, not the derived closure."""
    lines = ["worlds: " + " ".join(m.worlds)]
    strict = sorted((a, b) for (a, b) in m.order if a != b)
    if strict:
        lines.append("order:")
        for a, b in strict:
            lines.append(f"  {a} <= {b}")
    if any(m.atoms[w] for w in m.worlds):
        lines.append("atoms:")
        for w in m.worlds:
            if m.atoms[w]:
                lines.append(f"  {w}: " + " ".join(sorted(m.atoms[w])))
    ev_lines = []
    for w in m.worlds:
        for t in sorted(m.base_evidence[w], key=term_key):
            formulas = m.base_evidence[w][t]
            if formulas:
                ev_lines.append(
                    f"  {w} | {print_term(t)} | "
                    + ", ".join(sorted(print_formula(a) for a in formulas))
                )
    if ev_lines:
        lines.append("evidence:")
        lines.extend(ev_lines)
    extra_t = sorted(m.term_universe, key=term_key)
    if extra_t:
        lines.append("terms: " + ", ".join(print_term(t) for t in extra_t))
    extra_f = sorted(m.formula_universe, key=formula_key)
    if extra_f:
        lines.append("formulas: " + ", ".join(print_formula(a) for a in extra_f))
    return "\n".join(lines) + "\n"


def parse_model(
    text: str,
    cs: ConstantSpecification | None = None,
) -> BasicEvaluation:
    """Parse the sectioned model format:

        worlds: w0 w1
        order:
          w0 <= w1
        atoms:
          w1: p q
        evidence:
          w0 | x | p, p -> q
        terms: x, y            (optional extra universe terms)
        formulas: x:p          (optional extra universe formulas)

    The order is closed under reflexivity and transitivity on load.  The
    constant specification defaults to the schematic one; pass cs to
    override.
    """
    worlds: tuple[str, ...] | None = None
    pairs: list[tuple[str, str]] = []
    atoms: dict[str, set[str]] = {}
    evidence: dict[str, dict[Term, set[Formula]]] = {}
    terms: list[Term] = []
    formulas: list[Formula] = []
    the_cs = cs if cs is not None else ConstantSpecification.default_schematic()
    declared = the_cs.constants()
    section = None
    for lineno, line in _file_lines(text):
        head, sep, rest = line.partition(":")
        if sep and head in ("worlds", "order", "atoms", "evidence", "terms", "formulas"):
            section = head
            rest = rest.strip()
            if not rest:
                continue
            line = rest
            if section in ("order", "atoms", "evidence"):
                raise FileFormatError(f"section {head}: takes indented lines", lineno)
        elif section is None:
            raise FileFormatError("expected a section header", lineno)

        if section == "worlds":
            if worlds is not None:
                raise FileFormatError("duplicate worlds section", lineno)
            worlds = tuple(line.split())
            if not worlds:
                raise FileFormatError("empty worlds list", lineno)
            continue
        if worlds is None:
            raise FileFormatError("worlds: must come first", lineno)
        if section == "order":
            parts = line.split("<=")
            if len(parts) != 2:
                raise FileFormatError("expected 'w <= v'", lineno)
            a, b = parts[0].strip(), parts[1].strip()
            if a not in worlds or b not in worlds:
                raise FileFormatError(f"unknown world in '{line}'", lineno)
            pairs.append((a, b))
        elif section == "atoms":
            w, _, names = line.partition(":")
            w = w.strip()
            if w not in worlds:
                raise FileFormatError(f"unknown world {w!r}", lineno)
            atoms.setdefault(w, set()).update(names.split())
        elif section == "evidence":
            # formulas may contain "_|_", so only the first two bars separate
            parts = [p.strip() for p in line.split("|", 2)]
            if len(parts) != 3:
                raise FileFormatError("expected 'w | term | formulas'", lineno)
            w, ttext, ftext = parts
            if w not in worlds:
                raise FileFormatError(f"unknown world {w!r}", lineno)
            t = _parse_at(lineno, parse_term, ttext, declared)
            fs = _parse_list(lineno, parse_formula, ftext, declared)
            evidence.setdefault(w, {}).setdefault(t, set()).update(fs)
        elif section == "terms":
            terms += _parse_list(lineno, parse_term, line, declared)
        elif section == "formulas":
            formulas += _parse_list(lineno, parse_formula, line, declared)
    if worlds is None:
        raise FileFormatError("missing worlds section", 1)
    order = transitive_reflexive_closure(worlds, pairs)
    return BasicEvaluation(
        worlds,
        order,
        atoms,
        base_evidence=evidence,
        term_universe=terms,
        formula_universe=formulas,
        cs=the_cs,
    )
