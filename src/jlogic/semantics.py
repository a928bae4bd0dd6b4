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

Sets of worlds are masks throughout: bit i stands for the i-th world.
The closure gives each t* as {A: mask}, the worlds where A is in t*, and
a formula's truth set is a mask, so factivity is one test of masks per
evidenced formula, and a t:B formula holds on the mask of B in t*.

A model has one frame, built by its constructor: the world positions,
the order as one _Below table (each world's up mask, and below[mask]
for implications), the mask of every world and the atoms' masks.  The
closure, the truth masks and validation all read it.  Each canonical
poset of countermodel search has its frame too, built by the same
constructor once per poset, which the models found on the poset share,
and packed tables that judge a block of (valuation, seed assignment)
pairs at once (see _Lanes); a search packs the poset's seed assignments
in chunks as it reaches them (see _seed_chunks).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import NamedTuple

from jlogic.proof_system import ConstantSpecification
from jlogic.syntax import (
    And,
    Atom,
    Bang,
    Constant,
    Falsum,
    FileFormatError,
    Formula,
    Implies,
    Just,
    Or,
    Sum,
    App,
    Term,
    _Table,
    _sections,
    close_subformulas,
    close_subterms,
    formula_key,
    formula_terms,
    identifier_kind,
    parse_formula,
    parse_term,
    term_key,
    term_size,
)


class UniverseNotClosed(Exception):
    """A truth or closure query needs a term or formula outside the
    model's universes."""


def transitive_reflexive_closure(worlds, pairs) -> frozenset[tuple[str, str]]:
    """Close an order relation under reflexivity and transitivity: each
    world sees itself and every world that a walk along pairs reaches from
    it, the walk kept as masks of the worlds seen and still to visit."""
    worlds, pairs = tuple(worlds), tuple(pairs)
    names = tuple(dict.fromkeys(worlds + tuple(itertools.chain.from_iterable(pairs))))
    index = {w: i for i, w in enumerate(names)}
    succ = [0] * len(names)
    for a, b in pairs:
        succ[index[a]] |= 1 << index[b]
    rel = {(w, w) for w in worlds}
    for a, todo in zip(names, succ):
        seen = 0
        while todo:
            low = todo & -todo
            seen |= low
            todo = (todo | succ[low.bit_length() - 1]) & ~seen
        rel.update((a, b) for i, b in enumerate(names) if seen >> i & 1)
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
        self._position = {w: i for i, w in enumerate(self.worlds)}
        if len(self._position) != len(self.worlds):
            raise ValueError("duplicate world names")
        self.order: frozenset[tuple[str, str]] = frozenset(
            (a, b) for a, b in order
        )
        up = [0] * len(self.worlds)  # up[i]: the worlds that world i sees
        for a, b in self.order:
            i, j = self._position.get(a), self._position.get(b)
            if i is None or j is None:
                raise ValueError(f"order pair ({a}, {b}) uses an unknown world")
            up[i] |= 1 << j
        self._below = _Below(up)
        self._full = (1 << len(self.worlds)) - 1
        self.atoms: dict[str, frozenset[str]] = {
            w: frozenset(atoms.get(w, ())) for w in self.worlds
        }
        self._atom_masks: dict[str, int] = {}
        for w in atoms:
            i = self._position.get(w)
            if i is None:
                raise ValueError(f"atom valuation uses an unknown world {w}")
            for p in self.atoms[w]:
                self._atom_masks[p] = self._atom_masks.get(p, 0) | 1 << i

        base: dict[str, dict[Term, frozenset[Formula]]] = {w: {} for w in self.worlds}
        for w, per_term in (base_evidence or {}).items():
            if w not in self._position:
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

        self._closure: dict[Term, dict[Formula, int]] | None = None
        # the compiled truth rows (see _compile), grown on demand by _mask,
        # and the masks of the rows that have run
        self._rows: list = []
        self._index: dict[Formula, int] = {}
        self._values: list[int] = []

    @classmethod
    def _found(cls, poset, atom_masks, base_evidence, term_universe,
               formula_universe, cs, rows, index):
        """A model that countermodel search built on a canonical poset,
        with the frame of poset.frame, from inputs that hold what the
        constructor would make of them: the atoms as {name: mask}, the
        base as {world: {term: frozenset}} for every world, and universes
        that are closed and hold every term of the base and of the t:B
        formulas.  rows and index are the search's compiled rows of the
        formula universe, run on the first query.  Every model found on a
        poset shares the frame model's _position and _below: nothing
        writes to them but _Below's memo of a pure function."""
        frame = poset.frame
        m = cls.__new__(cls)
        m.worlds = worlds = frame.worlds
        m._position = frame._position
        m.order = frame.order
        m._below = frame._below
        m._full = frame._full
        m._atom_masks = atom_masks
        m.atoms = {w: frozenset(p for p, mask in atom_masks.items() if mask >> i & 1)
                   for i, w in enumerate(worlds)}
        m.base_evidence = base_evidence
        m.term_universe = term_universe
        m.formula_universe = formula_universe
        m.cs = cs
        m._closure = None
        m._rows, m._index, m._values = rows, index, []
        return m

    def closure(self) -> dict[Term, dict[Formula, int]]:
        """The derived evidence of every term of the universe as {A: mask},
        the mask of the worlds w with A in t*_w (see _close); a formula in
        no t*_w has no entry.  A seed at world w is placed at w and every
        world that w sees, an upset on a transitive order.  Built on first
        use."""
        if self._closure is None:
            up = self._below.up
            base: dict[Term, dict[Formula, int]] = {}
            for w, per_term in self.base_evidence.items():
                i = self._position[w]
                seen = 1 << i | up[i]
                for t, formulas in per_term.items():
                    seeds = base.setdefault(t, {})
                    for a in formulas:
                        seeds[a] = seeds.get(a, 0) | seen
            self._closure = _close(
                base,
                sorted(self.term_universe, key=term_size),
                self.formula_universe,
                self.cs,
                self._full,
            )
        return self._closure

    def evidence(self, t: Term, w: str) -> frozenset[Formula]:
        """Derived evidence set t*_w, read off the masks of closure()."""
        if t not in self.term_universe:
            raise UniverseNotClosed(f"term {t} is outside the term universe")
        bit = 1 << self._world(w)
        return frozenset(a for a, mask in self.closure()[t].items() if mask & bit)

    def _world(self, w: str) -> int:
        """The position of world w; ValueError if the model has no w."""
        i = self._position.get(w)
        if i is None:
            raise ValueError(f"unknown world {w!r}")
        return i

    def _mask(self, a: Formula) -> int:
        """The mask of the worlds where a holds, read from the compiled
        rows.  A formula not met before appends its rows and those of its
        subformulas not met before, and a query first runs the rows that
        have not run; a query that fails drops them again."""
        row = self._index.get(a)
        if row is None or row >= len(self._values):
            rows, index, values = self._rows, self._index, self._values
            start = len(values)
            try:
                _compile((a,), rows, index)
                values += [0] * (len(rows) - start)
                _run(rows[start:], values, self._atom_masks, self._full, self._below,
                     lambda t, body: _just_mask(self.closure(), t, body))
            except BaseException:
                # drop the rows that have not run, whose masks are unset
                del rows[start:], values[start:]
                for f in [f for f, i in index.items() if i >= start]:
                    del index[f]
                raise
            row = index[a]
        return self._values[row]

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


# ---------------------------------------------------------------------------
# Truth evaluation
#
# Formulas are compiled into rows (i, op, left, right), each row after the
# rows of its operands: op is the node's class; left and right are the
# operands' rows for And, Or and Implies, the name for an Atom, and the
# term and the body for t:B.  Evaluating a row gives its mask: bit i is
# set when the formula holds at the i-th world.  t:B holds where B is in
# t*, whatever the truth of B, so a t:B row is a leaf: it reads the
# evidence closure and no other row.

_OPERANDS_DONE = object()  # on _compile's stack, above a composite formula


def _compile(formulas, rows: list, index: dict) -> None:
    """Append to rows a row for each of formulas and each subformula
    below them up to the t:B rows, unless index already has it, and
    record its position in index.  One post-order walk with an explicit
    stack: a composite formula goes back on the stack under a marker,
    above its operands, and gets its row when the marker comes off, from
    the rows of its operands, which are then the last two on done."""
    stack = list(formulas)
    done = []  # the row of each formula walked, the latest last
    while stack:
        f = stack.pop()
        if f is _OPERANDS_DONE:
            f = stack.pop()
            kind = type(f)
            right = done.pop()
            left = done.pop()
        else:
            row = index.get(f)
            if row is not None:
                done.append(row)
                continue
            kind = type(f)
            if kind is Implies or kind is And or kind is Or:
                stack += (f, _OPERANDS_DONE, f.right, f.left)
                continue
            if kind is Atom:
                left, right = f.name, None
            elif kind is Just:
                left, right = f.term, f.body
            elif kind is Falsum:
                left = right = None
            else:
                raise TypeError(f"not a formula: {f!r}")
        row = index[f] = len(rows)
        rows.append((row, kind, left, right))
        done.append(row)


def _run(rows, values: list, atoms: dict, full: int, below, just) -> None:
    """Evaluate rows in order, writing each row's mask into values.
    atoms maps an atom name to its mask, full is the mask of every
    world, below[mask] is the mask of the worlds that see some world in
    mask, and just(t, B) is the mask of t:B.  A -> B fails exactly at
    the worlds that see a world where A holds and B does not."""
    for i, op, left, right in rows:
        if op is Implies:
            values[i] = full & ~below[values[left] & ~values[right]]
        elif op is And:
            values[i] = values[left] & values[right]
        elif op is Or:
            values[i] = values[left] | values[right]
        elif op is Atom:
            values[i] = atoms.get(left, 0)
        elif op is Just:
            values[i] = just(left, right)
        else:
            values[i] = 0


class _Below(dict):
    """below[mask]: the mask of the worlds i with up[i] & mask, that is,
    the worlds that see some world in mask.  Filled on demand."""

    def __init__(self, up):
        self.up = up

    def __missing__(self, mask: int) -> int:
        out = 0
        for i, above in enumerate(self.up):
            if above & mask:
                out |= 1 << i
        self[mask] = out
        return out


def _close(base, terms, formula_universe, cs, full):
    """Least evidence family over the base satisfying (1)-(4), as
    {t: {A: mask}}: bit i of the mask is set when A is in t* at the
    i-th world, and a formula in t* at no world has no entry.

    base maps a term to {A: mask} of its seeds, each mask non-zero,
    terms is the term universe with every subterm before its superterms
    (sorted by size, say), and full is the mask of every world.  One
    pass over terms: a term's mask of a formula is its base mask or'ed
    with the exact condition images from its subterms' masks.
    Application intersects the masks of B -> A and B (an A with several
    such B's gets the union), sum ors the masks of its operands, !s
    carries the mask of each B in s* over to s:B, and a constant gets
    every world for each formula of the universe that cs covers.
    Subterm masks are complete when a composite is processed, so (1)-(4)
    hold at every world.  Both universes must be closed under subterms
    and subformulas; every caller closes them.

    The closure never reads an order: upsets in, upsets out.  &, |, a
    copy and full each keep upsets, so when every seed mask is an upset
    of an order, every mask of the result is one, and the family is
    upward-monotone (M2).  A model places each seed at its world and
    every world that world sees (see BasicEvaluation.closure), an upset
    when the order is transitive, reflexive or not; countermodel search
    seeds upsets; the canonical screen's points have no order between
    them.  Every family with M2 holds a seed at every world above the
    seed's own, so on a transitive order this is the least family over
    the seeds satisfying (1)-(4) and M2, and validate_model checks
    neither: it checks only that the order is a partial order.  On an
    order that is not transitive, the rules apply world by world to the
    seeds placed one step up, with no union step, and validate_model
    reports the order.

    Every operation on masks here acts bit by bit, so the closure of
    seeds packed in lanes of n bits is the closure of each lane's seeds,
    provided full is every world in every lane.  One call then closes a
    chunk of seed assignments at once (see find_countermodel).  A new
    rule must keep to &, |, copies and full.
    """
    derived: dict[Term, dict[Formula, int]] = {}
    for t in terms:
        derived[t] = masks = dict(base.get(t, ()))
        kind = type(t)
        if kind is Constant:
            for a in cs.instances_for(t.name, formula_universe):
                masks[a] = full
        elif kind is App:
            right = derived[t.right]
            for f, mask in derived[t.left].items():
                if type(f) is Implies:
                    both = mask & right.get(f.left, 0)
                    if both:
                        masks[f.right] = masks.get(f.right, 0) | both
        elif kind is Sum:
            for side in (derived[t.left], derived[t.right]):
                for a, mask in side.items():
                    masks[a] = masks.get(a, 0) | mask
        elif kind is Bang:
            for b, mask in derived[t.inner].items():
                f = Just(t.inner, b)
                masks[f] = masks.get(f, 0) | mask
    return derived


close_evidence = _close


def _just_mask(derived, t: Term, body: Formula) -> int:
    """The mask of t:body: the worlds w where body is in t*_w."""
    per_term = derived.get(t)
    if per_term is None:
        raise UniverseNotClosed(f"term {t} is outside the term universe")
    return per_term.get(body, 0)


def evaluate_truth(m: BasicEvaluation, w: str, a: Formula) -> bool:
    """Truth at a world: falsum is false, atoms by valuation, conjunction
    and disjunction pointwise, implication over all worlds above w, and
    t:A by membership of A in the derived evidence t*_w.

    Reads the mask of a from the compiled rows kept on m, which run over
    m's frame.  The first query of a formula compiles it, with every
    subformula that no earlier query reached, and evaluates just those
    rows, without recursion.  Raises ValueError for a world m lacks,
    UniverseNotClosed for a t:B whose t is outside the term universe, and
    TypeError for what is not a formula."""
    i = m._world(w)
    return bool(m._mask(a) >> i & 1)


def check_validity(m: BasicEvaluation, a: Formula) -> bool:
    """True iff a holds at every world (assumes validate_model passed)."""
    return m._mask(a) == m._full


def falsifying_world(m: BasicEvaluation, hyps, goal: Formula) -> str | None:
    """The first world of m, in m.worlds order, where every formula of
    hyps holds and goal fails, or None if there is none.  Read off the
    truth masks: the AND of the hypotheses' masks with the complement of
    the goal's, at its lowest set bit.  Raises UniverseNotClosed for a
    t:B whose t is outside the term universe, and TypeError for what is
    not a formula."""
    holds = m._full
    for h in hyps:
        holds &= m._mask(h)
    refuted = holds & ~m._mask(goal)
    if not refuted:
        return None
    return m.worlds[(refuted & -refuted).bit_length() - 1]


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
    closure on a transitive order, whose seeds are upsets (see _close),
    and a non-transitive one is reported as such.  Collects every
    violation rather than stopping at the first.

    The order and M1 violations are sorted only when there are some: by
    order pair, then the world d of a transitivity failure (before the
    pair's antisymmetry failure) or the lost atom of M1, which is the
    order of a walk over the sorted pairs, and then the sorted worlds or
    atoms.  M1 is one set difference per pair.  Factivity is one test
    per evidenced formula A of a term t: the worlds of A's mask in t*
    where A is false.  Only the failures are sorted, by world position,
    term_key and formula_key, which is the order of a walk over the
    worlds, then the sorted terms, then the sorted false formulas."""
    out: list[Violation] = []
    rel, position, atoms = m.order, m._position, m.atoms
    for w in m.worlds:
        if (w, w) not in rel:
            out.append(Violation("order-reflexivity", (w,), f"{w} <= {w} missing"))
    sees = m._below.up  # sees[i]: the worlds that world i sees, a mask
    found = []  # (sort key, violation) of the order and M1 failures
    for a, b in rel:
        missing = sees[position[b]] & ~sees[position[a]]  # d: b <= d, not a <= d
        while missing:
            d = m.worlds[(missing & -missing).bit_length() - 1]
            found.append(((0, a, b, 0, d), Violation(
                "order-transitivity", (a, b, d),
                f"{a} <= {b} <= {d} but not {a} <= {d}")))
            missing &= missing - 1
        if a < b and (b, a) in rel:
            found.append(((0, a, b, 1), Violation(
                "order-antisymmetry", (a, b), f"{a} <= {b} and {b} <= {a}")))
        for p in atoms[a] - atoms[b]:
            found.append(((1, a, b, p),
                          Violation("M1", (a, b), f"atom {p} lost going up")))
    if found:
        found.sort(key=lambda kv: kv[0])
        out += [v for _, v in found]

    failures = []  # (world position, printed term, printed formula)
    for t, per_term in m.closure().items():
        for a, mask in per_term.items():
            false = mask & ~m._mask(a)
            while false:
                low = false & -false
                failures.append((low.bit_length() - 1, term_key(t), formula_key(a)))
                false ^= low
    for i, t, a in sorted(failures):
        out.append(Violation("factivity", (m.worlds[i],), f"{a} in {t}* but false"))
    return CheckVerdict(not out, tuple(out))


# ---------------------------------------------------------------------------
# Countermodel search


@dataclass(frozen=True)
class Countermodel:
    model: BasicEvaluation
    world: str


# The most worlds that countermodel search takes.  Enumerating the posets
# relabels each order in all n! ways: 0.04 s at 5 worlds, 4 s at 6.
MAX_WORLDS = 5

# The most lanes that countermodel search judges at once: a block packs one
# lane of n bits per (valuation, seed assignment) pair into every row's
# mask, so a row never holds more than _BLOCK * n bits, whatever the atom
# count and the number of seed assignments.
_BLOCK = 4096


def _repeat(width: int, count: int) -> int:
    """Bit 0 of each of count fields of width bits."""
    return ((1 << width * count) - 1) // ((1 << width) - 1)


class _LaneBelow:
    """below[x] for an x packed in lanes of n bits: in every lane, the
    mask of the worlds that see some world of that lane's part of x.
    Each world sees itself, and for a strict pair (i, j) of the order,
    where i < j in a canonical labelling (see _canonical_posets), bit j
    of every lane moves down to bit i; all the pairs at one distance
    j - i move with one mask-and-shift."""

    __slots__ = ("shifts",)

    def __init__(self, up, rep: int):
        by_distance: dict[int, int] = {}
        for i, above in enumerate(up):
            for j in range(i + 1, len(up)):
                if above >> j & 1:
                    by_distance[j - i] = by_distance.get(j - i, 0) | rep << j
        self.shifts = tuple(by_distance.items())

    def __getitem__(self, x: int) -> int:
        out = x
        for distance, mask in self.shifts:
            out |= (x & mask) >> distance
        return out


class _Lanes(NamedTuple):
    """A poset's tables for judging a block of (valuation, seed
    assignment) pairs at once, where the last `inner` atoms vary, the
    earlier ones are fixed, and a chunk of `chunk` seed assignments
    goes with every valuation: the c-th assignment at the v-th valuation
    of the block, in the order of itertools.product, lives in bits n*l ..
    n*l+n-1 of every mask, its lane, where l = v * chunk + c.  rep has
    bit 0 of every lane, so mask * rep puts a world mask in every lane;
    spread has bit 0 of the first lane of every valuation, so mask *
    spread puts the lanes of a chunk at every valuation; full is every
    world in every lane; below is a _LaneBelow; atoms are the packed
    masks of the inner atoms, the first atom first."""

    rep: int
    spread: int
    full: int
    below: _LaneBelow
    atoms: tuple[int, ...]


class _Poset(NamedTuple):
    """A canonical poset on n worlds (see _canonical_posets) with its
    tables: up[i] is the mask of world i and the worlds above it; upsets
    are the up-closed masks in increasing order, minima their minimal
    worlds, and costs how many minimal worlds each has.  lanes holds the
    _Lanes of each (inner atom count, chunk size), built on first use
    (see _lanes).  block_atoms is the most atoms whose valuations fit in
    one block, one lane each.  frame is the poset as a model with no
    atoms and no evidence, on the worlds w0 .. w(n-1): the models found
    on the poset take its frame (see BasicEvaluation._found)."""

    up: tuple[int, ...]
    upsets: tuple[int, ...]
    minima: tuple[tuple[int, ...], ...]
    costs: tuple[int, ...]
    lanes: dict[tuple[int, int], _Lanes]
    block_atoms: int
    frame: BasicEvaluation


_POSET_CACHE: dict[int, list[_Poset]] = {}


def _canonical_posets(n: int) -> list[_Poset]:
    """All partial orders on n worlds up to isomorphism, each in its
    canonical labelling, sorted by canonical code, as _Poset entries.
    The tables are built once per process, with the posets.

    Built from world n-1 down, up[i] is 1 << i or'ed with the up[j] of
    some worlds j > i: such an order is transitive and antisymmetric by
    construction, and every poset has one (a linear extension).  The
    canonical code is the least sum of up[i] << (i * n) over relabellings.
    It is a linear extension too: take the highest i whose up[i] has a
    bit j < i; the worlds with labels above i see only labels at or above
    their own, so neither label i nor j.  Swapping labels i and j leaves their up[]
    alone and makes up[i] that of the world that had label j, which is
    above the other: a subset of the old up[i] without bit j, so a
    smaller code."""
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
    names = tuple(f"w{i}" for i in range(n))
    out = []
    for code in sorted(codes):
        up = tuple(code >> (i * n) & ((1 << n) - 1) for i in range(n))
        frame = BasicEvaluation(names, ((names[i], names[j]) for i in range(n)
                                        for j in range(n) if up[i] >> j & 1), {})
        upsets = tuple(s for s in range(1 << n)
                       if all(up[i] & ~s == 0 for i in range(n) if s >> i & 1))
        # seeing[i]: the worlds that see world i
        seeing = [sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n)]
        minima = tuple(
            tuple(i for i in range(n) if s & seeing[i] == 1 << i) for s in upsets
        )
        block_atoms = 0
        while len(upsets) ** (block_atoms + 1) <= _BLOCK:
            block_atoms += 1
        out.append(_Poset(up, upsets, minima, tuple(map(len, minima)), {},
                          block_atoms, frame))
    _POSET_CACHE[n] = out
    return out


def _lanes(poset: _Poset, inner: int, chunk: int = 1) -> _Lanes:
    """The poset's _Lanes for blocks where the last inner atoms vary and
    every valuation takes chunk lanes, built on first use.  The atom that
    varies fastest takes the upsets in turn, chunk lanes each; the one
    before it holds each upset for len(upsets) times as many lanes, and
    so on."""
    lanes = poset.lanes.get((inner, chunk))
    if lanes is None:
        n, count = len(poset.up), len(poset.upsets)
        size = count ** inner * chunk
        rep = _repeat(n, size)
        atoms = []
        for d in reversed(range(inner)):
            run = count ** d * chunk  # the lanes that one upset holds in a row
            period = sum(s * _repeat(n, run) << n * run * k
                         for k, s in enumerate(poset.upsets))
            atoms.append(period * _repeat(n * run * count, size // (run * count)))
        lanes = poset.lanes[inner, chunk] = _Lanes(
            rep, _repeat(n * chunk, size // chunk), ((1 << n) - 1) * rep,
            _LaneBelow(poset.up, rep), tuple(atoms))
    return lanes


def _hit_lanes(x: int, n: int, rep: int) -> int:
    """Bit 0 of each lane of n bits in which x has some bit."""
    out = x
    for shift in range(1, n):
        out |= x >> shift
    return out & rep


def _seed_assignments(costs, k: int, budget: int):
    """Every k-tuple of indices into costs whose costs sum to at most
    budget, in the order of itertools.product: a depth-first walk on an
    explicit stack of (prefix, budget left), each prefix's extensions
    pushed last index first."""
    if k == 0:
        yield ()
        return
    indices = range(len(costs))
    stack = [((), budget)]
    while stack:
        prefix, left = stack.pop()
        fits = [s for s in indices if costs[s] <= left]
        if len(prefix) == k - 1:
            for s in fits:
                yield prefix + (s,)
        else:
            stack += [(prefix + (s,), left - costs[s]) for s in reversed(fits)]


def _seed_chunks(poset: _Poset, k: int, budget: int):
    """The poset's seed assignments of k seeds within budget, in the
    order of _seed_assignments, in chunks of _BLOCK, each as (size,
    masks): lane c of masks[p] (bits n*c .. n*c+n-1) is the upset of the
    p-th seed of the chunk's c-th assignment.  A chunk is built when the
    search reaches it, and nothing is kept after.  The last chunk is
    padded with copies of its last assignment to the next power of two,
    at most _BLOCK, so a poset has _lanes for one chunk size per power
    of two up to _BLOCK; a copy never wins, as its twin passes at the
    same valuations in a lower lane."""
    todo = _seed_assignments(poset.costs, k, budget)
    # a seed's column of upsets as binary digits, the last lane first
    digits = [format(s, f"0{len(poset.up)}b") for s in poset.upsets]
    while combos := list(itertools.islice(todo, _BLOCK)):
        size = min(1 << (len(combos) - 1).bit_length(), _BLOCK)
        combos += combos[-1:] * (size - len(combos))
        yield size, tuple(int("".join(digits[s] for s in reversed(column)), 2)
                          for column in zip(*combos))


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
    upset, with the total seed count capped by evidence_budget.  The
    first candidate in that order that refutes a is returned.

    Candidates are judged on the goal's subformulas, compiled once per
    search into rows (see _compile) and run over masks of worlds, a
    block of candidates at a time, in lanes (see _Lanes): one lane of n
    bits per (valuation, seed assignment) pair, valuation-major.  A
    poset's seed assignments come in chunks of at most _BLOCK lanes,
    one lane per assignment (see _seed_chunks).  One _close of a chunk's
    seed masks closes all of its assignments at once, as every mask
    operation of the closure acts lane by lane; the t:B masks and the
    factivity needs (where each evidenced subformula must hold) are read
    off it, put in every valuation of a block with one multiplication,
    and kept for the poset's later blocks.  A chunk is closed when the
    first block reaches it, so a pass in the first chunk closes no other.

    Blocks are runs of consecutive candidates, judged in enumeration
    order.  When one chunk holds all the assignments, the last atoms,
    as many as keep a block within _BLOCK lanes, vary inside a block,
    and the earlier atoms stay fixed and drive the loop over blocks in
    the order of itertools.product.  With more chunks than one (so a
    full first chunk), a block is one valuation and one chunk, the
    chunks in order innermost.  One _run over the rows other than t:B
    judges every candidate of a block: & and | act lane by lane, and
    the packed below table applies the order to every lane at once.  A
    candidate passes where a fails at some world and no need is
    violated.  So the first block with a pass holds the first
    countermodel, in its lowest passing lane, the same one that judging
    the candidates one at a time finds, and its valuation and seed
    assignment are read off that lane's bits.  A seed assignment whose
    closure equals an earlier one's needs no skip: the earlier one
    passes at the same valuations, in a lower lane, so it always wins.

    The closure (see _close) starts from base masks that are the upsets
    themselves: an upset is the worlds that its minimal worlds see, so
    this is the closure of the seeds at the minimal worlds, and the
    model returned gets its base as seeds at those worlds.  Upsets close
    to upsets, so M2 needs no step of its own (see _close).

    The order laws, M1, M2 and conditions (1)-(4) hold by construction
    (canonical posets, upset valuations, _close).  An evidenced formula
    that is not a subformula of a is an s:B that condition (4) made at
    some world u at or below the world w where it is evidenced, from B in
    s*_u; by M2, B is in s*_w, so s:B holds at w.  So a candidate is kept
    when a fails at some world and each evidenced subformula of a holds
    wherever it is evidenced.  Only the model about to be returned goes
    through validate_model, which re-checks the order, M1 and factivity;
    the search raises AssertionError if that fails.  So a result
    certifies that a is not a theorem; None means no countermodel exists
    in the searched space, not that a is valid.

    A goal with no t:B subformula has one seed assignment, the empty
    one, whose closure is empty, so the search builds no closure for it
    and its candidates are the valuations alone: where they fit in one
    block (one world and at most 12 atoms, say), a poset costs one run
    of the rows and the lowest lane where a fails.  Each canonical poset
    brings the frame that a model found on it gets.

    max_worlds runs from 1 to MAX_WORLDS; ValueError outside that.
    """
    if max_worlds < 1:
        raise ValueError("need at least one world")
    if max_worlds > MAX_WORLDS:
        raise ValueError(f"max_worlds must be at most {MAX_WORLDS}")
    if evidence_budget < 0:
        raise ValueError("the evidence budget must be at least 0")
    cs = cs if cs is not None else ConstantSpecification.default_schematic()
    rows: list = []
    index: dict[Formula, int] = {}
    _compile((a,), rows, index)
    for _, op, _, body in rows:  # rows grows here: bodies of t:B rows too
        if op is Just:
            _compile((body,), rows, index)
    f_universe = frozenset(index)  # the subformulas of a
    goal = index[a]
    just_rows = [row for row in rows if row[1] is Just]
    judged = [row for row in rows if row[1] is not Just]
    atom_names = sorted(name for _, op, name, _ in rows if op is Atom)
    pool = sorted(
        ((t, b) for _, _, t, b in just_rows),
        key=lambda tb: (term_key(tb[0]), formula_key(tb[1])),
    )
    t_universe = close_subterms(t for t, _ in pool)
    t_order = sorted(t_universe, key=term_size)

    for n in range(1, max_worlds + 1):
        world_full = (1 << n) - 1
        for poset in _canonical_posets(n):
            upsets, count = poset.upsets, len(poset.upsets)
            # a goal with no t:B has one seed assignment, the empty one, and
            # no closure to build: it skips the chunk tables
            chunks = (_seed_chunks(poset, len(pool), evidence_budget) if pool
                      else iter(((1, ()),)))
            first = next(chunks)
            inner = min(len(atom_names), poset.block_atoms)
            while count ** inner * first[0] > _BLOCK:
                inner -= 1
            outer_names = atom_names[:len(atom_names) - inner]
            inner_names = atom_names[len(outer_names):]
            chunks = itertools.chain((first,), chunks)
            # each chunk reached: size, lanes, seeds, t:B masks, needs
            closed = [] if pool else [(1, _lanes(poset, inner, 1), (), [], [])]

            def closing():
                """Close each chunk of seed assignments as the first
                blocks reach it, keeping it in closed for the later ones."""
                for size, seeds in chunks:
                    lanes = _lanes(poset, inner, size)
                    base: dict[Term, dict[Formula, int]] = {}
                    for (t, b), mask in zip(pool, seeds):
                        if mask:
                            base.setdefault(t, {})[b] = mask
                    derived = _close(base, t_order, f_universe, cs,
                                     world_full * _repeat(n, size))
                    # factivity: each formula must hold wherever it is evidenced
                    evidenced: dict[Formula, int] = {}
                    for per_term in derived.values():
                        for f, mask in per_term.items():
                            evidenced[f] = evidenced.get(f, 0) | mask
                    masks = [(i, _just_mask(derived, t, b) * lanes.spread)
                             for i, _, t, b in just_rows]
                    needs = [(index[f], need * lanes.spread)
                             for f, need in evidenced.items() if f in index]
                    closed.append((size, lanes, seeds, masks, needs))
                    yield closed[-1]

            values = [0] * len(rows)
            for outer in itertools.product(upsets, repeat=len(outer_names)):
                for size, lanes, seeds, masks, needs in closed or closing():
                    atoms = dict(zip(inner_names, lanes.atoms))
                    for p, s in zip(outer_names, outer):
                        atoms[p] = s * lanes.rep
                    for i, mask in masks:
                        values[i] = mask
                    _run(judged, values, atoms, lanes.full, lanes.below, None)
                    refuted = lanes.full & ~values[goal]
                    passed = _hit_lanes(refuted, n, lanes.rep)
                    if passed and needs:
                        violated = 0
                        for row, need in needs:
                            violated |= need & ~values[row]
                        passed &= ~_hit_lanes(violated, n, lanes.rep)
                    if not passed:
                        continue
                    low = (passed & -passed).bit_length() - 1
                    c = low // n % size  # the assignment's lane in its chunk
                    names = poset.frame.worlds
                    base_sets: dict[str, dict[Term, set[Formula]]] = {
                        w: {} for w in names}
                    for (t, b), mask in zip(pool, seeds):
                        for i in poset.minima[upsets.index(mask >> n * c & world_full)]:
                            base_sets[names[i]].setdefault(t, set()).add(b)
                    m = BasicEvaluation._found(
                        poset,
                        {p: mask >> low & world_full for p, mask in atoms.items()},
                        {w: {t: frozenset(fs) for t, fs in per_term.items()}
                         for w, per_term in base_sets.items()},
                        t_universe,
                        f_universe,
                        cs,
                        rows,
                        index,
                    )
                    verdict = validate_model(m)
                    if not verdict.ok:
                        raise AssertionError(
                            f"countermodel search built an invalid model: {verdict}"
                        )
                    refuted = refuted >> low & world_full
                    world = names[(refuted & -refuted).bit_length() - 1]
                    return Countermodel(m, world)
    return None


# ---------------------------------------------------------------------------
# Model files


# The section heads of a model file; the worlds: section comes first.
_MODEL_HEADS = ("worlds", "order", "atoms", "evidence", "terms", "formulas")
# What a world name in a model file may not hold: white space and "#",
# which end a name or a line, and the separators of the atoms:, evidence:
# and order: lines.  Nor may it be a section head, which would open a
# section where it starts an atoms: line.
_BAD_WORLD = re.compile(r"[\s#:|]|<=")


def _bad_world(w: str) -> bool:
    return w in _MODEL_HEADS or _BAD_WORLD.search(w) is not None


def print_model(m: BasicEvaluation) -> str:
    """Render a model in the section format accepted by parse_model.
    Evidence lines show the base seeds, not the derived closure.  Raises
    ValueError for a world whose name parse_model cannot read back."""
    for w in m.worlds:
        if not isinstance(w, str) or not w or _bad_world(w):
            raise ValueError(f"world {w!r} cannot be written to a model file")
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
    # the sort keys are the printed forms, so each member is printed once
    ev_lines = []
    for w in m.worlds:
        seeds = m.base_evidence[w]
        for t in sorted(seeds, key=term_key):
            if seeds[t]:
                ev_lines.append(f"  {w} | {term_key(t)} | "
                                + ", ".join(sorted(map(formula_key, seeds[t]))))
    if ev_lines:
        lines.append("evidence:")
        lines.extend(ev_lines)
    if m.term_universe:
        lines.append("terms: " + ", ".join(sorted(map(term_key, m.term_universe))))
    if m.formula_universe:
        lines.append("formulas: "
                     + ", ".join(sorted(map(formula_key, m.formula_universe))))
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
    table = _Table(the_cs.constants())
    head = None  # the line of the worlds: header
    for lineno, section, line in _sections(
            text, _MODEL_HEADS, ("worlds", "terms", "formulas"),
            "expected a section header"):
        if section == "worlds":
            if worlds:
                raise FileFormatError("duplicate worlds section", lineno)
            head = head or lineno
            worlds = tuple(line.split())
            known = frozenset(worlds)
            for w in worlds:
                if _bad_world(w):
                    raise FileFormatError(f"bad world {w!r}", lineno)
            if len(known) != len(worlds):
                repeated = next(w for i, w in enumerate(worlds) if w in worlds[:i])
                raise FileFormatError(f"duplicate world {repeated!r}", lineno)
            continue
        if not line:  # a header whose content is on the lines below
            continue
        if head is None:
            raise FileFormatError("worlds: must come first", lineno)
        if not worlds:
            raise FileFormatError("empty worlds list", head)
        if section == "order":
            parts = line.split("<=")
            if len(parts) != 2:
                raise FileFormatError("expected 'w <= v'", lineno)
            a, b = parts[0].strip(), parts[1].strip()
            if a not in known or b not in known:
                raise FileFormatError(f"unknown world in '{line}'", lineno)
            pairs.append((a, b))
        elif section == "atoms":
            w, _, names = line.partition(":")
            w = w.strip()
            if w not in known:
                raise FileFormatError(f"unknown world {w!r}", lineno)
            names = names.split()
            for name in names:
                if identifier_kind(name) != "ATOM":
                    raise FileFormatError(f"bad atom {name!r}", lineno)
            atoms.setdefault(w, set()).update(names)
        elif section == "evidence":
            # formulas may contain "_|_", so only the first two bars separate
            parts = [p.strip() for p in line.split("|", 2)]
            if len(parts) != 3:
                raise FileFormatError("expected 'w | term | formulas'", lineno)
            w, ttext, ftext = parts
            if w not in known:
                raise FileFormatError(f"unknown world {w!r}", lineno)
            t = table.at(lineno, parse_term, ttext)
            fs = table.items(lineno, parse_formula, ftext)
            evidence.setdefault(w, {}).setdefault(t, set()).update(fs)
        elif section == "terms":
            terms += table.items(lineno, parse_term, line)
        elif section == "formulas":
            formulas += table.items(lineno, parse_formula, line)
    if head is None:
        raise FileFormatError("missing worlds section", 1)
    if not worlds:
        raise FileFormatError("empty worlds list", head)
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
