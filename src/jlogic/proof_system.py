"""Hilbert-style proof machinery: axiom schema recognition, constant
specifications, proof checking, the deduction theorem and internalization
as proof transformers, and a bounded derivability search.

The system has fourteen axiom schemas: a nine-schema intuitionistic
propositional base (IPC-1 .. IPC-9) and five evidence schemas (J-App,
J-Sum-L, J-Sum-R, J-T, J-4).  Rules are modus ponens and axiom
necessitation: from (c, A) in the constant specification, infer c:A.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from jlogic.syntax import (
    And,
    App,
    Atom,
    Bang,
    Constant,
    FALSUM,
    Falsum,
    FileFormatError,
    Formula,
    Implies,
    Just,
    Or,
    Sum,
    Term,
    _Table,
    _file_lines,
    _leaf,
    close_subformulas,
    formula_key,
    identifier_kind,
    parse_formula,
    print_formula,
)


class HypothesisNotFound(Exception):
    """deduce was asked to discharge a formula not among the hypotheses."""


class NotAppropriate(Exception):
    """No constant in the specification covers a needed axiom instance."""

    def __init__(self, formula: Formula):
        super().__init__(f"no constant covers axiom instance {formula}")
        self.formula = formula


# ---------------------------------------------------------------------------
# Axiom schemas
#
# Schemas are formula patterns over private metavariable nodes; matching a
# concrete formula is first-order unification with all variables on the
# pattern side.  AXIOM_SCHEMAS is the only statement of the schemas: each
# is compiled once, at import, into a matcher closure, and every schema is
# an implication, so a formula's candidate tags are looked up by the
# constructors of its antecedent and consequent.


@_leaf
class _MetaF(Formula):
    name: str


@_leaf
class _MetaT(Term):
    name: str


_A, _B, _C = _MetaF("A"), _MetaF("B"), _MetaF("C")
_s, _t = _MetaT("s"), _MetaT("t")

AXIOM_SCHEMAS: dict[str, Formula] = {
    "IPC-1": Implies(_A, Implies(_B, _A)),
    "IPC-2": Implies(
        Implies(_A, Implies(_B, _C)),
        Implies(Implies(_A, _B), Implies(_A, _C)),
    ),
    "IPC-3": Implies(_A, Implies(_B, And(_A, _B))),
    "IPC-4": Implies(And(_A, _B), _A),
    "IPC-5": Implies(And(_A, _B), _B),
    "IPC-6": Implies(_A, Or(_A, _B)),
    "IPC-7": Implies(_B, Or(_A, _B)),
    "IPC-8": Implies(
        Implies(_A, _C),
        Implies(Implies(_B, _C), Implies(Or(_A, _B), _C)),
    ),
    "IPC-9": Implies(FALSUM, _A),
    "J-App": Implies(
        Just(_t, Implies(_A, _B)),
        Implies(Just(_s, _A), Just(App(_t, _s), _B)),
    ),
    "J-Sum-L": Implies(Just(_t, _A), Just(Sum(_t, _s), _A)),
    "J-Sum-R": Implies(Just(_s, _A), Just(Sum(_t, _s), _A)),
    "J-T": Implies(Just(_t, _A), _A),
    "J-4": Implies(Just(_t, _A), Just(Bang(_t), Just(_t, _A))),
}

AXIOM_TAGS: tuple[str, ...] = tuple(AXIOM_SCHEMAS)


def _compile(pat, bound: set):
    """A matcher for one pattern node: a function (target, env) -> bool
    that checks the target's constructor and binds or compares
    metavariables in env.  bound holds the metavariables that an earlier
    part of the pattern (left before right, term before body) binds, and
    gains those that pat binds."""
    if isinstance(pat, (_MetaF, _MetaT)):
        name = pat.name
        sort = Formula if isinstance(pat, _MetaF) else Term
        if name in bound:
            return lambda tgt, env: env[name] is tgt or (
                isinstance(tgt, sort) and env[name] == tgt
            )

        bound.add(name)

        def bind(tgt, env):
            if isinstance(tgt, sort):
                env[name] = tgt
                return True
            return False

        return bind
    cls = type(pat)
    if isinstance(pat, (And, Or, Implies, App, Sum)):
        left, right = _compile(pat.left, bound), _compile(pat.right, bound)
        return lambda tgt, env: (
            type(tgt) is cls and left(tgt.left, env) and right(tgt.right, env)
        )
    if isinstance(pat, Just):
        term, body = _compile(pat.term, bound), _compile(pat.body, bound)
        return lambda tgt, env: (
            type(tgt) is cls and term(tgt.term, env) and body(tgt.body, env)
        )
    if isinstance(pat, Bang):
        inner = _compile(pat.inner, bound)
        return lambda tgt, env: type(tgt) is cls and inner(tgt.inner, env)
    return lambda tgt, env: type(tgt) is cls and tgt == pat  # Falsum, Atom, ...


_METAVARIABLES: dict[str, set[str]] = {tag: set() for tag in AXIOM_SCHEMAS}
_MATCHERS = {
    tag: _compile(pat, _METAVARIABLES[tag]) for tag, pat in AXIOM_SCHEMAS.items()
}


# (antecedent class, consequent class) -> candidate tags in declaration
# order; a metavariable side accepts every class.  The classes are every
# formula constructor, the metavariable included (a schema is an instance
# of itself), so a missing key means the sides are not formulas.
_SHAPES = (Atom, Falsum, And, Or, Implies, Just, _MetaF)
_BY_SHAPE = {
    (lc, rc): tuple(
        tag for tag, pat in AXIOM_SCHEMAS.items()
        if type(pat.left) in (lc, _MetaF) and type(pat.right) in (rc, _MetaF)
    )
    for lc in _SHAPES
    for rc in _SHAPES
}


def _candidates(a) -> tuple[str, ...]:
    if type(a) is not Implies:
        return ()
    return _BY_SHAPE.get((type(a.left), type(a.right)), ())


def match_schema(tag: str, a: Formula) -> dict | None:
    """Metavariable assignment if a instantiates the schema, else None."""
    env: dict = {}
    if _MATCHERS[tag](a, env):
        return env
    return None


def match_axiom(a: Formula) -> frozenset[str]:
    """All schema tags that a instantiates (matching is purely structural,
    so one formula can match several schemas)."""
    return frozenset(tag for tag in _candidates(a) if _MATCHERS[tag](a, {}))


def first_axiom_tag(a: Formula) -> str | None:
    """The first tag, in declaration order, that a instantiates."""
    for tag in _candidates(a):
        if _MATCHERS[tag](a, {}):
            return tag
    return None


def _substitute(pat, env: dict):
    """pat with its metavariables replaced from env: a node with parts is
    rebuilt from its fields, as __reduce__ does, and other leaves kept."""
    if isinstance(pat, (_MetaF, _MetaT)):
        return env[pat.name]
    if not pat._parts:
        return pat
    d = pat.__dict__
    return type(pat)(*[_substitute(d[name], env) for name in pat.__match_args__])


def schema_metavariables(tag: str) -> frozenset[str]:
    """The metavariables of a schema: those its matcher binds."""
    return frozenset(_METAVARIABLES[tag])


def instantiate_schema(tag: str, env: dict) -> Formula:
    """Build the instance of a schema under a metavariable assignment
    (formulas for A/B/C, terms for s/t)."""
    missing = schema_metavariables(tag) - env.keys()
    if missing:
        raise ValueError(f"missing metavariables for {tag}: {sorted(missing)}")
    return _substitute(AXIOM_SCHEMAS[tag], env)


# ---------------------------------------------------------------------------
# Constant specifications


@dataclass(frozen=True)
class ConstantSpecification:
    """Finite description of a set of pairs (constant, axiom instance).

    Two kinds of entries, freely mixed: schematic (a constant covers every
    instance of a schema tag) and explicit (a constant covers the listed
    instances only).  The default specification is purely schematic with
    one constant per schema, which makes it axiomatically appropriate:
    every axiom instance is covered by some constant.
    """

    schematic: tuple[tuple[str, str], ...] = ()  # (constant, schema tag)
    explicit: tuple[tuple[str, Formula], ...] = ()  # (constant, instance)
    # derived from the two above in __post_init__, and ignored by ==:
    # the constants; the schema tags and explicit instances listed for
    # each constant; and the least constant of each tag, in AXIOM_TAGS
    # order, and of each explicit instance (see constant_for)
    _constants: frozenset[str] = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _least_by_tag: tuple = field(init=False, repr=False, compare=False)
    _least_by_instance: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[str, tuple[list[str], set[Formula]]] = {}
        by_tag: dict[str, str] = {}
        by_instance: dict[Formula, str] = {}
        for c, tag in self.schematic:
            index.setdefault(c, ([], set()))[0].append(tag)
            by_tag[tag] = min(c, by_tag.get(tag, c))
        for c, inst in self.explicit:
            index.setdefault(c, ([], set()))[1].add(inst)
            by_instance[inst] = min(c, by_instance.get(inst, c))
        object.__setattr__(self, "_constants", frozenset(index))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_least_by_tag", tuple(
            (tag, by_tag[tag]) for tag in AXIOM_TAGS if tag in by_tag))
        object.__setattr__(self, "_least_by_instance", by_instance)

    @classmethod
    @functools.cache
    def default_schematic(cls) -> "ConstantSpecification":
        """The default specification; one instance, as a specification
        is immutable."""
        return cls(schematic=tuple(
            (f"c{i + 1}", tag) for i, tag in enumerate(AXIOM_TAGS)
        ))

    def constants(self) -> frozenset[str]:
        return self._constants

    def covers(self, constant: str, a: Formula) -> bool:
        """True iff (constant, a) is in the specified set."""
        tags, insts = self._index.get(constant, ((), ()))
        for tag in tags:
            if _MATCHERS[tag](a, {}):
                return True
        return a in insts

    def constant_for(self, a: Formula) -> str | None:
        """Deterministic choice of a covering constant: schematic entries
        in schema declaration order (name-ordered within a tag), then
        explicit entries in name order."""
        tags = match_axiom(a)
        if not tags:
            return None
        for tag, name in self._least_by_tag:
            if tag in tags:
                return name
        return self._least_by_instance.get(a)

    def is_axiomatically_appropriate(self) -> bool:
        covered = {tag for _, tag in self.schematic}
        return covered == set(AXIOM_TAGS)

    def instances_for(self, constant: str, universe) -> frozenset[Formula]:
        """Covered axiom instances that lie inside a finite universe."""
        out = set()
        for a in universe:
            if self.covers(constant, a):
                out.add(a)
        return frozenset(out)


def parse_cs(text: str) -> ConstantSpecification:
    """Parse a constant specification file.

    Line forms (blank lines and '#' comments ignored):
        <constant> := ax <TAG>       schematic entry
        <constant> := <formula>      explicit entry (must be an axiom instance)
    """
    raw: list[tuple[int, str, str]] = []
    for lineno, line in _file_lines(text):
        if ":=" not in line:
            raise FileFormatError("expected '<constant> := ...'", lineno)
        name, rhs = (part.strip() for part in line.split(":=", 1))
        if identifier_kind(name) != "NAME":
            raise FileFormatError(f"bad constant name {name!r}", lineno)
        raw.append((lineno, name, rhs))

    declared = frozenset(name for _, name, _ in raw)
    table = _Table(declared)
    schematic: list[tuple[str, str]] = []
    explicit: list[tuple[str, Formula]] = []
    for lineno, name, rhs in raw:
        if rhs.startswith("ax "):
            tag = rhs[3:].strip()
            if tag not in AXIOM_SCHEMAS:
                raise FileFormatError(f"unknown schema tag {tag!r}", lineno)
            schematic.append((name, tag))
        else:
            a = table.at(lineno, parse_formula, rhs, "bad formula: ")
            if not match_axiom(a):
                raise FileFormatError(
                    f"{print_formula(a)!r} is not an axiom instance", lineno
                )
            explicit.append((name, a))
    return ConstantSpecification(tuple(schematic), tuple(explicit))


def print_cs(cs: ConstantSpecification) -> str:
    lines = [f"{c} := ax {tag}" for c, tag in cs.schematic]
    lines += [f"{c} := {print_formula(a)}" for c, a in cs.explicit]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Proofs


@dataclass(frozen=True)
class Hypothesis:
    index: int  # 0-based into the hypothesis list


@dataclass(frozen=True)
class AxiomRule:
    tag: str


@dataclass(frozen=True)
class ModusPonens:
    major: int  # step concluding Implies(minor's conclusion, this conclusion)
    minor: int


@dataclass(frozen=True)
class AxiomNecessitation:
    constant: str


Rule = Hypothesis | AxiomRule | ModusPonens | AxiomNecessitation


@dataclass(frozen=True)
class ProofStep:
    conclusion: Formula
    rule: Rule


@dataclass(frozen=True)
class Proof:
    hypotheses: tuple[Formula, ...]
    steps: tuple[ProofStep, ...]

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].conclusion

    def __str__(self) -> str:
        return print_proof(self)


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    step: int | None = None  # 0-based index of the first failing step
    code: str | None = None  # BadAxiom | BadMP | NotInCS | BadIndex
    detail: str = ""

    def __str__(self) -> str:
        if self.ok:
            return "accepted"
        return f"rejected at step {self.step + 1}: {self.code} ({self.detail})"


def check_proof(pi: Proof, cs: ConstantSpecification) -> CheckReport:
    """Verify every step of a Hilbert proof against the schemas, the rules,
    and the constant specification.  Reports the first failing step."""
    if not pi.steps:
        raise ValueError("proof has no steps")
    for i, step in enumerate(pi.steps):
        rule = step.rule
        if isinstance(rule, Hypothesis):
            if not 0 <= rule.index < len(pi.hypotheses):
                return CheckReport(False, i, "BadIndex",
                                   f"no hypothesis {rule.index + 1}")
            if pi.hypotheses[rule.index] != step.conclusion:
                return CheckReport(False, i, "BadIndex",
                                   f"hypothesis {rule.index + 1} is "
                                   f"{pi.hypotheses[rule.index]}, not {step.conclusion}")
        elif isinstance(rule, AxiomRule):
            if rule.tag not in AXIOM_SCHEMAS:
                return CheckReport(False, i, "BadAxiom",
                                   f"unknown schema {rule.tag!r}")
            if match_schema(rule.tag, step.conclusion) is None:
                return CheckReport(False, i, "BadAxiom",
                                   f"{step.conclusion} is not a {rule.tag} instance")
        elif isinstance(rule, ModusPonens):
            if not (0 <= rule.major < i and 0 <= rule.minor < i):
                return CheckReport(False, i, "BadIndex",
                                   f"mp references steps {rule.major + 1},"
                                   f"{rule.minor + 1}")
            major = pi.steps[rule.major].conclusion
            minor = pi.steps[rule.minor].conclusion
            if major != Implies(minor, step.conclusion):
                return CheckReport(False, i, "BadMP",
                                   f"major {major} is not {minor} -> {step.conclusion}")
        elif isinstance(rule, AxiomNecessitation):
            c = step.conclusion
            if not (isinstance(c, Just) and c.term == Constant(rule.constant)):
                return CheckReport(False, i, "NotInCS",
                                   f"conclusion is not of the form {rule.constant}:A")
            if not cs.covers(rule.constant, c.body):
                return CheckReport(False, i, "NotInCS",
                                   f"({rule.constant}, {c.body}) not in the specification")
        else:
            return CheckReport(False, i, "BadIndex", f"unknown rule {rule!r}")
    return CheckReport(True)


# ---------------------------------------------------------------------------
# Proof files


def print_proof(pi: Proof) -> str:
    lines = []
    if pi.hypotheses:
        lines.append("hypotheses:")
        for i, h in enumerate(pi.hypotheses, start=1):
            lines.append(f"  {i}. {print_formula(h)}")
    lines.append("proof:")
    for i, step in enumerate(pi.steps, start=1):
        rule = step.rule
        if isinstance(rule, Hypothesis):
            r = f"hyp {rule.index + 1}"
        elif isinstance(rule, AxiomRule):
            r = f"ax {rule.tag}"
        elif isinstance(rule, ModusPonens):
            r = f"mp {rule.major + 1},{rule.minor + 1}"
        else:
            r = f"cs {rule.constant}"
        lines.append(f"  {i}. {print_formula(step.conclusion)} ; {r}")
    return "\n".join(lines) + "\n"


_STEP_RE = re.compile(r"^(\d+)\.\s*(.*)$")
_MP_RE = re.compile(r"(\d+)\s*,\s*(\d+)")


def parse_proof(text: str, constants: frozenset[str] = frozenset()) -> Proof:
    """Parse a proof file: an optional `hypotheses:` section of numbered
    formulas, then a `proof:` section of lines
    `N. <formula> ; hyp K | ax <TAG> | mp J,K | cs <constant>`.
    Numbering is 1-based and must be sequential."""
    hyps: list[Formula] = []
    steps: list[ProofStep] = []
    section = None
    table = _Table(constants)
    for lineno, line in _file_lines(text):
        if line == "hypotheses:":
            section = "hypotheses"
            continue
        if line == "proof:":
            section = "proof"
            continue
        if section is None:
            raise FileFormatError("expected 'hypotheses:' or 'proof:'", lineno)
        m = _STEP_RE.match(line)
        if not m:
            raise FileFormatError("expected 'N. ...'", lineno)
        num = int(m.group(1))
        rest = m.group(2)
        if section == "hypotheses":
            if num != len(hyps) + 1:
                raise FileFormatError(f"expected hypothesis {len(hyps) + 1}", lineno)
            hyps.append(table.at(lineno, parse_formula, rest, "bad formula: "))
            continue
        if num != len(steps) + 1:
            raise FileFormatError(f"expected step {len(steps) + 1}", lineno)
        if ";" not in rest:
            raise FileFormatError("expected '<formula> ; <rule>'", lineno)
        ftext, rtext = (part.strip() for part in rest.rsplit(";", 1))
        conclusion = table.at(lineno, parse_formula, ftext, "bad formula: ")
        steps.append(ProofStep(conclusion, _parse_rule(rtext, lineno)))
    if section is None:
        raise FileFormatError("empty proof file", 1)
    if not steps:
        raise FileFormatError("proof has no steps", 1)
    return Proof(tuple(hyps), tuple(steps))


def _parse_rule(rtext: str, lineno: int) -> Rule:
    parts = rtext.split(None, 1)
    kind = parts[0] if parts else ""
    arg = parts[1].strip() if len(parts) > 1 else ""
    if kind == "hyp" and arg.isdecimal():
        return Hypothesis(int(arg) - 1)
    if kind == "ax" and arg in AXIOM_SCHEMAS:
        return AxiomRule(arg)
    if kind == "mp":
        m = _MP_RE.fullmatch(arg)
        if m:
            return ModusPonens(int(m.group(1)) - 1, int(m.group(2)) - 1)
    if kind == "cs" and identifier_kind(arg):
        return AxiomNecessitation(arg)
    raise FileFormatError(f"bad rule {rtext!r}", lineno)


# ---------------------------------------------------------------------------
# Deduction theorem


def with_hypotheses(pi: Proof, hypotheses: tuple[Formula, ...]) -> Proof:
    """Rebase a proof onto a hypothesis list containing (at least) every
    formula the proof uses as a hypothesis; indices are remapped to the
    first occurrence in the new list."""
    where = {}
    for i, h in enumerate(hypotheses):
        if h not in where:
            where[h] = i
    steps = []
    for step in pi.steps:
        rule = step.rule
        if isinstance(rule, Hypothesis):
            h = pi.hypotheses[rule.index]
            if h not in where:
                raise HypothesisNotFound(f"{h} not in the new hypothesis list")
            rule = Hypothesis(where[h])
        steps.append(ProofStep(step.conclusion, rule))
    return Proof(hypotheses, tuple(steps))


def deduce(pi: Proof, a: Formula) -> Proof:
    """Deduction theorem, constructively: turn an accepted proof of B from
    M together with a into an accepted proof of a -> B from M alone.

    Standard transformation: the step concluding a becomes a five-step
    derivation of a -> a from IPC-1 and IPC-2; hypothesis, axiom, and
    necessitation steps are kept and weakened with IPC-1; a modus ponens
    step becomes an IPC-2 instance plus two modus ponens steps.  A
    hypothesis equal to a that the proof never uses is still discharged,
    and a need not occur among the hypotheses at all (vacuous discharge:
    every step is simply weakened); all occurrences of a leave the
    hypothesis list.
    """
    new_hyps = tuple(h for h in pi.hypotheses if h != a)
    hyp_map = {}
    j = 0
    for i, h in enumerate(pi.hypotheses):
        if h != a:
            hyp_map[i] = j
            j += 1

    out: list[ProofStep] = []
    new_index: dict[int, int] = {}

    def emit(conclusion: Formula, rule: Rule) -> int:
        out.append(ProofStep(conclusion, rule))
        return len(out) - 1

    def weaken(i: int, c: Formula, base: int) -> None:
        # base concludes c; add a -> c via IPC-1.
        k = emit(Implies(c, Implies(a, c)), AxiomRule("IPC-1"))
        new_index[i] = emit(Implies(a, c), ModusPonens(k, base))

    for i, step in enumerate(pi.steps):
        c = step.conclusion
        rule = step.rule
        if c == a and isinstance(rule, Hypothesis):
            aa = Implies(a, a)
            s1 = emit(Implies(a, Implies(aa, a)), AxiomRule("IPC-1"))
            s2 = emit(
                Implies(Implies(a, Implies(aa, a)), Implies(Implies(a, aa), aa)),
                AxiomRule("IPC-2"),
            )
            s3 = emit(Implies(Implies(a, aa), aa), ModusPonens(s2, s1))
            s4 = emit(Implies(a, aa), AxiomRule("IPC-1"))
            new_index[i] = emit(aa, ModusPonens(s3, s4))
        elif isinstance(rule, Hypothesis):
            base = emit(c, Hypothesis(hyp_map[rule.index]))
            weaken(i, c, base)
        elif isinstance(rule, (AxiomRule, AxiomNecessitation)):
            base = emit(c, rule)
            weaken(i, c, base)
        else:  # ModusPonens
            ck = pi.steps[rule.minor].conclusion
            s = emit(
                Implies(
                    Implies(a, Implies(ck, c)),
                    Implies(Implies(a, ck), Implies(a, c)),
                ),
                AxiomRule("IPC-2"),
            )
            s2 = emit(Implies(Implies(a, ck), Implies(a, c)),
                      ModusPonens(s, new_index[rule.major]))
            new_index[i] = emit(Implies(a, c), ModusPonens(s2, new_index[rule.minor]))

    return Proof(new_hyps, tuple(out))


# ---------------------------------------------------------------------------
# Internalization


def internalize(
    pi: Proof,
    witnesses: tuple[Term, ...],
    cs: ConstantSpecification,
) -> tuple[Term, Proof]:
    """Lift an accepted proof of A from B1..Bn to a proof of t:A from
    s1:B1..sn:Bn, building t along the structure of the proof: hypotheses
    take their witnesses, axioms take covering constants, modus ponens
    applies the terms, and a necessitation step c:A is verified by !c.
    """
    if len(witnesses) != len(pi.hypotheses):
        raise ValueError(
            f"{len(pi.hypotheses)} hypotheses but {len(witnesses)} witnesses"
        )
    report = check_proof(pi, cs)
    if not report.ok:
        raise ValueError(f"input proof does not check: {report}")

    new_hyps = tuple(
        Just(s, b) for s, b in zip(witnesses, pi.hypotheses)
    )
    out: list[ProofStep] = []
    new_index: dict[int, int] = {}
    term_of: dict[int, Term] = {}

    def emit(conclusion: Formula, rule: Rule) -> int:
        out.append(ProofStep(conclusion, rule))
        return len(out) - 1

    for i, step in enumerate(pi.steps):
        c = step.conclusion
        rule = step.rule
        if isinstance(rule, Hypothesis):
            term_of[i] = witnesses[rule.index]
            new_index[i] = emit(new_hyps[rule.index], Hypothesis(rule.index))
        elif isinstance(rule, AxiomRule):
            name = cs.constant_for(c)
            if name is None:
                raise NotAppropriate(c)
            term_of[i] = Constant(name)
            new_index[i] = emit(Just(Constant(name), c), AxiomNecessitation(name))
        elif isinstance(rule, AxiomNecessitation):
            # c is Just(Constant(name), body); verify it with !name via J-4.
            name = rule.constant
            term_of[i] = Bang(Constant(name))
            s1 = emit(c, AxiomNecessitation(name))
            s2 = emit(Implies(c, Just(Bang(Constant(name)), c)), AxiomRule("J-4"))
            new_index[i] = emit(Just(Bang(Constant(name)), c), ModusPonens(s2, s1))
        else:  # ModusPonens
            u = term_of[rule.major]
            v = term_of[rule.minor]
            ck = pi.steps[rule.minor].conclusion
            t = App(u, v)
            s1 = emit(
                Implies(
                    Just(u, Implies(ck, c)),
                    Implies(Just(v, ck), Just(t, c)),
                ),
                AxiomRule("J-App"),
            )
            s2 = emit(Implies(Just(v, ck), Just(t, c)),
                      ModusPonens(s1, new_index[rule.major]))
            term_of[i] = t
            new_index[i] = emit(Just(t, c), ModusPonens(s2, new_index[rule.minor]))

    last = len(pi.steps) - 1
    return term_of[last], Proof(new_hyps, tuple(out))


# ---------------------------------------------------------------------------
# Bounded derivability search


@dataclass(frozen=True)
class Derivable:
    proof: Proof


@dataclass(frozen=True)
class UnknownAtBound:
    bound: int


def _combine_mp(major: Proof, minor: Proof) -> Proof:
    # Both proofs share a hypothesis list; concatenate and apply mp.
    shift = len(major.steps)
    steps = list(major.steps)
    for step in minor.steps:
        rule = step.rule
        if isinstance(rule, ModusPonens):
            rule = ModusPonens(rule.major + shift, rule.minor + shift)
        steps.append(ProofStep(step.conclusion, rule))
    conclusion = major.conclusion.right
    steps.append(ProofStep(conclusion, ModusPonens(shift - 1, len(steps) - 1)))
    return Proof(major.hypotheses, tuple(steps))


# The largest depth bound of bounded_derive.  The search recurses one
# frame per unit of depth (derive calls itself with k - 1), so MAX_DEPTH
# frames and the callers' must fit under the interpreter's recursion
# limit (tests/test_layers.py checks it).
MAX_DEPTH = 200


def _search(pool, cs, hyps, goal, k) -> Proof | None:
    """Backward goal-directed search, memoized, deterministic.

    To derive a goal: use a hypothesis, an axiom instance, or a
    specification pair directly; otherwise spend one unit of depth on
    either implication introduction (derive the consequent under the
    antecedent, then discharge it via deduce) or modus ponens inversion,
    where the minor premise ranges over the pool in its given order.

    The pool is the subformula closure of the original hypotheses and
    goal.  Every hypothesis the search assumes is in it: the original
    ones, and every antecedent that introduction adds.  So every proof
    the search builds has the pool as its hypothesis list.
    """
    proofs: dict = {}  # (hyps frozenset, goal) -> Proof over the pool
    failed: dict = {}  # (hyps frozenset, goal) -> highest failed bound
    # (x, goal) -> Implies(x, goal), built once, so that the memo keys of
    # a major premise are the same node every time
    majors: dict = {}

    def derive(hyps: frozenset, goal: Formula, k: int) -> Proof | None:
        key = (hyps, goal)
        if key in proofs:
            return proofs[key]
        if failed.get(key, -1) >= k:
            return None
        proof = None
        if goal in hyps:
            proof = Proof(pool, (ProofStep(goal, Hypothesis(pool.index(goal))),))
        elif (tag := first_axiom_tag(goal)) is not None:
            proof = Proof(pool, (ProofStep(goal, AxiomRule(tag)),))
        elif (
            isinstance(goal, Just)
            and isinstance(goal.term, Constant)
            and cs.covers(goal.term.name, goal.body)
        ):
            proof = Proof(
                pool, (ProofStep(goal, AxiomNecessitation(goal.term.name)),)
            )
        elif k > 0:
            if isinstance(goal, Implies):
                sub = derive(hyps | {goal.left}, goal.right, k - 1)
                if sub is not None:
                    proof = with_hypotheses(deduce(sub, goal.left), pool)
            if proof is None:
                for x in pool:
                    minor = derive(hyps, x, k - 1)
                    if minor is None:
                        continue
                    implication = majors.get((x, goal))
                    if implication is None:
                        implication = majors[(x, goal)] = Implies(x, goal)
                    major = derive(hyps, implication, k - 1)
                    if major is not None:
                        proof = _combine_mp(major, minor)
                        break
        if proof is not None:
            proofs[key] = proof
            return proof
        failed[key] = k
        return None

    return derive(hyps, goal, k)


def bounded_derive(
    hyps,
    goal: Formula,
    cs: ConstantSpecification,
    k: int,
) -> Derivable | UnknownAtBound:
    """Search for a Hilbert proof of goal from hyps within depth k.

    Derivable carries a checking proof whose hypothesis list is hyps in
    the given order.  A goal among the hypotheses is answered before any
    search, with the one-step hyp proof that cites its first occurrence,
    the proof the search would find.  UnknownAtBound means the search
    discipline found no proof within the bound; it is not a
    non-derivability certificate.  The result is monotone in k.  Raises
    ValueError for a k below 0 or above MAX_DEPTH.
    """
    if k < 0:
        raise ValueError("bound must be nonnegative")
    if k > MAX_DEPTH:
        raise ValueError(f"bound must be at most {MAX_DEPTH}")
    hyp_tuple = tuple(hyps)
    if goal in hyp_tuple:
        step = ProofStep(goal, Hypothesis(hyp_tuple.index(goal)))
        return Derivable(Proof(hyp_tuple, (step,)))
    # The pool order decides which proof is found and, since memoized
    # proofs ignore depth, which sequents succeed at a given bound.
    pool = tuple(
        sorted(close_subformulas(set(hyp_tuple) | {goal}), key=formula_key)
    )
    proof = _search(pool, cs, frozenset(hyp_tuple), goal, k)
    if proof is None:
        return UnknownAtBound(k)
    return Derivable(with_hypotheses(proof, hyp_tuple))
