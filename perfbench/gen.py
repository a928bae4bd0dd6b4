"""Seeded inputs for the benchmark, built without the code under test.

Formulas and terms are plain tuples printed by this module's own
printer, so the inputs (and the answers known by construction) do not
change when jlogic changes:

    ("atom", name) ("bot",) ("and", a, b) ("or", a, b) ("imp", a, b)
    ("just", term, a)
    ("var", name) ("const", name) ("app", s, t) ("sum", s, t) ("bang", t)
"""

from __future__ import annotations

import hashlib
import re

BOT = ("bot",)
ATOMS = ("p", "q", "r")
VARIABLES = ("x", "y", "z")

# Default schematic constant specification: c1..c14 in schema order.
TAGS = ("IPC-1", "IPC-2", "IPC-3", "IPC-4", "IPC-5", "IPC-6", "IPC-7",
        "IPC-8", "IPC-9", "J-App", "J-Sum-L", "J-Sum-R", "J-T", "J-4")
CONSTANT_OF = {tag: f"c{i + 1}" for i, tag in enumerate(TAGS)}


def atom(n):
    return ("atom", n)


def imp(a, b):
    return ("imp", a, b)


def just(t, a):
    return ("just", t, a)


def var(n):
    return ("var", n)


# ---------------------------------------------------------------------------
# Printing (minimal parentheses, same grammar as the README)

_SUM, _APP, _UNARY = 0, 1, 2
_IMP, _OR, _AND, _JUST = 0, 1, 2, 3
JUST_LEVEL = _JUST  # how the body of t:A is printed


def show_term(t, level=_SUM):
    k = t[0]
    if k in ("var", "const"):
        return t[1]
    if k == "bang":
        return "!" + show_term(t[1], _UNARY)
    if k == "app":
        s = show_term(t[1], _APP) + "." + show_term(t[2], _UNARY)
        return f"({s})" if level > _APP else s
    s = show_term(t[1], _SUM) + " + " + show_term(t[2], _APP)
    return f"({s})" if level > _SUM else s


def show(a, level=_IMP):
    k = a[0]
    if k == "atom":
        return a[1]
    if k == "bot":
        return "_|_"
    if k == "just":
        return show_term(a[1]) + ":" + show(a[2], _JUST)
    if k == "and":
        s = show(a[1], _AND) + " /\\ " + show(a[2], _JUST)
        need = level > _AND
    elif k == "or":
        s = show(a[1], _OR) + " \\/ " + show(a[2], _AND)
        need = level > _OR
    else:
        s = show(a[1], _OR) + " -> " + show(a[2], _IMP)
        need = level > _IMP
    return f"({s})" if need else s


def subformulas(a, out=None):
    out = set() if out is None else out
    if a not in out:
        out.add(a)
        if a[0] in ("and", "or", "imp"):
            subformulas(a[1], out)
            subformulas(a[2], out)
        elif a[0] == "just":
            subformulas(a[2], out)
    return out


def is_propositional(a):
    return all(f[0] != "just" for f in subformulas(a))


def rename(text, mapping):
    """Apply a renaming of atom and variable names to formula text."""
    return re.sub(r"[a-z]\w*", lambda m: mapping.get(m.group(0), m.group(0)),
                  text)


def renaming(rng, atoms=("p", "q", "r"), variables=("x", "y", "z", "u", "v")):
    """Random injective renaming of atoms and of variables."""
    new_atoms = list(atoms)
    new_vars = list(variables)
    rng.shuffle(new_atoms)
    rng.shuffle(new_vars)
    return dict(zip(atoms, new_atoms)) | dict(zip(variables, new_vars))


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Random formulas and schema instances


def random_term(rng, depth, variables=VARIABLES):
    if depth <= 0 or rng.random() < 0.4:
        return var(rng.choice(variables))
    k = rng.randrange(3)
    if k == 0:
        return ("app", random_term(rng, depth - 1, variables),
                random_term(rng, depth - 1, variables))
    if k == 1:
        return ("sum", random_term(rng, depth - 1, variables),
                random_term(rng, depth - 1, variables))
    return ("bang", random_term(rng, depth - 1, variables))


def random_formula(rng, depth, atoms=ATOMS, variables=VARIABLES, justs=True):
    """Leaves are falsum one time in ten, as in the test generators."""
    if depth <= 0 or rng.random() < 0.25:
        return BOT if rng.random() < 0.1 else atom(rng.choice(atoms))
    k = rng.randrange(4 if justs else 3)
    if k == 3:
        return just(random_term(rng, min(depth - 1, 2), variables),
                    random_formula(rng, depth - 1, atoms, variables, justs))
    return (("imp", "and", "or")[k],
            random_formula(rng, depth - 1, atoms, variables, justs),
            random_formula(rng, depth - 1, atoms, variables, justs))


def instance(tag, A, B=None, C=None, s=None, t=None):
    """The instance of a schema under the given metavariable values."""
    if tag == "IPC-1":
        return imp(A, imp(B, A))
    if tag == "IPC-2":
        return imp(imp(A, imp(B, C)), imp(imp(A, B), imp(A, C)))
    if tag == "IPC-3":
        return imp(A, imp(B, ("and", A, B)))
    if tag == "IPC-4":
        return imp(("and", A, B), A)
    if tag == "IPC-5":
        return imp(("and", A, B), B)
    if tag == "IPC-6":
        return imp(A, ("or", A, B))
    if tag == "IPC-7":
        return imp(B, ("or", A, B))
    if tag == "IPC-8":
        return imp(imp(A, C), imp(imp(B, C), imp(("or", A, B), C)))
    if tag == "IPC-9":
        return imp(BOT, A)
    if tag == "J-App":
        return imp(just(t, imp(A, B)), imp(just(s, A), just(("app", t, s), B)))
    if tag == "J-Sum-L":
        return imp(just(t, A), just(("sum", t, s), A))
    if tag == "J-Sum-R":
        return imp(just(s, A), just(("sum", t, s), A))
    if tag == "J-T":
        return imp(just(t, A), A)
    return imp(just(t, A), just(("bang", t), just(t, A)))  # J-4


def random_instance(rng, tag, depth=1):
    def f():
        return random_formula(rng, depth)

    def tm():
        return random_term(rng, 1)

    return instance(tag, f(), f(), f(), tm(), tm())


# ---------------------------------------------------------------------------
# Proofs for the `check` workload


class ProofCase:
    """An accepted proof, a copy with one corrupted step, and what the
    checker must say about the copy."""

    def __init__(self, hyps, steps, bad_steps, bad_index, bad_code):
        self.hyps = hyps  # formulas
        self.steps = steps  # (formula, rule text)
        self.bad_steps = bad_steps
        self.bad_index = bad_index  # 0-based
        self.bad_code = bad_code
        self.conclusion = steps[-1][0]

    def text(self, steps=None):
        lines = []
        if self.hyps:
            lines.append("hypotheses:")
            lines += [f"  {i}. {show(h)}" for i, h in enumerate(self.hyps, 1)]
        lines.append("proof:")
        lines += [f"  {i}. {show(f)} ; {r}"
                  for i, (f, r) in enumerate(steps or self.steps, 1)]
        return "\n".join(lines) + "\n"

    def bad_text(self):
        return self.text(self.bad_steps)


def accepted_proof(rng, target_len):
    """A proof of at least target_len steps that is accepted under the
    default schematic specification by construction: every `ax` step is
    built from its schema, every `cs` step names the constant of its
    schema, and every `mp` step cites J -> K and J."""
    n_links = rng.randint(1, 3)
    chain = [random_formula(rng, 1, justs=False) for _ in range(n_links + 1)]
    hyps = [chain[0]] + [imp(chain[i], chain[i + 1]) for i in range(n_links)]
    steps = []

    def emit(f, rule):
        steps.append((f, rule))
        return len(steps)  # 1-based number

    at = {chain[0]: emit(chain[0], "hyp 1")}
    link = 0
    while len(steps) < target_len or link < n_links:
        roll = rng.random()
        if link < n_links and roll < 0.2:
            h = emit(hyps[link + 1], f"hyp {link + 2}")
            at[chain[link + 1]] = emit(chain[link + 1], f"mp {h},{at[chain[link]]}")
            link += 1
            continue
        tag = rng.choice(TAGS)
        inst = random_instance(rng, tag)
        emit(inst, f"ax {tag}")
        kind = rng.randrange(4)
        if kind == 0:
            # weaken a fact: D -> C from C via IPC-1
            c, at_c = rng.choice(list(at.items()))
            d = random_formula(rng, 1)
            k = emit(instance("IPC-1", c, d), "ax IPC-1")
            at[imp(d, c)] = emit(imp(d, c), f"mp {k},{at_c}")
        elif kind in (1, 2):
            # necessitate the instance, then J-T or J-4 on the result
            c = ("const", CONSTANT_OF[tag])
            cj = just(c, inst)
            n = emit(cj, f"cs {CONSTANT_OF[tag]}")
            if kind == 1:
                k = emit(instance("J-T", inst, t=c), "ax J-T")
                emit(inst, f"mp {k},{n}")
            else:
                k = emit(instance("J-4", inst, t=c), "ax J-4")
                emit(just(("bang", c), cj), f"mp {k},{n}")
    # corrupt one step after the first; the checker must stop right there
    i = rng.randrange(1, len(steps))
    f, rule = steps[i]
    kind = rule.split()[0]
    if kind == "ax":
        bad, code = (atom("p"), rule), "BadAxiom"
    elif kind == "mp":
        bad, code = (imp(f, f), rule), "BadMP"
    elif kind == "hyp":
        bad, code = (f, f"hyp {len(hyps) + 1}"), "BadIndex"
    else:
        other = "c1" if rule != "cs c1" else "c2"
        bad, code = (f, f"cs {other}"), "NotInCS"
    bad_steps = steps[:i] + [bad] + steps[i + 1:]
    return ProofCase(hyps, steps, bad_steps, i, code)


# ---------------------------------------------------------------------------
# Models for the `check` workload


def random_order(rng, n):
    """Reflexive-transitive order on 0..n-1 with pairs from low to high."""
    rel = {(i, i) for i in range(n)}
    rel |= {(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.45}
    changed = True
    while changed:
        extra = {(a, d) for (a, b) in rel for (c, d) in rel if b == c} - rel
        changed = bool(extra)
        rel |= extra
    return rel


def true_at(a, w, rel, atoms, n):
    """Kripke truth of a propositional formula (the reference evaluator)."""
    k = a[0]
    if k == "atom":
        return a[1] in atoms[w]
    if k == "bot":
        return False
    if k == "and":
        return true_at(a[1], w, rel, atoms, n) and true_at(a[2], w, rel, atoms, n)
    if k == "or":
        return true_at(a[1], w, rel, atoms, n) or true_at(a[2], w, rel, atoms, n)
    if k == "imp":
        return all(not true_at(a[1], v, rel, atoms, n)
                   or true_at(a[2], v, rel, atoms, n)
                   for v in range(n) if (w, v) in rel)
    raise ValueError("not propositional")


class ModelCase:
    """A model file that is valid by construction: evidence seeds are
    propositional formulas true at their world, so every closure
    condition keeps factivity (the soundness of the schemas).  The
    formulas to evaluate are the listed universe formulas."""

    def __init__(self, n, rel, atoms, seeds, formulas):
        self.n = n
        self.rel = rel
        self.atoms = atoms
        self.seeds = seeds  # (world, variable, formula)
        self.formulas = formulas
        self.bot_in_evidence = any("_|_" in show(f) for _, _, f in seeds)

    def text(self):
        lines = ["worlds: " + " ".join(f"w{i}" for i in range(self.n))]
        strict = sorted((a, b) for (a, b) in self.rel if a != b)
        if strict:
            lines.append("order:")
            lines += [f"  w{a} <= w{b}" for a, b in strict]
        if any(self.atoms):
            lines.append("atoms:")
            lines += [f"  w{i}: " + " ".join(sorted(s))
                      for i, s in enumerate(self.atoms) if s]
        if self.seeds:
            lines.append("evidence:")
            lines += [f"  w{w} | {t} | {show(f)}" for w, t, f in self.seeds]
        lines.append("formulas: " + ", ".join(show(f) for f in self.formulas))
        return "\n".join(lines) + "\n"


def model_case(rng, universe_size, max_seeds=6):
    n = rng.randint(2, 4)
    rel = random_order(rng, n)
    atoms = [set() for _ in range(n)]
    for p in ATOMS:
        base = [w for w in range(n) if rng.random() < 0.5]
        for w in range(n):
            if any((b, w) in rel for b in base):
                atoms[w].add(p)
    formulas, closed = [], set()
    while len(closed) < universe_size:
        f = random_formula(rng, 3)
        formulas.append(f)
        subformulas(f, closed)
    propositional = sorted((f for f in closed if is_propositional(f)), key=show)
    seeds = []
    for _ in range(rng.randint(0, max_seeds)):
        w = rng.randrange(n)
        f = rng.choice(propositional)
        if true_at(f, w, rel, atoms, n):
            seeds.append((w, rng.choice(VARIABLES), f))
    return ModelCase(n, rel, atoms, seeds, formulas)


# ---------------------------------------------------------------------------
# Goals for the `countermodel` workload

# Non-theorems with the size of their smallest countermodel (known from
# the intuitionistic semantics, evidence seeds within the default budget).
NON_THEOREMS = (
    ("p \\/ (p -> _|_)", 2),                         # excluded middle
    ("((p -> q) -> p) -> p", 2),                     # Peirce
    ("((p -> _|_) -> _|_) -> p", 2),                 # double negation
    ("(p -> q) \\/ (q -> p)", 3),                    # Dummett
    ("(p -> _|_) \\/ ((p -> _|_) -> _|_)", 3),       # weak excluded middle
    ("(x:p -> q) -> x:q", 1),
    ("x:(p -> _|_) -> p", 1),
    ("x:p -> y:p", 1),
    ("p -> x:p", 1),
    ("x:(p \\/ q) -> x:p \\/ x:q", 1),
    ("(p -> q) -> p", 1),
    ("x:(p -> q) -> x:p -> y:q", 1),
)

# Theorems whose search must run to the end.  J-axiom instances are
# searched at the max_worlds given; the evidence-heavy goals and J-App at
# three worlds take seconds each.
J_THEOREMS = (
    ("x:p -> !x:x:p", 3),
    ("x:p -> x + y:p", 3),
    ("y:p -> x + y:p", 3),
    ("x:p -> p", 3),
    ("x:(p -> q) -> y:p -> x.y:q", 2),
    ("x:(p -> q) -> x:p -> x.x:q", 2),
)
# Five `t:A` hypotheses at 2 worlds take 3-5 s, which would make a round
# of `countermodel` half again as long; three and four are kept.
HEAVY_THEOREMS = (
    ("x:(p -> q) -> y:p -> x.y:q", 3),
    ("x:p -> y:q -> z:r -> u:p -> q", 2),
    ("x:p -> y:q -> z:r -> r", 2),
)


def just_count(a):
    return sum(1 for f in subformulas(a) if f[0] == "just")


def forward_theorems(rng, per_class, size_cap=16):
    """Theorems by forward closure: schema instances over a small pool of
    formulas, then modus ponens among them.  Evidence is never nested, and
    the result has per_class theorems with each of 0, 1 and 2
    evidence subformulas."""
    p, q = atom("p"), atom("q")
    x, y = var("x"), var("y")
    pool = [p, q, BOT, just(x, p), just(y, imp(p, q)), imp(p, q)]
    tags = [t for t in TAGS if t != "J-4"]
    seen, out = set(), []
    classes = {0: [], 1: [], 2: []}

    def add(a):
        if a in seen or len(subformulas(a)) > size_cap:
            return
        seen.add(a)
        out.append(a)
        if any(f[0] == "just" and f[2][0] == "just" for f in subformulas(a)):
            return
        bucket = classes.get(just_count(a))
        if bucket is not None and len(bucket) < per_class:
            bucket.append(a)

    while any(len(c) < per_class for c in classes.values()):
        add(instance(rng.choice(tags), rng.choice(pool), rng.choice(pool),
                     rng.choice(pool), rng.choice((x, y)), rng.choice((x, y))))
        major = rng.choice(out)
        if major[0] == "imp" and major[1] in seen:
            add(major[2])
    return classes[0] + classes[1] + classes[2]


# ---------------------------------------------------------------------------
# Universes for the `saturate` workload

# The nine shipped universes, with the answers the README gives: the
# members and verdict of `saturate` (goal _|_ where the file has none)
# and the world count of `canonical`.
SHIPPED = {
    "sat-disjunction": ("universe: p \\/ q\nbase: p \\/ q\ngoal: _|_\n",
                        ["p", "p \\/ q", "q"], None),
    "sat-evidence": ("universe: x:p\nbase: x:p\ngoal: _|_\n",
                     ["p", "x:p"], None),
    "sat-application": (
        "universe: x:(p -> q), y:p, x.y:q\nbase: x:(p -> q), y:p\ngoal: _|_\n",
        ["p", "p -> q", "q", "x.y:q", "x:(p -> q)", "y:p"], None),
    "sat-introspection": ("universe: !x:x:p, x + y:p\nbase: x:p\ngoal: _|_\n",
                          ["!x:x:p", "p", "x + y:p", "x:p"], None),
    "sat-peirce": ("universe: ((p -> q) -> p) -> p\n"
                   "goal: ((p -> q) -> p) -> p\n",
                   ["(p -> q) -> p"], None),
    "canon-atom": ("universe: p\n", ["p"], 2),
    "canon-implication": ("universe: p -> q\n", ["p", "p -> q", "q"], 5),
    "canon-disjunction": ("universe: p \\/ q\n", ["p", "p \\/ q", "q"], 4),
    "canon-evidence": ("universe: x:p\n", ["p", "x:p"], 3),
}


def random_universe(rng, size):
    """Universe text whose subformula closure has exactly `size` members
    (over p, q, r and x, y, z); the base is empty and the goal _|_."""
    while True:
        formulas, closed = [], set()
        while len(closed) < size:
            f = random_formula(rng, 2, justs=True)
            trial = subformulas(f, set(closed))
            if len(trial) > size:
                break
            formulas.append(f)
            closed = trial
        if len(closed) == size:
            return "universe: " + ", ".join(show(f) for f in formulas) + "\n"
