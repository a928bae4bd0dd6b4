"""The three workloads.  Each is a round of seeded operations; an
operation is one user-level job, timed as a whole, and every answer is
checked after the timer stops.

Every call into jlogic goes through the module attribute at call time
(`J.semantics.find_countermodel`), so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import random
import re

import gen

OK, KNOWN_DEFECT, WRONG = "ok", "known_defect", "wrong"

# parse_model splits evidence lines on every '|', so a model whose
# evidence contains _|_ cannot be read back in.  Operations that hit it
# are counted as failed, at the rate at which such inputs arise.
DEFECT = "model round trip: parse_model splits evidence lines on '|' (_|_ in evidence)"

# The tail percentile: the highest of 90, 99 and 99.9 that leaves at
# least ten operations beyond it, as every round has at least 100
# operations and fewer than 1000.
TAIL_PCT = 90.0


class Op:
    """One operation: `run(J)` is timed; `verify(J, result)` is not, and
    returns (status, printed output for the digest, detail).  It runs
    `passes` times a round, so that a cheap operation's median time is
    taken over more runs."""

    __slots__ = ("kind", "label", "run", "verify", "inputs", "passes")

    def __init__(self, kind, label, run, verify, inputs, passes=1):
        self.kind = kind
        self.label = label
        self.run = run
        self.verify = verify
        self.inputs = inputs  # (loader, text) pairs: the input digest and set-up
        self.passes = passes


def _raised(result):
    return isinstance(result, BaseException)


def _is_format_error(e):
    return type(e).__name__ == "FileFormatError"


def bot_in_evidence(model_text):
    section = None
    for line in model_text.splitlines():
        if line and not line.startswith(" "):
            section = line.split(":", 1)[0]
        elif section == "evidence" and "_|_" in line:
            return True
    return False


def _cli(J, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = J.cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, out.getvalue()


_LAST_STEP = re.compile(r"^\s*\d+\. (.*) ; [^;]*$")


def _conclusion(proof_text):
    lines = [ln for ln in proof_text.splitlines() if ln.strip()]
    m = _LAST_STEP.match(lines[-1]) if lines else None
    return m.group(1) if m else None


# ---------------------------------------------------------------------------
# check: certificate checking, no search

N_PROOFS, N_MODELS = 20, 30
# The proofs and models are one fixed sample, drawn from this generator
# seed; a run's --seed renames their atoms and variables and orders the
# round.  What checking costs does not depend on the names, so runs with
# different seeds differ by the machine's noise and not by the sample.
CHECK_SEED = "check/proofs-and-models"


def check_ops(rng, work):
    """Accepted proofs of 10-60 steps, each checked as is, with one step
    corrupted, after `deduce` and after `internalize`; valid models of
    2-4 worlds over universes of 100-300 formulas, parsed, validated and
    evaluated at every world.  Sizes are stratified over that range."""
    sample = random.Random(CHECK_SEED)
    names = gen.renaming(rng)
    ops = []
    for i in range(N_PROOFS):
        length = 10 + (50 * i + sample.randrange(50)) // N_PROOFS
        ops += _proof_ops(gen.accepted_proof(sample, length), names, work, i)
    for i in range(N_MODELS):
        size = 100 + (200 * i + sample.randrange(200)) // N_MODELS
        ops.append(_model_op(gen.model_case(sample, size), names, i))
    rng.shuffle(ops)
    return ops


def _verify_cli(want_code, accept):
    def verify(J, result):
        if _raised(result):
            return WRONG, "", repr(result)
        code, text = result
        if code != want_code or not accept(text):
            return WRONG, "", f"exit {code}: {text[:120]!r}"
        return OK, text, ""
    return verify


def _proof_ops(case, names, work, i):
    good, bad, out = (str(work / f"{stem}{i}.txt")
                      for stem in ("proof", "bad", "out"))
    good_text = gen.rename(case.text(), names)
    bad_text = gen.rename(case.bad_text(), names)
    with open(good, "w", encoding="utf-8") as fh:
        fh.write(good_text)
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write(bad_text)
    hyp = gen.rename(gen.show(case.hyps[0]), names)
    witnesses = ",".join(("x", "y", "z", "u")[:len(case.hyps)])
    bad_prefix = f"rejected at step {case.bad_index + 1}: {case.bad_code} "

    def pipeline(command, *args):
        def run(J):
            code, text = _cli(J, [command, good, *args, "-"])
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code, text, *_cli(J, ["check", out])
        return run

    def verify_pipeline(want_conclusion):
        def verify(J, result):
            if _raised(result):
                return WRONG, "", repr(result)
            code, text, code2, text2 = result
            if code != 0 or code2 != 0 or text2 != "accepted\n":
                return WRONG, "", f"exit {code}/{code2}: {text2[:120]!r}"
            got = _conclusion(text)
            if got != want_conclusion(text):
                return WRONG, "", f"conclusion {got!r}"
            return OK, text + text2, ""
        return verify

    def deduced(_text):
        return gen.rename(gen.show(gen.imp(case.hyps[0], case.conclusion)), names)

    def internalized(text):
        term = text.splitlines()[0].removeprefix("# term: ")
        return term + ":" + gen.rename(gen.show(case.conclusion, gen.JUST_LEVEL), names)

    return [
        Op("check", f"proof{i}", lambda J: _cli(J, ["check", good]),
           _verify_cli(0, lambda t: t == "accepted\n"), (("proof", good_text),)),
        Op("check_corrupted", f"proof{i}", lambda J: _cli(J, ["check", bad]),
           _verify_cli(1, lambda t: t.startswith(bad_prefix)),
           (("proof", bad_text),)),
        Op("deduce_check", f"proof{i}", pipeline("deduce", hyp),
           verify_pipeline(deduced), ()),
        Op("internalize_check", f"proof{i}", pipeline("internalize", witnesses),
           verify_pipeline(internalized), ()),
    ]


def _model_op(case, names, i):
    """The renaming maps atoms one to one, so the truth values of the
    renamed formulas are those of the originals in the original model."""
    text = gen.rename(case.text(), names)
    formulas = [gen.rename(gen.show(f), names) for f in case.formulas]

    def run(J):
        m = J.semantics.parse_model(text)
        verdict = J.semantics.validate_model(m)
        batch = [J.syntax.parse_formula(f) for f in formulas]
        values = [[J.semantics.evaluate_truth(m, w, a) for a in batch]
                  for w in m.worlds]
        return verdict.ok, str(verdict), m.worlds, values

    def verify(J, result):
        if _raised(result):
            if case.bot_in_evidence and _is_format_error(result):
                return KNOWN_DEFECT, "", DEFECT
            return WRONG, "", repr(result)
        ok, shown, worlds, values = result
        if not ok:
            return WRONG, "", f"valid model rejected: {shown[:200]}"
        if worlds != tuple(f"w{k}" for k in range(case.n)):
            return WRONG, "", f"worlds {worlds}"
        for j, f in enumerate(case.formulas):
            for w in range(case.n):
                for v in range(case.n):
                    if (w, v) in case.rel and values[w][j] and not values[v][j]:
                        return WRONG, "", f"{formulas[j]} not monotone w{w}->w{v}"
                if gen.is_propositional(f) and values[w][j] != gen.true_at(
                        f, w, case.rel, case.atoms, case.n):
                    return WRONG, "", f"{formulas[j]} wrong at w{w}"
        bits = "".join("1" if x else "0" for row in values for x in row)
        return OK, shown + "\n" + bits, ""

    return Op("model", f"model{i}", run, verify, (("model", text),))


# ---------------------------------------------------------------------------
# countermodel: find_countermodel, no proof search

# The forward-closure theorems here and the universes of `saturate` are
# each one fixed sample, drawn from these generator seeds, so that runs
# with different seeds differ by little more than the machine's own
# noise.  A run's --seed renames the theorems' atoms and variables, which
# leaves the cost of these searches nearly unchanged, and orders both
# rounds.
FORWARD_SEED = "countermodel/forward-theorems"
UNIVERSE_SEED = "saturate/universes"

N_FORWARD = 20  # per class of 0, 1 and 2 evidence subformulas
RENAMINGS = 3  # of the non-theorems and of the J-axiom instances
# Runs per round: the cheap goals most, then the J-axiom instances (where
# the tail lies) and the heavy goals (most of the time), so that a round
# takes 6-9 s and every goal runs at least four times in a run.
PASSES = {"cheap": 3, "j_axiom": 3, "heavy": 1}


def countermodel_ops(rng):
    """Known non-theorems (expected world count), J-axiom instances and
    forward-closure theorems (no countermodel), and evidence-heavy
    theorems, under seeded renamings of atoms and variables."""
    forward = gen.forward_theorems(random.Random(FORWARD_SEED), N_FORWARD)
    ops = [_countermodel_op(gen.rename(t, gen.renaming(rng)), 3, n,
                            PASSES["cheap"])
           for _ in range(RENAMINGS) for t, n in gen.NON_THEOREMS]
    names = gen.renaming(rng)
    ops += [_countermodel_op(gen.rename(gen.show(a), names), 2, None,
                             PASSES["cheap"])
            for a in forward]
    ops += [_countermodel_op(gen.rename(t, gen.renaming(rng)), n, None,
                             PASSES["j_axiom"])
            for _ in range(RENAMINGS) for t, n in gen.J_THEOREMS]
    rng.shuffle(ops)
    names = gen.renaming(rng)
    heavy = [_countermodel_op(gen.rename(t, names), n, None, PASSES["heavy"])
             for t, n in gen.HEAVY_THEOREMS]
    # spread the heavy goals evenly over the round
    step = len(ops) // len(heavy)
    for k, op in enumerate(heavy):
        ops.insert(k * (step + 1), op)
    return ops


def _countermodel_op(goal, max_worlds, expected_worlds, passes=1):
    """expected_worlds is None for a theorem: the search must find nothing."""

    def run(J):
        a = J.syntax.parse_formula(goal)
        found = J.semantics.find_countermodel(a, max_worlds, 6)
        if found is None:
            return None
        text = f"# false at: {found.world}\n" + J.semantics.print_model(found.model)
        try:
            back = J.semantics.parse_model(text)
        except Exception as e:  # the round trip is part of the job
            return found, text, e, None
        return found, text, back, J.semantics.validate_model(back).ok

    def verify(J, result):
        if _raised(result):
            return WRONG, "", repr(result)
        if expected_worlds is None:
            if result is not None:
                return WRONG, "", "countermodel to a theorem"
            return OK, "none", ""
        if result is None:
            return WRONG, "", "no countermodel to a non-theorem"
        found, text, back, back_ok = result
        a = J.syntax.parse_formula(goal)
        if len(found.model.worlds) != expected_worlds:
            return WRONG, "", f"{len(found.model.worlds)} worlds"
        if not J.semantics.validate_model(found.model).ok \
                or J.semantics.evaluate_truth(found.model, found.world, a):
            return WRONG, "", "model does not refute the goal"
        if _raised(back):
            if _is_format_error(back) and bot_in_evidence(text):
                return KNOWN_DEFECT, text, DEFECT
            return WRONG, "", repr(back)
        if not back_ok or J.semantics.evaluate_truth(back, found.world, a):
            return WRONG, "", "re-read model does not refute the goal"
        return OK, text, ""

    kind = "non_theorem" if expected_worlds else "theorem"
    return Op(kind, f"{goal} @{max_worlds}", run, verify, (("formula", goal),),
              passes)


# ---------------------------------------------------------------------------
# saturate: prime saturation and canonical models

# size: count.  An operation at 8-9 formulas takes about a second, and at
# 7 formulas `canonical` takes 0.5-3 s: a run would then hold too few
# rounds to take an operation's median time over.  So `saturate` runs on
# sizes 3-7 and `canonical` on sizes 3-6.
RANDOM_UNIVERSES = {3: 24, 4: 16, 5: 4, 6: 2, 7: 1}
CANONICAL_MAX = 6
DEPTH = 4


def saturate_ops(rng):
    """`saturate` on the nine shipped universes (goal _|_ where the file
    has none) and `canonical` on the four canon-* ones, then both on a
    fixed sample of universes of 3-7 formulas; the seed orders the round.

    Renaming the atoms of a universe changes how much work saturation
    does on it, by up to 1.5x on some universes of 5-7 formulas, and with
    it the p90 of a run by up to a quarter; so these are not renamed."""
    ops = []
    for name, (text, members, worlds) in gen.SHIPPED.items():
        ops.append(_saturate_op(name, text, members))
        if worlds is not None:
            ops.append(_canonical_op(name, text, worlds))
    for size, count in RANDOM_UNIVERSES.items():
        sample = random.Random(f"{UNIVERSE_SEED}/{size}")
        for k in range(count):
            text = gen.random_universe(sample, size)
            ops.append(_saturate_op(f"u{size}.{k}", text, None))
            if size <= CANONICAL_MAX:
                ops.append(_canonical_op(f"u{size}.{k}", text, None))
    rng.shuffle(ops)
    return ops


def _cert_tag(cert):
    if cert is None:
        return "already present"
    name = type(cert).__name__
    return {"RefutedBySemantics": "refuted", "Unknown": "unknown"}.get(
        name, "derivable")


def _recheck(J, certificates, cs, seen):
    """Re-check every oracle certificate: each proof against its sequent,
    each countermodel by validation and by falsifying the sequent at the
    world it names.  Returns an error text or None."""
    for (hyps, goal), cert in certificates.items():
        if id(cert) in seen:
            continue
        seen.add(id(cert))
        kind = type(cert).__name__
        if kind == "Derivable":
            pf = cert.proof
            if not J.proof_system.check_proof(pf, cs).ok \
                    or pf.conclusion != goal or not set(pf.hypotheses) <= hyps:
                return f"bad proof for {J.syntax.print_formula(goal)}"
        elif kind == "RefutedBySemantics":
            m, w = cert.countermodel.model, cert.countermodel.world
            if not J.semantics.validate_model(m).ok:
                return "invalid countermodel"
            if not all(J.semantics.evaluate_truth(m, w, h) for h in hyps) \
                    or J.semantics.evaluate_truth(m, w, goal):
                return f"countermodel does not refute {J.syntax.print_formula(goal)}"
    return None


def _saturate_op(name, text, expected_members):
    def run(J):
        cs = J.proof_system.ConstantSpecification.default_schematic()
        spec = J.saturation.parse_universe(text, cs)
        goal = spec.goal if spec.goal is not None else J.syntax.parse_formula("_|_")
        th = J.saturation.prime_saturate(spec.base, goal, spec.universe, cs, DEPTH)
        verdict = J.saturation.check_prime(th, cs)
        pf = J.syntax.print_formula
        lines = [f"{s.index}. {'add' if s.added else 'skip'} {pf(s.candidate)}"
                 f"  [{_cert_tag(s.certificate)}]" for s in th.trace]
        members = sorted(map(pf, th.members))
        lines.append("members: " + ", ".join(members))
        lines.append(f"verdict: {verdict.status}")
        return cs, goal, th, verdict, members, "\n".join(lines)

    def verify(J, result):
        if _raised(result):
            return WRONG, "", repr(result)
        cs, goal, th, verdict, members, shown = result
        problem = _recheck(J, th.certificates, cs, set())
        if problem:
            return WRONG, "", problem
        for s in th.trace:
            if s.added and s.certificate is not None \
                    and type(s.certificate).__name__ != "RefutedBySemantics":
                return WRONG, "", "added without a countermodel"
        if goal in th.members:
            return WRONG, "", "goal among the members"
        if expected_members is not None and (
                members != expected_members or verdict.status != "prime"):
            return WRONG, "", f"{members} {verdict.status}"
        if verdict.status == "prime":
            problem = _prime_problem(J, th)
            if problem:
                return WRONG, "", problem
        return OK, shown, ""

    return Op("saturate", name, run, verify, (("universe", text),))


def _prime_problem(J, th):
    """A prime verdict must rest on certificates: no falsum, the
    disjunction property, and a countermodel for every formula left out."""
    ms = th.members
    if any(type(a).__name__ == "Falsum" for a in ms):
        return "prime set contains _|_"
    for a in ms:
        if type(a).__name__ == "Or" and a.left not in ms and a.right not in ms:
            return "disjunction property fails"
    for a in th.universe:
        if a not in ms and type(th.certificates.get((ms, a))).__name__ \
                != "RefutedBySemantics":
            return f"no countermodel keeps {J.syntax.print_formula(a)} out"
    return None


def _canonical_op(name, text, expected_worlds):
    def run(J):
        cs = J.proof_system.ConstantSpecification.default_schematic()
        spec = J.saturation.parse_universe(text, cs)
        cm = J.saturation.bounded_canonical_model(spec.universe, cs, DEPTH)
        pf = J.syntax.print_formula
        lines = [f"# {cm.model.worlds[i]} = {{"
                 + ", ".join(sorted(map(pf, th.members))) + "}"
                 for i, th in enumerate(cm.theories)]
        lines.append(f"# excluded unknown sets: {len(cm.excluded_unknown)}")
        return cs, spec, cm, "\n".join(lines) + "\n" + J.semantics.print_model(cm.model)

    def verify(J, result):
        if _raised(result):
            return WRONG, "", repr(result)
        cs, spec, cm, shown = result
        m = cm.model
        if expected_worlds is not None and len(m.worlds) != expected_worlds:
            return WRONG, "", f"{len(m.worlds)} worlds"
        if not J.semantics.validate_model(m).ok:
            return WRONG, "", "canonical model is invalid"
        if any(v.status != "prime" for v in cm.verdicts):
            return WRONG, "", "a world is not certified prime"
        seen = set()
        for w, th in zip(m.worlds, cm.theories):
            for a in spec.universe:
                if (a in th.members) != J.semantics.evaluate_truth(m, w, a):
                    return WRONG, "", (f"truth lemma fails for "
                                       f"{J.syntax.print_formula(a)} at {w}")
            problem = _recheck(J, th.certificates, cs, seen)
            if problem:
                return WRONG, "", problem
        return OK, shown, ""

    return Op("canonical", name, run, verify, (("universe", text),))


# workload name -> function of (rng, work directory) giving one round
WORKLOADS = {
    "check": check_ops,
    "countermodel": lambda rng, work: countermodel_ops(rng),
    "saturate": lambda rng, work: saturate_ops(rng),
}
