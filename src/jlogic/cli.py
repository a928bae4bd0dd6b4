"""Command-line front end.

Every subcommand reads files or literals, runs one library operation,
and reports in either plain text or JSON (--format).  Exit codes: 0 for
success, 1 for a semantic failure (rejected proof, invalid model, false
formula, no countermodel, non-prime saturation), 2 for usage and parse
errors.  Output is deterministic for fixed inputs."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from jlogic.proof_system import (
    MAX_DEPTH,
    ConstantSpecification,
    HypothesisNotFound,
    NotAppropriate,
    FileFormatError,
    check_proof,
    deduce,
    internalize,
    parse_cs,
    parse_proof,
    print_proof,
)
from jlogic.saturation import (
    CANONICAL_CAP,
    ORACLE_DEPTH,
    CapExceeded,
    FailedPrecondition,
    RefutedBySemantics,
    Unknown,
    bounded_canonical_model,
    check_prime,
    parse_universe,
    prime_saturate,
)
from jlogic.semantics import (
    EVIDENCE_BUDGET,
    MAX_WORLDS,
    UniverseNotClosed,
    evaluate_truth,
    find_countermodel,
    parse_model,
    print_model,
    validate_model,
)
from jlogic.syntax import (
    ParseError,
    formula_size,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
)


class UsageError(Exception):
    """A command line argument that names what its input lacks."""


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args, stdout, text: str, payload: dict) -> None:
    if args.format == "json":
        stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        stdout.write(text + "\n")


def _write_artifact(args, stdout, kind: str, artifact: str, summary: str,
                    payload: dict, header: str = "") -> None:
    """Write a proof or model file.  With --out - it goes to stdout: under
    the key kind of the JSON payload, or in text after the header lines.
    Otherwise it goes to the file named by --out, and stdout gets the
    summary."""
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(artifact)
        _emit(args, stdout, summary, payload)
    elif args.format == "json":
        _emit(args, stdout, "", dict(payload, **{kind: artifact}))
    else:
        stdout.write(header + artifact)


def _load_cs(path: str | None) -> ConstantSpecification:
    if path is None:
        return ConstantSpecification.default_schematic()
    return parse_cs(_read(path))


def cmd_parse(args, stdout) -> int:
    kind, parse = ("term", parse_term) if args.term else ("formula", parse_formula)
    node = parse(args.input)
    text = print_formula(node, args.full_parens)
    _emit(args, stdout, text,
          {"kind": kind, "canonical": text, "size": formula_size(node)})
    return 0


def cmd_check(args, stdout) -> int:
    cs = _load_cs(args.cs)
    pi = parse_proof(_read(args.proof), cs.constants())
    report = check_proof(pi, cs)
    _emit(args, stdout, str(report),
          {"ok": report.ok, "step": report.step, "code": report.code,
           "detail": report.detail})
    return 0 if report.ok else 1


def cmd_deduce(args, stdout) -> int:
    cs = _load_cs(args.cs)
    pi = parse_proof(_read(args.proof), cs.constants())
    a = parse_formula(args.hypothesis, constants=cs.constants())
    report = check_proof(pi, cs)
    if not report.ok:
        raise ValueError(f"input proof does not check: {report}")
    out = deduce(pi, a)
    _write_artifact(args, stdout, "proof", print_proof(out),
                    f"deduced {print_formula(out.conclusion)}",
                    {"conclusion": print_formula(out.conclusion),
                     "steps": len(out.steps), "out": args.out})
    return 0


def cmd_internalize(args, stdout) -> int:
    cs = _load_cs(args.cs)
    pi = parse_proof(_read(args.proof), cs.constants())
    witnesses = tuple(
        parse_term(part.strip(), constants=cs.constants())
        for part in args.witnesses.split(",")
        if part.strip()
    )
    if len(witnesses) != len(pi.hypotheses):
        raise UsageError(
            f"{len(pi.hypotheses)} hypotheses but {len(witnesses)} witnesses"
        )
    t, out = internalize(pi, witnesses, cs)
    _write_artifact(args, stdout, "proof", print_proof(out),
                    f"internalized by {print_term(t)}",
                    {"term": print_term(t),
                     "conclusion": print_formula(out.conclusion),
                     "steps": len(out.steps), "out": args.out},
                    header=f"# term: {print_term(t)}\n")
    return 0


def cmd_model_validate(args, stdout) -> int:
    cs = _load_cs(args.cs)
    m = parse_model(_read(args.model), cs)
    verdict = validate_model(m)
    _emit(args, stdout, str(verdict),
          {"ok": verdict.ok,
           "violations": [
               {"condition": v.condition, "worlds": list(v.worlds),
                "witness": v.witness}
               for v in verdict.violations
           ]})
    return 0 if verdict.ok else 1


def cmd_model_eval(args, stdout) -> int:
    cs = _load_cs(args.cs)
    m = parse_model(_read(args.model), cs)
    a = parse_formula(args.formula, constants=cs.constants())
    if args.world not in m.worlds:
        raise UsageError(f"unknown world {args.world!r}")
    value = evaluate_truth(m, args.world, a)
    _emit(args, stdout, "true" if value else "false",
          {"world": args.world, "formula": print_formula(a), "value": value})
    return 0 if value else 1


def cmd_countermodel(args, stdout) -> int:
    cs = _load_cs(args.cs)
    a = parse_formula(args.formula, constants=cs.constants())
    found = find_countermodel(a, args.max_worlds, args.budget, cs)
    if found is None:
        _emit(args, stdout, "none found within bounds",
              {"found": False, "max_worlds": args.max_worlds,
               "budget": args.budget})
        return 1
    model = print_model(found.model)
    _emit(args, stdout, f"# false at: {found.world}\n" + model.rstrip("\n"),
          {"found": True, "world": found.world, "model": model})
    return 0


def _certificate_tag(cert) -> str | None:
    if cert is None:
        return None
    if isinstance(cert, RefutedBySemantics):
        return "refuted"
    if isinstance(cert, Unknown):
        return "unknown"
    return "derivable"


def cmd_saturate(args, stdout) -> int:
    cs = _load_cs(args.cs)
    spec = parse_universe(_read(args.universe), cs)
    goal = spec.goal
    if args.goal is not None:
        goal = parse_formula(args.goal, constants=cs.constants())
    if goal is None:
        raise UsageError("no goal: neither in the file nor via --goal")
    th = prime_saturate(spec.base, goal, spec.universe, cs, args.depth)
    verdict = check_prime(th, cs)
    members = sorted(map(print_formula, th.members))
    trace = [{"index": s.index, "candidate": print_formula(s.candidate),
              "added": s.added, "certificate": _certificate_tag(s.certificate)}
             for s in th.trace]
    lines = [f"{row['index']}. {'add' if row['added'] else 'skip'} "
             f"{row['candidate']}  [{row['certificate'] or 'already present'}]"
             for row in trace]
    lines.append("members: " + ", ".join(members))
    lines.append(f"verdict: {verdict.status}"
                 + (f" ({verdict.reason})" if verdict.reason else ""))
    unknowns = sum(
        1 for c in th.certificates.values() if isinstance(c, Unknown)
    )
    _emit(args, stdout, "\n".join(lines),
          {"members": members, "verdict": verdict.status,
           "reason": verdict.reason, "unknown_certificates": unknowns,
           "trace": trace})
    return 0 if verdict.status == "prime" else 1


def cmd_canonical(args, stdout) -> int:
    cs = _load_cs(args.cs)
    spec = parse_universe(_read(args.universe), cs)
    cm = bounded_canonical_model(
        spec.universe, cs, args.depth, cap=args.cap
    )
    worlds = [{"name": w, "members": sorted(map(print_formula, th.members))}
              for w, th in zip(cm.model.worlds, cm.theories)]
    summary_lines = [f"{w['name']} = {{{', '.join(w['members'])}}}" for w in worlds]
    summary_lines.append(f"excluded unknown sets: {len(cm.excluded_unknown)}")
    payload = {
        "worlds": worlds,
        "excluded_unknown": [
            sorted(map(print_formula, s))
            for s in cm.excluded_unknown
        ],
        "out": args.out,
    }
    _write_artifact(args, stdout, "model", print_model(cm.model),
                    "\n".join(summary_lines), payload,
                    header="".join(f"# {line}\n" for line in summary_lines))
    return 0


def _int_in(low: int, high: int | None = None):
    """An argparse type: an integer from low to high, or at least low when
    high is None.  Out-of-range values are usage errors (exit 2)."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as a usage error
        if value < low or high is not None and value > high:
            bound = f"at least {low}" if high is None else f"from {low} to {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jlogic",
        description="Proof checking, Kripke-style models, and saturation "
                    "for intuitionistic justification logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("parse", "parse a formula or term and reprint it")
    p.add_argument("input")
    p.add_argument("--term", action="store_true",
                   help="treat the input as a term")
    p.add_argument("--full-parens", action="store_true")

    p = add("check", "check a Hilbert proof file")
    p.add_argument("proof")
    p.add_argument("cs", nargs="?", default=None,
                   help="constant specification file (default: schematic)")

    p = add("deduce", "discharge a hypothesis from a proof")
    p.add_argument("proof")
    p.add_argument("hypothesis")
    p.add_argument("out", nargs="?", default="-")
    p.add_argument("--cs", default=None)

    p = add("internalize", "lift a proof to a proof about evidence")
    p.add_argument("proof")
    p.add_argument("witnesses", help="comma-separated terms, one per hypothesis")
    p.add_argument("out", nargs="?", default="-")
    p.add_argument("--cs", default=None)

    p = add("model-validate", "validate a model file")
    p.add_argument("model")
    p.add_argument("--cs", default=None)

    p = add("model-eval", "evaluate a formula at a world")
    p.add_argument("model")
    p.add_argument("world")
    p.add_argument("formula")
    p.add_argument("--cs", default=None)

    p = add("countermodel", "search for a finite model refuting a formula")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=_int_in(1, MAX_WORLDS), default=3)
    p.add_argument("--budget", type=_int_in(0), default=EVIDENCE_BUDGET)
    p.add_argument("--cs", default=None)

    p = add("saturate", "extend a base toward a prime set avoiding a goal")
    p.add_argument("universe", help="universe file with base: and goal:")
    p.add_argument("--goal", default=None,
                   help="override the goal from the file")
    p.add_argument("--depth", type=_int_in(0, MAX_DEPTH), default=ORACLE_DEPTH)
    p.add_argument("--cs", default=None)

    p = add("canonical", "build the bounded canonical model of a universe")
    p.add_argument("universe")
    p.add_argument("--out", default="-")
    p.add_argument("--depth", type=_int_in(0, MAX_DEPTH), default=ORACLE_DEPTH)
    p.add_argument("--cap", type=_int_in(0), default=CANONICAL_CAP)
    p.add_argument("--cs", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built at the first main() call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so that a replaced cmd_* binding is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args, sys.stdout)
    except (ParseError, FileFormatError, UsageError, UniverseNotClosed,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (HypothesisNotFound, NotAppropriate, FailedPrecondition,
            CapExceeded, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
