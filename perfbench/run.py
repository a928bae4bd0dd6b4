"""Benchmark for jlogic: certificate checking, countermodel search and
saturation, each as a closed loop of one client in one process.

    python3 perfbench/run.py --workload check --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; jlogic is imported from its `src/`.
With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics of a
separate, traced run.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gen
import layertrace as trace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 3
SETUPS = 7  # two before the first round, then one after each round until seven
HARD_STOP_S = 150.0  # stop after the round that crosses this, whatever else

# Timings are reported at the reference speed: the speed at which the
# reference computation below, the benchmark's own code and the same on
# every commit, takes REF_SECONDS.  Each timed piece of work is timed by
# the wall clock and multiplied by REF_SECONDS over the mean of the
# reference's times just before and just after it.  On a shared machine
# the CPU's speed drifts by up to 1.8x over minutes as other tenants come
# and go; the reference slows with it, so the ratio does not.
REF_SECONDS = 0.001
REF_FORMULAS = [gen.random_formula(random.Random(f"reference/{i}"), 4)
                for i in range(100)]


def reference_seconds():
    start = time.perf_counter()
    for a in REF_FORMULAS:
        gen.show(a)
        gen.subformulas(a)
    return time.perf_counter() - start


def at_reference_speed(seconds, before, after):
    return seconds * 2 * REF_SECONDS / (before + after)


class Modules:
    """jlogic's modules, looked up at call time so that tracing applies."""

    def __init__(self, package, modules):
        self.package = package
        self.modules = modules
        for name, module in modules.items():
            setattr(self, name, module)


def set_up(ops):
    """Import jlogic afresh, load every input from text with jlogic's own
    parsers, and fill the process-wide poset cache.  Returns the seconds
    taken, by the wall clock and at the reference speed, and the
    modules."""
    gc.unfreeze()
    for name in [m for m in sys.modules if m == "jlogic" or m.startswith("jlogic.")]:
        del sys.modules[name]
    gc.collect()
    before = reference_seconds()
    start = time.perf_counter()
    package = importlib.import_module("jlogic")
    J = Modules(package, {layer: importlib.import_module(f"jlogic.{layer}")
                          for layer in trace.LAYERS})
    constants = J.proof_system.ConstantSpecification.default_schematic().constants()
    loaders = {
        "proof": lambda t: J.proof_system.parse_proof(t, constants),
        "model": J.semantics.parse_model,
        "formula": J.syntax.parse_formula,
        "universe": J.saturation.parse_universe,
    }
    for op in ops:
        for loader, text in op.inputs:
            try:
                loaders[loader](text)
            except J.proof_system.FileFormatError:
                if loader != "model" or not workloads.bot_in_evidence(text):
                    raise
    J.semantics.find_countermodel(J.syntax.parse_formula("p -> p"), 3)
    seconds = time.perf_counter() - start
    after = reference_seconds()
    # the inputs and modules stay alive; keep them out of every collection
    gc.collect()
    gc.freeze()
    return (seconds, at_reference_speed(seconds, before, after)), J


class Tally:
    def __init__(self, n_ops):
        # seconds at the reference speed, per operation, untraced and traced
        self.times = [[] for _ in range(n_ops)]
        self.traced = [[] for _ in range(n_ops)]
        self.wall = [[] for _ in range(n_ops)]  # untraced, by the wall clock
        self.refs = []  # the reference's times
        self.runs = 0
        self.status = [workloads.OK] * n_ops  # the worst of each operation's runs
        self.wrong = []
        self.first_texts = {}
        self.mismatched = 0

    def add(self, k, op, seconds, refs, traced, verdict):
        status, text, detail = verdict
        (self.traced if traced else self.times)[k].append(
            at_reference_speed(seconds, *refs))
        if not traced:
            self.wall[k].append(seconds)
        self.refs += refs
        self.runs += 1
        if status == workloads.WRONG:
            self.wrong.append(f"{op.kind} {op.label}: {detail}")
        if self.status[k] != workloads.WRONG:
            self.status[k] = status
        if k not in self.first_texts:
            self.first_texts[k] = text
        elif self.first_texts[k] != text:
            self.mismatched += 1


def schedule(ops):
    """One round: every operation once, then the further passes of the
    operations that run more than once a round."""
    return [k for p in range(max(op.passes for op in ops))
            for k, op in enumerate(ops) if op.passes > p]


def run_round(J, ops, order, tally, tracer=None, deadline=None):
    """Run one round, or its part up to the operation that ends after
    `deadline`; returns whether the round was whole.  Each operation
    starts from an empty young generation, so that its garbage
    collections fall at the same points in every round."""
    for k in order:
        if deadline is not None and time.perf_counter() >= deadline:
            return False
        op = ops[k]
        gc.collect()
        if tracer is not None:
            tracer.op += 1
            tracer.on = True
        before = reference_seconds()
        start = time.perf_counter()
        try:
            result = op.run(J)
        except Exception as e:  # an operation that raises has failed
            result = e
        spent = time.perf_counter() - start
        if tracer is not None:
            tracer.on = False
        after = reference_seconds()
        tally.add(k, op, spent, (before, after), tracer is not None,
                  op.verify(J, result))
    return True


def percentile(samples, pct):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # the same seed must do the same work: fix the order of sets and dicts
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not (SRC / "jlogic" / "__init__.py").is_file():
        print(f"error: no jlogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(args, work):
    rng = random.Random(f"{args.workload}/{args.seed}")
    ops = workloads.WORKLOADS[args.workload](rng, work)
    input_digest = gen.digest(f"{op.kind} {op.label}\n" + "\n".join(t for _, t in op.inputs)
                              for op in ops)
    setups = []
    for _ in range(2):
        seconds, J = set_up(ops)
        setups.append(seconds)

    order = schedule(ops)
    tally = Tally(len(ops))
    tracer = trace.Tracer() if args.trace else None
    rounds = {False: 0, True: 0}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds[False] > rounds[True]
        if traced:
            tracer.install(J.package, J.modules)
        # an untraced run ends at --seconds, inside a round, once it has
        # MIN_ROUNDS whole rounds; a traced run ends after a whole pair
        deadline = (start + args.seconds
                    if tracer is None and rounds[False] >= MIN_ROUNDS else None)
        whole = run_round(J, ops, order, tally, tracer if traced else None, deadline)
        if traced:
            tracer.uninstall()
        if not whole:
            break
        rounds[traced] += 1
        if len(setups) < SETUPS:
            seconds, J = set_up(ops)
            setups.append(seconds)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            break
        if tracer is None:
            done = rounds[False] >= MIN_ROUNDS
        else:  # untraced and traced rounds alternate, in pairs
            done = rounds[True] == rounds[False]
        if elapsed >= args.seconds and done:
            break

    # an operation's latency is the median of its times in the run; it
    # counts once in `attempted`, and once in `failed` if any run failed
    latencies = [statistics.median(t) for t in tally.times]
    wall = [statistics.median(t) for t in tally.wall]
    attempted = len(ops)
    known = tally.status.count(workloads.KNOWN_DEFECT)
    failed = known + tally.status.count(workloads.WRONG)
    pct = workloads.TAIL_PCT
    tail = percentile(latencies, pct)
    by_kind = {}
    for op, t in zip(ops, latencies):
        by_kind.setdefault(op.kind, []).append(t)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds[False] + rounds[True],  # whole rounds
        "operations": len(ops),
        "samples": sum(map(len, tally.times)),
        "latency_tail_percentile": pct,
        "beyond_tail": sum(1 for t in latencies if t > tail),
        "failed_share": failed / attempted,
        "failed": failed,
        "attempted": attempted,
        "runs_of_operations": tally.runs,
        "failed_known_defect": known,
        "known_defect": workloads.DEFECT,
        "wrong": tally.wrong[:10],
        "outputs_mismatched_across_rounds": tally.mismatched,
        "input_digest": input_digest,
        "output_digest": gen.digest(tally.first_texts[k] for k in range(len(ops))),
        "setup_runs_s": [r for _, r in setups],
        "wall_clock": {
            "latency_p50_ms": 1000 * statistics.median(wall),
            "latency_tail_ms": 1000 * percentile(wall, pct),
            "queries_per_s": len(wall) / sum(wall),
            "setup_s": statistics.median(w for w, _ in setups),
        },
        "reference_ms": {"median": 1000 * statistics.median(tally.refs),
                         "least": 1000 * min(tally.refs)},
        "p50_ms_by_kind": {k: round(1000 * statistics.median(v), 3)
                           for k, v in sorted(by_kind.items())},
        "count_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
    }
    if tracer is None:
        metrics = {
            "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "latency_tail_ms": (1000 * tail, "ms"),
            "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
            "success_share": (1 - failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(r for _, r in setups), "s"),
        }
    else:
        traced_ops = rounds[True] * len(order)
        metrics = {name: (value, _unit(name)) for name, value
                   in trace.layer_metrics(tracer, traced_ops).items()}
        untraced = sum(map(sum, tally.times)) / rounds[False]
        metrics["trace.overhead_share"] = (
            sum(map(sum, tally.traced)) / rounds[True] / untraced - 1, "ratio")
        details["trace_file"] = str(write_trace(args, tracer).relative_to(ROOT))
        details["not_visible_from_outside"] = list(trace.INVISIBLE)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:45s} {value:14.6g} {unit}")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not tally.wrong and tally.mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(name):
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("self_s"):
        return "s/op"
    return "count/op"


def write_trace(args, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    t0 = tracer.spans[0][3] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "calls_by_parent": tracer.table(),
            "spans": [[op, name, parent, round(s - t0, 7), round(e - t0, 7)]
                      for op, name, parent, s, e in tracer.spans],
            "not_visible_from_outside": list(trace.INVISIBLE),
        }, fh)
    return path


if __name__ == "__main__":
    sys.exit(main())
