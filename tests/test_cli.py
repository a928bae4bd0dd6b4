"""Exit codes, output determinism, and pipeline self-consistency of the
command line tool."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import jlogic
from jlogic import cli
from jlogic.cli import main
from jlogic.proof_system import MAX_DEPTH, parse_proof
from jlogic.saturation import CANONICAL_CAP, bounded_canonical_model
from jlogic.syntax import parse_formula, print_formula

PROOF = """hypotheses:
  1. x:p
proof:
  1. x:p ; hyp 1
  2. x:p -> p ; ax J-T
  3. p ; mp 2,1
"""

BAD_PROOF = PROOF.replace("mp 2,1", "mp 1,2")


def run(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as e:
        rc = e.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def universe(name):
    return str(resources.files("jlogic") / "universes" / name)


def run_subprocess(hash_seed, *argv):
    """Run this jlogic's CLI in a fresh interpreter under a fixed hash seed."""
    src = str(Path(jlogic.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-m", "jlogic.cli", *argv],
                          env=env, capture_output=True)


def test_parse_formula(capsys):
    rc, out, _ = run(capsys, "parse", "p->q   /\\ r")
    assert rc == 0
    assert out == "p -> q /\\ r\n"


def test_parse_term(capsys):
    rc, out, _ = run(capsys, "parse", "--term", "!x.y")
    assert rc == 0
    assert out == "!x.y\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_parse_term_full_parens(capsys, fmt):
    rc, out, _ = run(capsys, "parse", "--term", "--full-parens",
                     "--format", fmt, "x.y + !z")
    assert rc == 0
    printed = json.loads(out)["canonical"] if fmt == "json" else out
    assert printed.rstrip("\n") == "((x.y) + (!z))"


def test_parse_json(capsys):
    rc, out, _ = run(capsys, "parse", "x:p", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data == {"kind": "formula", "canonical": "x:p", "size": 2}


def test_parse_error_exit_2(capsys):
    rc, _, err = run(capsys, "parse", "p ->")
    assert rc == 2
    assert "error" in err


@pytest.mark.parametrize("argv, printed", [
    (("parse", "(" * 600 + "p" + ")" * 600), "p\n"),
    (("parse", "--term", "(" * 600 + "x" + ")" * 600), "x\n"),
], ids=["argv0", "argv1"])
def test_deep_nesting_exit_0(capsys, argv, printed):
    assert run(capsys, *argv) == (0, printed, "")


def test_deep_line_after_its_group_exit_0(capsys, tmp_path):
    # the group in line 2 comes back as the same node in line 3
    chain = " -> ".join(["p"] * 600)
    pf = tmp_path / "pf.txt"
    pf.write_text(f"hypotheses:\n  1. ({chain})\n  2. {chain} -> ({chain})\n"
                  f"proof:\n  1. {chain} -> ({chain}) ; hyp 2\n")
    assert run(capsys, "check", str(pf)) == (0, "accepted\n", "")


def test_deep_chain_in_a_group_after_its_consequents(capsys, tmp_path):
    # an earlier line keys the consequents of the chain; in a group in more
    # and more parentheses, the chain is the earlier node until the keys
    # of the outer groups take the line's key budget, and parses as alone
    # on both sides; a chain of 1,000 in a group is checked like any line
    chain = " -> ".join(f"p{i}" for i in range(20))
    shared = []
    for k in range(30):
        line = "(" * k + f"(r -> {chain})" + ")" * k
        pi = parse_proof(f"proof:\n  1. q -> {chain} ; hyp 1\n  2. {line} ; hyp 1\n")
        earlier, got = (step.conclusion for step in pi.steps)
        alone = parse_formula(line)
        assert got == alone and print_formula(got, True) == print_formula(alone, True)
        shared.append(got.right is earlier.right)
    assert shared[0] and not shared[-1]
    chain = " -> ".join(["p"] * 1000)
    for first in ("q", "q -> " + " -> ".join(["p"] * 100)):
        pf = tmp_path / "pf.txt"
        pf.write_text(f"hypotheses:\n  1. {first}\n  2. ({chain})\n"
                      f"proof:\n  1. {chain} ; hyp 2\n")
        assert run(capsys, "check", str(pf)) == (0, "accepted\n", "")


def test_usage_error_exit_2(capsys):
    rc, _, _ = run(capsys, "no-such-command")
    assert rc == 2


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    assert run(capsys, "parse", "p")[:2] == (0, "p\n")
    assert run(capsys, "parse", "--term", "x")[:2] == (0, "x\n")
    assert len(built) <= 1


def test_command_looked_up_at_call_time(capsys, monkeypatch, tmp_path):
    # a cmd_* binding replaced after the parser exists is the one that runs
    pf = tmp_path / "pf.txt"
    pf.write_text(PROOF)
    assert run(capsys, "check", str(pf)) == (0, "accepted\n", "")
    seen = []

    def replaced(args, stdout):
        seen.append(args.proof)
        stdout.write("replaced\n")
        return 0

    monkeypatch.setattr(cli, "cmd_check", replaced)
    assert run(capsys, "check", str(pf)) == (0, "replaced\n", "")
    assert seen == [str(pf)]


def test_check_accepts(capsys, tmp_path):
    pf = tmp_path / "pf.txt"
    pf.write_text(PROOF)
    rc, out, _ = run(capsys, "check", str(pf))
    assert rc == 0
    assert out == "accepted\n"


def test_check_rejects(capsys, tmp_path):
    pf = tmp_path / "pf.txt"
    pf.write_text(BAD_PROOF)
    rc, out, _ = run(capsys, "check", str(pf))
    assert rc == 1
    assert "rejected" in out and "BadMP" in out


# "²" is a digit to str.isdigit but not to int(); "٣" is a decimal digit
@pytest.mark.parametrize("rule,code", [
    ("hyp ²", 2), ("mp 3,²", 2), ("hyp ١", 0),
])
def test_check_rule_numbers(capsys, tmp_path, rule, code):
    pf = tmp_path / "pf.txt"
    pf.write_text(PROOF.replace("hyp 1", rule), encoding="utf-8")
    rc, out, err = run(capsys, "check", str(pf))
    assert rc == code
    if code == 2:
        assert err == f"error: line 4: bad rule {rule!r}\n"
    else:
        assert out == "accepted\n"


def test_check_missing_file(capsys):
    rc, _, err = run(capsys, "check", "/nonexistent/pf.txt")
    assert rc == 2


def test_deduce_pipeline(capsys, tmp_path):
    pf = tmp_path / "pf.txt"
    pf.write_text(PROOF)
    out_file = tmp_path / "ded.txt"
    rc, out, _ = run(capsys, "deduce", str(pf), "x:p", str(out_file))
    assert rc == 0
    assert "deduced x:p -> p" in out
    rc, out, _ = run(capsys, "check", str(out_file))
    assert rc == 0 and out == "accepted\n"


# each crashed or wrote a proof that check rejects before deduce checked
# its input: an mp step past the end (IndexError), a hyp step past the
# hypotheses (KeyError), and a formula that is no instance of its schema
@pytest.mark.parametrize("text,report", [
    ("proof:\n  1. q ; mp 2,3\n",
     "rejected at step 1: BadIndex (mp references steps 2,3)"),
    ("hypotheses:\n  1. p\nproof:\n  1. p ; hyp 5\n",
     "rejected at step 1: BadIndex (no hypothesis 5)"),
    ("proof:\n  1. p -> p ; ax IPC-1\n",
     "rejected at step 1: BadAxiom (p -> p is not a IPC-1 instance)"),
])
def test_deduce_rejects_unchecked_proof(capsys, tmp_path, text, report):
    pf = tmp_path / "pf.txt"
    pf.write_text(text)
    out_file = tmp_path / "ded.txt"
    expected = (1, "", f"error: input proof does not check: {report}\n")
    assert run(capsys, "deduce", str(pf), "q") == expected
    assert run(capsys, "deduce", str(pf), "q", str(out_file)) == expected
    assert not out_file.exists()


def test_internalize_pipeline(capsys, tmp_path):
    pf = tmp_path / "pf.txt"
    pf.write_text(PROOF)
    out_file = tmp_path / "int.txt"
    rc, out, _ = run(capsys, "internalize", str(pf), "v1", str(out_file),
                     "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["term"] == "c13.v1"
    assert data["conclusion"] == "c13.v1:p"
    rc, out, _ = run(capsys, "check", str(out_file))
    assert rc == 0 and out == "accepted\n"


def test_countermodel_pipeline(capsys, tmp_path):
    rc, out, _ = run(capsys, "countermodel", "p \\/ (p -> _|_)",
                     "--max-worlds", "2")
    assert rc == 0
    assert out.startswith("# false at: w0\n")
    model_file = tmp_path / "m.txt"
    model_file.write_text(out)
    rc, out2, _ = run(capsys, "model-validate", str(model_file))
    assert rc == 0 and out2 == "valid\n"
    rc, out3, _ = run(capsys, "model-eval", str(model_file), "w0",
                      "p \\/ (p -> _|_)")
    assert rc == 1 and out3 == "false\n"
    rc, out4, _ = run(capsys, "model-eval", str(model_file), "w1", "p")
    assert rc == 0 and out4 == "true\n"


def test_model_eval_falsum_is_exit_1(capsys, tmp_path):
    rc, out, _ = run(capsys, "countermodel", "p")
    model_file = tmp_path / "m.txt"
    model_file.write_text(out)
    rc, out, _ = run(capsys, "model-eval", str(model_file), "w0", "_|_")
    assert rc == 1
    assert out == "false\n"


def test_duplicate_world_file_exit_2(capsys, tmp_path):
    model_file = tmp_path / "m.txt"
    model_file.write_text("worlds: w0 w0\n")
    rc, out, err = run(capsys, "model-validate", str(model_file))
    assert (rc, out, err) == (2, "", "error: line 1: duplicate world 'w0'\n")


def test_bad_world_file_exit_2(capsys, tmp_path):
    model_file = tmp_path / "m.txt"
    model_file.write_text("worlds: w0 a:b\natoms:\n  a:b: p\n")
    for argv in (("model-validate", model_file), ("model-eval", model_file, "w0", "p")):
        rc, out, err = run(capsys, *map(str, argv))
        assert (rc, out, err) == (2, "", "error: line 1: bad world 'a:b'\n")


def test_bad_atom_file_exit_2(capsys, tmp_path):
    model_file = tmp_path / "m.txt"
    model_file.write_text("worlds: w0 w1\norder:\n  w0 <= w1\natoms:\n  w0: x 1 p,q\n")
    for argv in (("model-validate", model_file), ("model-eval", model_file, "w0", "p")):
        rc, out, err = run(capsys, *map(str, argv))
        assert (rc, out, err) == (2, "", "error: line 5: bad atom 'x'\n")


def test_internalize_deep_chain_prints(capsys, tmp_path):
    # the mp chain is accepted, and its internalizing term is one App per
    # mp step deep, which the printer takes as it takes any other
    steps = ["  1. p ; hyp 1"]
    for k in range(1, 1001):
        steps += [f"  {2 * k}. p -> p ; hyp 2",
                  f"  {2 * k + 1}. p ; mp {2 * k},{2 * k - 1}"]
    pf = tmp_path / "pf.txt"
    pf.write_text("hypotheses:\n  1. p\n  2. p -> p\nproof:\n"
                  + "\n".join(steps) + "\n")
    assert run(capsys, "check", str(pf)) == (0, "accepted\n", "")
    out_file = tmp_path / "int.txt"
    rc, out, err = run(capsys, "internalize", str(pf), "x,y", str(out_file))
    term = "y.(" * 999 + "y.x" + ")" * 999
    assert (rc, out, err) == (0, f"internalized by {term}\n", "")
    last = out_file.read_text().splitlines()[-1]
    assert last.split(". ", 1)[1] == f"{term}:p ; mp 4000,3997"


def test_internalized_deep_chain_checks(capsys, tmp_path):
    # internalize of a 1,000-step mp chain writes a proof whose last line
    # nests its term 1,000 deep, and check accepts that proof
    steps = ["  1. p ; hyp 1"]
    for k in range(1, 1001):
        steps += [f"  {2 * k}. p -> p ; hyp 2",
                  f"  {2 * k + 1}. p ; mp {2 * k},{2 * k - 1}"]
    pf = tmp_path / "pf.txt"
    pf.write_text("hypotheses:\n  1. p\n  2. p -> p\nproof:\n"
                  + "\n".join(steps) + "\n")
    out_file = tmp_path / "int.txt"
    assert run(capsys, "internalize", str(pf), "x,y", str(out_file))[0] == 0
    assert run(capsys, "check", str(out_file)) == (0, "accepted\n", "")


def test_countermodel_of_many_evidenced_conjuncts(capsys):
    # one seed-pool entry per conjunct: the seed assignments of all 1,100
    # are walked without a frame per entry
    goal = "(" + " /\\ ".join(f"x:p{i}" for i in range(1100)) + ") \\/ q"
    rc, out, err = run(capsys, "countermodel", goal, "--max-worlds", "1")
    assert (rc, err) == (0, "")
    assert out.startswith("# false at: w0\nworlds: w0\nterms: x\n")


def test_model_eval_unknown_world_exit_2(capsys, tmp_path):
    model_file = tmp_path / "m.txt"
    model_file.write_text("worlds: w0\n")
    rc, out, err = run(capsys, "model-eval", str(model_file), "nowhere", "p")
    assert (rc, out, err) == (2, "", "error: unknown world 'nowhere'\n")


def test_model_eval_term_outside_universe_exit_2(capsys, tmp_path):
    # a formula the model cannot judge is no false formula
    model_file = tmp_path / "m.txt"
    model_file.write_text("worlds: w0\natoms:\n  w0: p\n")
    rc, out, err = run(capsys, "model-eval", str(model_file), "w0", "x:p")
    assert (rc, out, err) == (
        2, "", "error: term x is outside the term universe\n")


def test_internalize_witness_count_exit_2(capsys, tmp_path):
    pf = tmp_path / "pf.txt"
    pf.write_text("hypotheses:\n  1. p\n  2. p -> q\n"
                  "proof:\n  1. p ; hyp 1\n  2. p -> q ; hyp 2\n"
                  "  3. q ; mp 2,1\n")
    rc, out, err = run(capsys, "internalize", str(pf), "x")
    assert (rc, out, err) == (2, "", "error: 2 hypotheses but 1 witnesses\n")


def test_countermodel_none_found(capsys):
    rc, out, _ = run(capsys, "countermodel", "x:p -> p")
    assert rc == 1
    assert out == "none found within bounds\n"


KB_CS = "kb := x:p -> p\n"
KB_PROOF = "proof:\n  1. kb:(x:p -> p) ; cs kb\n"


def test_check_with_cs_file(capsys, tmp_path):
    pf, cs = tmp_path / "pf.txt", tmp_path / "kb.cs"
    pf.write_text(KB_PROOF)
    cs.write_text(KB_CS)
    assert run(capsys, "check", str(pf), str(cs)) == (0, "accepted\n", "")
    assert run(capsys, "check", str(pf)) == (
        1, "rejected at step 1: NotInCS (conclusion is not of the form kb:A)\n", "")


def test_countermodel_with_cs_file(capsys, tmp_path):
    cs = tmp_path / "kb.cs"
    cs.write_text(KB_CS)
    argv = ("countermodel", "kb:(x:p -> p)", "--max-worlds", "1")
    assert run(capsys, *argv, "--cs", str(cs)) == (1, "none found within bounds\n", "")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out.startswith("# false at: w0\nworlds: w0\n")


def test_saturate_prints_unknown(capsys, tmp_path):
    u = tmp_path / "u.txt"
    u.write_text("universe: _|_ \\/ q -> p -> q\ngoal: p -> q\n")
    assert run(capsys, "saturate", str(u)) == (0, (
        "0. skip _|_  [derivable]\n"
        "1. skip _|_ \\/ q  [unknown]\n"
        "2. add _|_ \\/ q -> p -> q  [refuted]\n"
        "3. add p  [refuted]\n"
        "4. skip p -> q  [derivable]\n"
        "5. skip q  [derivable]\n"
        "members: _|_ \\/ q -> p -> q, p\n"
        "verdict: prime\n"), "")


@pytest.mark.parametrize("argv", [
    ("countermodel", "p", "--max-worlds", "0"),
    ("countermodel", "p", "--max-worlds", "-1"),
    ("countermodel", "p", "--max-worlds", "6"),
    ("countermodel", "p", "--budget", "-1"),
    ("saturate", "UNIVERSE:sat-evidence.txt", "--depth", "-1"),
    ("canonical", "UNIVERSE:canon-atom.txt", "--depth", "-1"),
    ("canonical", "UNIVERSE:canon-atom.txt", "--cap", "-1"),
    ("saturate", "UNIVERSE:sat-peirce.txt", "--depth", str(MAX_DEPTH + 1)),
    ("canonical", "UNIVERSE:canon-atom.txt", "--depth", str(MAX_DEPTH + 1)),
])
def test_out_of_range_bounds_exit_2(capsys, argv):
    argv = [
        universe(a.split(":", 1)[1]) if a.startswith("UNIVERSE:") else a
        for a in argv
    ]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "must be" in err


def test_saturate_prime_exit_0(capsys):
    rc, out, _ = run(capsys, "saturate", universe("sat-evidence.txt"))
    assert rc == 0
    assert "members: p, x:p" in out
    assert "verdict: prime" in out


def test_saturate_goal_override(capsys):
    rc, out, _ = run(capsys, "saturate", universe("canon-atom.txt"),
                     "--goal", "_|_")
    assert rc == 0
    assert "members: p" in out


def test_saturate_no_goal_is_usage_error(capsys):
    rc, _, err = run(capsys, "saturate", universe("canon-atom.txt"))
    assert rc == 2
    assert "goal" in err
    assert "line 0" not in err


def test_canonical_writes_valid_model(capsys, tmp_path):
    out_file = tmp_path / "canon.txt"
    rc, out, _ = run(capsys, "canonical", universe("canon-disjunction.txt"),
                     "--out", str(out_file))
    assert rc == 0
    assert "Δ0 = {}" in out
    assert "excluded unknown sets: 0" in out
    rc, out, _ = run(capsys, "model-validate", str(out_file))
    assert rc == 0 and out == "valid\n"
    rc, out, _ = run(capsys, "model-eval", str(out_file), "Δ3", "p /\\ q")
    assert rc == 0 and out == "true\n"


def test_canonical_cap_exit_1(capsys):
    rc, _, err = run(capsys, "canonical", universe("sat-application.txt"),
                     "--cap", "3")
    assert rc == 1
    assert "cap" in err


def test_canonical_default_cap_is_the_librarys(capsys, tmp_path):
    # a 20-formula J-4 chain with three prime sets: over a cap of 19, and
    # within the default, which is the library's
    term, f = "x", "x:p"
    for _ in range(18):
        term = "!" + term
        f = f"{term}:{f}"
    path = tmp_path / "chain.txt"
    path.write_text(f"universe: {f}\n")
    assert run(capsys, "canonical", str(path), "--cap", "19")[0] == 1
    rc, out, _ = run(capsys, "canonical", str(path))
    assert rc == 0 and "\nworlds: Δ0 Δ1 Δ2\n" in out
    assert cli._parser().parse_args(["canonical", "u"]).cap \
        == inspect.signature(bounded_canonical_model).parameters["cap"].default \
        == CANONICAL_CAP == 24


@pytest.mark.parametrize(
    "argv",
    [
        ("countermodel", "((p -> q) -> p) -> p"),
        ("canonical", "UNIVERSE:canon-implication.txt"),
        ("saturate", "UNIVERSE:sat-introspection.txt"),
        ("parse", "x:(p -> q) -> (y:p -> x.y:q)", "--format", "json"),
        # every other shipped universe, through the command it is made for
        ("canonical", "UNIVERSE:canon-atom.txt"),
        ("canonical", "UNIVERSE:canon-disjunction.txt"),
        ("canonical", "UNIVERSE:canon-evidence.txt"),
        ("saturate", "UNIVERSE:sat-application.txt"),
        ("saturate", "UNIVERSE:sat-disjunction.txt"),
        ("saturate", "UNIVERSE:sat-evidence.txt"),
        ("saturate", "UNIVERSE:sat-peirce.txt"),
    ],
)
def test_byte_identical_runs(argv):
    # two hash seeds, so no output may depend on set or dict order
    argv = [
        universe(a.split(":", 1)[1]) if a.startswith("UNIVERSE:") else a
        for a in argv
    ]
    first = run_subprocess(0, *argv)
    second = run_subprocess(1, *argv)
    assert first.returncode in (0, 1), first.stderr
    assert first.stdout
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


# SHA-256 of stdout, pinned so that a change to the oracle or the search
# cannot move these bytes unnoticed
PINNED = {
    "saturate sat-application.txt text":
        "746148d03988765c9082f458919de4739e4441aec44c25eee1c31d0099549924",
    "saturate sat-application.txt json":
        "f73f0d2e4432835e06b0eb406cbea3eaa7b063e4a05b16af38b997a6e8504d88",
    "saturate sat-disjunction.txt text":
        "278f2bb5b8e3bdf8986d5fa2ef085a095a3f956edc147010383d6baed47fca18",
    "saturate sat-disjunction.txt json":
        "e37d19e80fc2ea92c1b6296d35a54eeb87c55f8c56a6d9537b1a224cab997ff7",
    "saturate sat-evidence.txt text":
        "a6e5cfc4912f0d1b672418580bff8ee1d4d7419bbd0a761f1e4b64af0f92615a",
    "saturate sat-evidence.txt json":
        "8d24ee380025638856702fdd4e0bd6571e9da31bc296adaa198dae6bdb441c5b",
    "saturate sat-introspection.txt text":
        "3d11d5c5e30b71f8348d92cb75883dacff8388874ee44888566446f3874a79fa",
    "saturate sat-introspection.txt json":
        "fccd96f6ee8e982d291091d8e5eedc0aa6626941a9594cd176aeb542d0fcd080",
    "saturate sat-peirce.txt text":
        "0cccaf65e2eaabdc3f5ce4f9b73878c43f456841aee7face7f6a3959be951bda",
    "saturate sat-peirce.txt json":
        "0ee3cb652a52153bd830f35d0ff3ccd9eb51e997209665aee8bb460c90e0f0c9",
    "canonical canon-atom.txt text":
        "cbfc14d10f914ac6201611783940c18ce427c721ea84f06afe198f80d91b1c01",
    "canonical canon-atom.txt json":
        "b9667515d853208a354d5965d08774a8ec614940913bc902544b68af63207c1c",
    "canonical canon-disjunction.txt text":
        "79cfbcae3e4ee70cc5914de52c91e7a72565f1193fa79216f759877cfbf4ce31",
    "canonical canon-disjunction.txt json":
        "be438e0ccc6212c67c9f68000eb1feb9d31eb5749e699b36540efece7ecf327a",
    "canonical canon-evidence.txt text":
        "b2d26a984d9b71324970cb725dad358bffcce571d7f96b672a0373ca72c8d3ed",
    "canonical canon-evidence.txt json":
        "61e14a0557b591195b049ff4a7cc14f10f8c8077138c5acf5e7f5124fcda3d82",
    "canonical canon-implication.txt text":
        "89c1742ce9faa370e07429daffea1d1d7ed78c71f96a980e4dacdaf7b74d2d24",
    "canonical canon-implication.txt json":
        "c7f479d97087a783777453cba65a3504ea1e3ce2642d87f8a9aa226d1c77feaf",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_saturate_canonical_stdout_pinned(capsys, case):
    command, name, fmt = case.split()
    rc, out, err = run(capsys, command, universe(name), "--format", fmt)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[case]


def test_deep_countermodel_goal():
    # a 900-deep theorem p -> p -> ... -> p: parsed, searched, no countermodel
    result = run_subprocess(0, "countermodel", " -> ".join(["p"] * 900))
    assert result.returncode == 1
    assert b"none found within bounds" in result.stdout
    assert b"Traceback" not in result.stderr
