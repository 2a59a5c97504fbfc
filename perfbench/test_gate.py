"""Tests of the benchmark's correctness gate and its reference languages.

    python3 -m pytest perfbench/test_gate.py

They sit outside the package's test suite because they exercise the
benchmark, not sfree.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def accepts(dfa, alphabet, word):
    rows, accepting = dfa
    s = 0
    for a in word:
        s = rows[s][alphabet.index(a)]
    return s in accepting


def words(alphabet, max_len):
    for n in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=n):
            yield "".join(w)


def dyck_member(u, depth, opener, closer, neutral):
    level = 0
    for a in u:
        if a == opener:
            level += 1
        elif a == closer:
            level -= 1
        elif a not in neutral:
            return False
        if not 0 <= level <= depth:
            return False
    return level == 0


def in_blocks(u):
    return u == "" or any(u.startswith(b) and in_blocks(u[2:]) for b in ("ab", "ba", "ac"))


CASES = [
    (workloads.word_star("aba", "abc"), lambda u: len(u) % 3 == 0 and u == "aba" * (len(u) // 3)),
    (workloads.factor("aba", "ab"), lambda u: "aba" in u),
    (workloads.suffix("abb", "abc"), lambda u: u.endswith("abb")),
    (workloads.prefix("ab", "abc"), lambda u: u.startswith("ab")),
    (workloads.word("aba", "ab"), lambda u: u == "aba"),
    (workloads.dyck(2, "b", "a", "c", "abc"), lambda u: dyck_member(u, 2, "b", "a", "c")),
    (workloads.dyck(2, "a", "c", "", "abc"), lambda u: dyck_member(u, 2, "a", "c", "")),
    (workloads.length_mod(3, "ab"), lambda u: len(u) % 3 == 0),
    (workloads.count_mod(2, "ac", "abc"), lambda u: (u.count("a") + u.count("c")) % 2 == 0),
    (workloads.block_star(("ab", "ba", "ac"), "abc"), in_blocks),
]


@pytest.mark.parametrize("task, member", CASES, ids=[t.regex for t, _ in CASES])
def test_reference_languages_match_their_definitions(task, member):
    dfa = task.reference()
    for u in words(task.alphabet, 7):
        assert accepts(dfa, task.alphabet, u) == member(u), u


def test_text_and_tree_evaluation_agree_with_the_reference():
    ev = ref.Evaluator("ab")
    assert ev.text("ALL . a . b . a . ALL") == ref.contains_factor("aba", "ab")
    assert ev.text("(ALL . a) \\ (ALL . b . a) | ALL . b . a") == ref.ends_with("a", "ab")
    assert ev.text("(ALL . a) \\ ((ALL . b . a) | ALL . b . a)") != ref.ends_with("a", "ab")
    assert ev.text("'b' | EPS | EMPTY") == ref.canonical(((1, 2), (1, 1), (1, 1)), {0, 2})


def test_tables_have_the_relations_they_claim():
    table = ref.cyclic_chain_product(3, 2)
    for x in range(len(table)):
        for y in range(len(table)):
            for z in range(len(table)):
                assert table[table[x][y]][z] == table[x][table[y][z]]
    # (g, x): period 3 from index 2
    assert ref.power(table, 0, 4, 2) == ref.power(table, 0, 4, 5) != ref.power(table, 0, 4, 3)


def analyze_report(verdict, witness=None):
    return json.dumps({"verdict": verdict, "witness": witness})


def test_gate_rejects_wrong_verdicts_and_witnesses():
    star_free = workloads.factor("ab", "ab")
    assert run.check_analyze(star_free, (0, analyze_report("star-free"))) is None
    assert run.check_analyze(star_free, (1, analyze_report("not-star-free", {
        "element": 1, "index": 1, "period": 2})))[0] == "wrong"

    periodic = workloads.length_mod(4, "ab")
    good = {"element": 1, "index": 1, "period": 4}
    assert run.check_analyze(periodic, (1, analyze_report("not-star-free", good))) is None
    for bad in ({**good, "period": 1}, {**good, "period": 3}):
        assert run.check_analyze(periodic, (1, analyze_report("not-star-free", bad)))[0] == "wrong"

    # Z_3 × C_1: element 2 is (g, 1), of period 3 from index 1.
    table = workloads.Task("table", "", False, lambda: None,
                           table=ref.cyclic_chain_product(3, 1), path="t", period_divides=3)
    good = {"element": 2, "index": 1, "period": 3}
    assert run.check_analyze(table, (1, analyze_report("not-star-free", good))) is None
    for bad in ({**good, "element": 0}, {**good, "element": 6}):
        assert run.check_analyze(table, (1, analyze_report("not-star-free", bad)))[0] == "wrong"


@pytest.mark.parametrize("text", ["ALL . b", "a )", "(a", "ALL . ", "'a", "ab", "c"])
def test_gate_rejects_wrong_or_malformed_expression_text(text):
    task = workloads.factor("a", "ab")
    result = {"rc": 0, "expression": text, "verify_rc": 0, "verify_out": "equivalent: yes\n"}
    assert run.check_roundtrip(task, result)[0] == "wrong"
    assert run.check_roundtrip(task, {**result, "expression": "ALL . a . ALL"}) is None


def test_gate_rejects_a_wrong_expression_object():
    sf = run.import_sfree()
    task = workloads.suffix("ab", "ab")
    alphabet = sf.Alphabet.of("ab")
    d = sf.regex_to_dfa(sf.parse_regex(task.regex, alphabet), alphabet)
    verdict = sf.decide_star_free(d)
    assert run.check_hard(sf, task, verdict) is None
    wrong = sf.StarFreenessVerdict(True, verdict.monoid_size, None,
                                   (sf.parse_expr("ALL . a"),), verdict.accept_elements)
    assert run.check_hard(sf, task, wrong)[0] == "wrong"


def test_run_exits_nonzero_when_fed_a_wrong_expression(monkeypatch, capsys):
    real_cli = run.cli

    def tampered(sf, argv):
        # The expression is replaced and verify is made to agree with it, so
        # only the gate's own evaluation can notice.
        if argv[0] == "verify":
            return 0, "equivalent: yes\n"
        rc, out = real_cli(sf, argv)
        if argv[0] == "synthesize":
            out = json.dumps({**json.loads(out), "expression": "ALL . b"})
        return rc, out

    monkeypatch.setattr(run, "cli", tampered)
    monkeypatch.setattr(run.workloads, "synth_roundtrip",
                        lambda seed: [workloads.suffix("a", "ab")])
    code = run.main(["--workload", "synth-roundtrip", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_run_passes_on_the_real_program(monkeypatch, capsys):
    monkeypatch.setattr(run.workloads, "synth_roundtrip",
                        lambda seed: [workloads.suffix("a", "ab")])
    code = run.main(["--workload", "synth-roundtrip", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True and result["failed"] == 0
