"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete."""

import json
import random
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from corpus import APERIODIC_CORPUS, NON_APERIODIC, corpus_dfa, words_upto
from sfree.automata import dfa_equivalent, enumerate_members
from sfree.cli import run_cli
from sfree.monoid import (
    FiniteMonoid,
    is_aperiodic,
    local_divisor,
    transition_monoid,
    unit_factorization_check,
    validate_monoid,
)
from sfree.sfexpr import (
    ALL,
    EPSILON,
    Concat,
    Difference,
    Letter,
    Union,
    eval_expr,
    n_bound,
)
from sfree.synthesis import (
    SynthesisContext,
    commuting_diagram_check,
    decide_star_free,
    element_token,
    sigma_inverse,
    synthesize,
)

Z2 = FiniteMonoid(((0, 1), (1, 0)), 0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


@pytest.fixture(scope="module")
def corpus_results():
    """Synthesize the whole corpus once; records build time for criterion 1."""
    t0 = time.monotonic()
    results = {}
    for name, pattern, letters in APERIODIC_CORPUS:
        d, alphabet = corpus_dfa(pattern, letters)
        monoid, hom, accept = transition_monoid(d)
        verdict = decide_star_free(d)
        expr = verdict.language_expression()
        evaluated = eval_expr(expr, alphabet)
        results[name] = SimpleNamespace(
            pattern=pattern,
            dfa=d,
            alphabet=alphabet,
            monoid=monoid,
            hom=hom,
            accept=accept,
            verdict=verdict,
            expr=expr,
            eval_dfa=evaluated,
        )
    elapsed = time.monotonic() - t0
    return results, elapsed


def test_criterion_1_end_to_end_round_trip(corpus_results):
    results, elapsed = corpus_results
    with criterion(1, "synthesized expressions are exactly equivalent to the inputs"):
        assert len(results) >= 10
        for name, entry in results.items():
            assert entry.verdict.star_free, name
            assert entry.monoid.size <= 10, name
            assert len(entry.alphabet) <= 3, name
            assert dfa_equivalent(entry.eval_dfa, entry.dfa), name
        assert elapsed < 120.0, f"corpus synthesis took {elapsed:.1f}s"


def test_criterion_2_negative_detection(capsys):
    with criterion(2, "analyze reports validated periodicity witnesses"):
        for name, pattern, letters in NON_APERIODIC:
            code = run_cli(
                ["analyze", "--regex", pattern, "--alphabet", letters, "--json"]
            )
            out = capsys.readouterr().out
            assert code == 1, name
            obj = json.loads(out)
            assert obj["verdict"] == "not-star-free"
            witness = obj["witness"]
            assert witness["period"] >= 2
            # validate against the multiplication table
            d, _ = corpus_dfa(pattern, letters)
            monoid, _, _ = transition_monoid(d)
            x, k, p = witness["element"], witness["index"], witness["period"]
            assert monoid.power(x, k) == monoid.power(x, k + p)
            assert monoid.power(x, k) != monoid.power(x, k + 1)


def test_criterion_3_local_divisor_suite(corpus_results):
    results, _ = corpus_results
    t0 = time.monotonic()
    with criterion(3, "local divisors: associative, unital, aperiodic, smaller"):
        for entry in results.values():
            monoid = entry.monoid
            for c in range(monoid.size):
                if c == monoid.identity:
                    continue
                ld = local_divisor(monoid, c)
                validate_monoid(ld.divisor.table, ld.divisor.identity)
                assert ld.to_base(ld.divisor.identity) == c
                assert is_aperiodic(ld.divisor) is None
                assert len(ld.carrier) < monoid.size
        assert time.monotonic() - t0 < 10.0


def test_criterion_4_block_translation_consistency(corpus_results):
    results, _ = corpus_results
    with criterion(4, "token evaluation matches direct images on random block words"):
        rng = random.Random(20140901)
        for entry in results.values():
            one = entry.monoid.identity
            cs = [a for a in entry.alphabet if entry.hom.image_of(a) != one]
            # synthesis picks the first letter with a nontrivial image; for
            # trivial images the check still applies with any letter
            c = cs[0] if cs else entry.alphabet.letters[0]
            sub_letters = [a for a in entry.alphabet.letters if a != c]
            for _ in range(100):
                word = _random_block_word(rng, sub_letters, c, 12)
                assert commuting_diagram_check(entry.hom, c, word)


def _random_block_word(rng, sub_letters, c, max_len):
    word = []
    while True:
        block_len = rng.randint(0, 3) if sub_letters else 0
        if len(word) + block_len + 1 > max_len or rng.random() < 0.2:
            return tuple(word)
        word.extend(rng.choice(sub_letters) for _ in range(block_len))
        word.append(c)


def test_criterion_5_translation_distributes_over_concatenation(corpus_results):
    results, _ = corpus_results
    with criterion(5, "translating a concatenation equals concatenating translations"):
        entry = results["ab-repeats"]
        hom, alphabet = entry.hom, entry.alphabet
        sub = alphabet.without("a")
        h_sub = hom.restrict(sub)
        ctx = SynthesisContext()

        def synth_letter(t):
            return synthesize(h_sub, t, context=ctx)

        reachable = h_sub.image
        assert len(reachable) <= 4
        tokens = [Letter(element_token(t)) for t in reachable]
        pairs = [
            (tokens[0], tokens[1]),
            (tokens[1], tokens[2]),
            (ALL, tokens[1]),
            (Union(tokens[0], tokens[2]), tokens[1]),
            (Concat(tokens[1], tokens[1]), ALL),
            (EPSILON, Difference(ALL, tokens[0])),
        ]
        assert len(pairs) >= 5
        for k1, k2 in pairs:
            combined = sigma_inverse(Concat(k1, k2), hom, "a", synth_letter)
            left = sigma_inverse(k1, hom, "a", synth_letter)
            right = sigma_inverse(k2, hom, "a", synth_letter)
            from sfree.automata import dfa_combine

            assert dfa_equivalent(
                eval_expr(combined, alphabet),
                dfa_combine(
                    "concatenation",
                    eval_expr(left, alphabet),
                    eval_expr(right, alphabet),
                ),
            )


def _transformation(d, word):
    maps = [d.transitions[s] for s in range(d.n_states)]
    t = tuple(range(d.n_states))
    for a in word:
        j = d.alphabet.index(a)
        t = tuple(maps[s][j] for s in t)
    return t


def _compose(t1, t2):
    return tuple(t2[s] for s in t1)


def _power(t, k, size):
    result = tuple(range(size))
    base = t
    while k:
        if k & 1:
            result = _compose(result, base)
        base = _compose(base, base)
        k >>= 1
    return result


def test_criterion_6_pumping_threshold(corpus_results, tmp_path, capsys):
    results, _ = corpus_results
    t0 = time.monotonic()
    with criterion(6, "pumping n(E) versus n(E)+1 never changes membership"):
        for name, entry in results.items():
            if len(entry.alphabet) != 2:
                continue
            d = entry.eval_dfa
            n = n_bound(entry.expr)
            words = words_upto(entry.alphabet.letters, 3)
            for u in words:
                tu = _transformation(d, u)
                tn = _power(tu, n, d.n_states)
                tn1 = _compose(tn, tu)
                for p in words:
                    sp = d.run(p)
                    low_state, high_state = tn[sp], tn1[sp]
                    for q in words:
                        low = _transformation_walk(d, low_state, q) in d.accepting
                        high = _transformation_walk(d, high_state, q) in d.accepting
                        assert low == high, (name, p, u, q)
        # spot values as printed by the bound subcommand
        for text, expected in (("ALL", 0), ("a", 2), ("a . b", 5)):
            path = tmp_path / "spot.txt"
            path.write_text(text, encoding="utf-8")
            assert run_cli(["bound", "--expr", str(path)]) == 0
            assert capsys.readouterr().out.strip() == str(expected)
        assert time.monotonic() - t0 < 60.0


def _transformation_walk(d, state, word):
    for a in word:
        state = d.transitions[state][d.alphabet.index(a)]
    return state


def test_criterion_7_oracle_agreement(corpus_results):
    results, _ = corpus_results
    with criterion(7, "input and synthesized expression agree on all words <= 8"):
        for name, entry in results.items():
            assert enumerate_members(entry.dfa, 8) == enumerate_members(
                entry.eval_dfa, 8
            ), name


def test_criterion_8_unit_factorization(corpus_results):
    results, _ = corpus_results
    with criterion(8, "x*y = 1 forces x = y = 1 in every aperiodic corpus monoid"):
        for entry in results.values():
            assert unit_factorization_check(entry.monoid)
        assert not unit_factorization_check(Z2)
