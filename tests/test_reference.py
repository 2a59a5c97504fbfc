"""Synthesized expressions checked against a toolkit that shares no code with
the library: ``perfbench/reference.py`` builds each expected language from
its textbook definition and evaluates expression text with its own DFAs."""

import pytest

from corpus import corpus_dfa, reference as ref
from sfree.sfexpr import render_expr
from sfree.synthesis import decide_star_free

# pattern, reference builder, its word; each synthesizes in milliseconds
# ((abc)* is left out: its 7.4-million-character text takes seconds)
CASES = [
    ("(ab)*", ref.word_star, "ab"),
    ("(a|b)*ab(a|b)*", ref.contains_factor, "ab"),
    ("(a|b)*aba(a|b)*", ref.contains_factor, "aba"),
    ("(a|b)*ab", ref.ends_with, "ab"),
    ("ba(a|b)*", ref.starts_with, "ba"),
]


@pytest.mark.parametrize("pattern, build, word", CASES, ids=[c[0] for c in CASES])
def test_rendered_expression_denotes_the_reference_language(pattern, build, word):
    d, _ = corpus_dfa(pattern, "ab")
    verdict = decide_star_free(d)
    assert verdict.star_free
    text = render_expr(verdict.language_expression())
    assert ref.Evaluator("ab").text(text) == build(word, "ab")
