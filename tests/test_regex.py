import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from corpus import APERIODIC_CORPUS, NON_APERIODIC, count_crawls, naive_match, words_upto
from sfree import regex as rx
from sfree.automata import Alphabet, Dfa, dfa_equivalent, dfa_minimize, universal_dfa
from sfree.errors import MAX_NESTING, MonoidSizeError, ParseError
from sfree.monoid import transition_aperiodicity
from sfree.regex import _positions, parse_regex, regex_to_dfa

AB = Alphabet.of("ab")
A1 = Alphabet.of("a")


class TestParse:
    def test_ab_star(self):
        got = parse_regex("(ab)*", AB)
        assert got == rx.Star(rx.Concat(rx.Letter("a"), rx.Letter("b")))

    def test_epsilon_token(self):
        assert parse_regex("_", A1) == rx.Epsilon()

    def test_empty_token(self):
        assert parse_regex("#", A1) == rx.Empty()

    def test_trailing_union_is_error(self):
        with pytest.raises(ParseError) as err:
            parse_regex("a|", A1)
        assert err.value.position == 2

    def test_letter_outside_alphabet(self):
        with pytest.raises(ParseError, match="not in alphabet"):
            parse_regex("ab", A1)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_regex("(a", A1)
        with pytest.raises(ParseError):
            parse_regex("a)", A1)

    def test_nesting_limit(self):
        deepest = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
        assert parse_regex(deepest, A1) == rx.Letter("a")
        with pytest.raises(ParseError, match="nest deeper") as err:
            parse_regex("(" + deepest + ")", A1)
        assert err.value.position == MAX_NESTING

    def test_precedence(self):
        # star > concat > union
        got = parse_regex("ab*|a", AB)
        assert got == rx.Union(
            rx.Concat(rx.Letter("a"), rx.Star(rx.Letter("b"))), rx.Letter("a")
        )


class TestCompile:
    def test_a_star_over_a(self):
        d = regex_to_dfa(parse_regex("a*", A1), A1)
        assert d == Dfa(A1, ((0,),), 0, frozenset({0}))

    def test_empty_language(self):
        d = regex_to_dfa(rx.Empty(), A1)
        assert d.n_states == 1 and not d.accepting

    def test_ab_star_minimal_and_matches_oracle(self):
        ast = parse_regex("(ab)*", AB)
        d = regex_to_dfa(ast, AB)
        assert d.n_states == 3
        assert dfa_minimize(d) is d  # already minimal: returned unchanged
        for w in words_upto("ab", 6):
            assert d.accepts(w) == naive_match(ast, w)

    def test_long_word_compiles_in_bounded_time(self):
        # the minimal DFA of one word is a path, on which refinement that
        # splits one level per round (Moore's) took about 21 s here
        ast = parse_regex("(ab)" * 2000, AB)
        start = time.perf_counter()
        d = regex_to_dfa(ast, AB)
        assert time.perf_counter() - start < 2
        assert d.n_states == 4002
        assert d.accepts("ab" * 2000)
        assert not d.accepts("ab" * 1999) and not d.accepts("ab" * 2000 + "a")

    def test_universal(self):
        d = regex_to_dfa(parse_regex("(a|b)*", AB), AB)
        assert dfa_equivalent(d, universal_dfa(AB))

    def test_deep_star_chain_compiles(self):
        d = regex_to_dfa(parse_regex("a" + "*" * 3000, A1), A1)
        assert d == Dfa(A1, ((0,),), 0, frozenset({0}))

    def test_deep_concatenation_and_union_compile(self):
        # left-deep chains 3000 nodes deep, far past the recursion limit
        letter_a = regex_to_dfa(parse_regex("a", AB), AB)
        assert regex_to_dfa(parse_regex("a" + "_" * 3000, AB), AB) == letter_a
        assert regex_to_dfa(parse_regex("|".join("a" * 3000), AB), AB) == letter_a

    @pytest.mark.parametrize("pattern", ["#", "_", "(ab)*", "(a|b)*ab", "a*b|(ba)*"])
    def test_one_subset_crawl_then_the_quotient(self, pattern, monkeypatch):
        # the subset crawl reaches every state, so only the quotient's
        # renumbering crawls again
        calls = count_crawls(monkeypatch)
        d = regex_to_dfa(parse_regex(pattern, AB), AB)
        assert len(calls) == 2
        assert dfa_minimize(d) is d


def positions(pattern, letters):
    alphabet = Alphabet.of(letters)
    return _positions(parse_regex(pattern, alphabet), alphabet)


class TestPositions:
    def test_letter_classes_are_one_position_each(self):
        masks, follow, first, last, nullable = positions("(a|b|c)*(d|e)", "abcde")
        assert masks == [0b01, 0b01, 0b01, 0b10, 0b10]
        assert follow == [0b11, 0]
        assert (first, last, nullable) == (0b11, 0b10, False)

    def test_classes_fold_whatever_their_nesting(self):
        assert positions("a|(b|a)", "ab")[0] == [1, 1]
        assert positions("((a|b)|(b|a))*a", "ab")[0] == [0b11, 0b01]

    def test_long_union_of_one_letter_is_one_position(self):
        masks, follow, first, last, nullable = positions("|".join("a" * 20000), "a")
        assert (masks, follow, first, last, nullable) == ([1], [0], 1, 1, False)

    @pytest.mark.parametrize("pattern, nullable", [("(a|#)", False), ("(a|_)", True)])
    def test_empty_set_and_empty_word_are_not_letters(self, pattern, nullable):
        masks, follow, first, last, got = positions(pattern, "a")
        assert (masks, follow, first, last, got) == ([1], [0], 1, 1, nullable)


def python_pattern(node):
    """The AST as a pattern for Python's ``re``: ``_`` is the empty pattern
    and ``#`` the pattern that never matches."""
    if isinstance(node, rx.Empty):
        return "(?!)"
    if isinstance(node, rx.Epsilon):
        return ""
    if isinstance(node, rx.Letter):
        return re.escape(node.letter)
    if isinstance(node, rx.Union):
        return f"(?:{python_pattern(node.left)}|{python_pattern(node.right)})"
    if isinstance(node, rx.Concat):
        return f"(?:{python_pattern(node.left)})(?:{python_pattern(node.right)})"
    return f"(?:{python_pattern(node.inner)})*"


ORACLE_PATTERNS = [
    (pattern, "ab")
    for pattern in (
        "_", "#", "_*", "#*", "#a", "a#|b", "a|_", "_|ab", "(_|#)*", "(a|_)*",
        "a**", "(a*)*b", "(a*b*)*", "((ab)*a*)**", "((a|b)*a)*b",
        "(a|_)(b|_)*a", "(aa|b)*(a|_)", "(a(b(ab)*)*)*", "(a|b|_)(ab|ba|_)*",
        # letter classes, next to the empty set and the empty word
        "(a|#)*b", "(#|a)b", "(a|_)|b", "a|(b|a)", "((a|b)|(b|a))*a", "(a|b)*|#",
        "((a|b)*|a)b", "(a|b)(a|b)*(a|_)",
    )
] + [(pattern, letters) for _, pattern, letters in APERIODIC_CORPUS + NON_APERIODIC]


@pytest.mark.parametrize("pattern,letters", ORACLE_PATTERNS)
def test_compile_agrees_with_python_re(pattern, letters):
    alphabet = Alphabet.of(letters)
    ast = parse_regex(pattern, alphabet)
    d = regex_to_dfa(ast, alphabet)
    oracle = re.compile(python_pattern(ast))
    for w in words_upto(letters, 6):
        assert d.accepts(w) == (oracle.fullmatch("".join(w)) is not None), (pattern, w)


letters = st.sampled_from([rx.Letter("a"), rx.Letter("b"), rx.Epsilon(), rx.Empty()])
regexes = st.recursive(
    letters,
    lambda inner: st.one_of(
        st.builds(rx.Union, inner, inner),
        st.builds(rx.Concat, inner, inner),
        st.builds(rx.Star, inner),
    ),
    max_leaves=8,
)


def parenthesized(node):
    """The AST as regex text with every union and concatenation in
    parentheses, so that the text fixes the tree."""
    if isinstance(node, rx.Empty):
        return "#"
    if isinstance(node, rx.Epsilon):
        return "_"
    if isinstance(node, rx.Letter):
        return node.letter
    if isinstance(node, rx.Union):
        return f"({parenthesized(node.left)}|{parenthesized(node.right)})"
    if isinstance(node, rx.Concat):
        return f"({parenthesized(node.left)}{parenthesized(node.right)})"
    return parenthesized(node.inner) + "*"


@settings(max_examples=120, deadline=None)
@given(regexes)
def test_render_parse_round_trip(ast):
    assert parse_regex(parenthesized(ast), AB) == ast


@settings(max_examples=50, deadline=None)
@given(regexes)
def test_compile_agrees_with_naive_matcher(ast):
    d = regex_to_dfa(ast, AB)
    for w in words_upto("ab", 4):
        assert d.accepts(w) == naive_match(ast, w)


# the grammar's characters, quotes, whitespace, and characters that are
# alphanumeric, unprintable or whitespace outside ASCII
REGEX_CHARS = "|*()_#abc' \t\n\x1c\x00é٣\u2028"


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=REGEX_CHARS, max_size=30))
def test_parse_regex_returns_or_raises_parse_error(text):
    try:
        result = parse_regex(text, AB)
    except ParseError:
        return
    assert isinstance(result, rx.Regex)


def reversed_regex(node):
    """The AST of the reversed language: every concatenation swapped."""
    if isinstance(node, rx.Concat):
        return rx.Concat(reversed_regex(node.right), reversed_regex(node.left))
    if isinstance(node, rx.Union):
        return rx.Union(reversed_regex(node.left), reversed_regex(node.right))
    if isinstance(node, rx.Star):
        return rx.Star(reversed_regex(node.inner))
    return node


def monoid_size_and_verdict(ast, alphabet):
    try:
        size, witness = transition_aperiodicity(regex_to_dfa(ast, alphabet))
    except MonoidSizeError:
        return "over the cap"
    return size, witness is None


def assert_reversal_keeps_monoid(ast, alphabet):
    # the syntactic monoid of the reversed language is the opposite monoid:
    # same size, aperiodic or not alike, though its first witness may differ
    assert monoid_size_and_verdict(reversed_regex(ast), alphabet) == (
        monoid_size_and_verdict(ast, alphabet)
    )


@pytest.mark.parametrize(
    "pattern, letters",
    [entry[1:] for entry in APERIODIC_CORPUS + NON_APERIODIC],
    ids=[entry[0] for entry in APERIODIC_CORPUS + NON_APERIODIC],
)
def test_reversal_keeps_monoid_size_and_verdict(pattern, letters):
    alphabet = Alphabet.of(letters)
    assert_reversal_keeps_monoid(parse_regex(pattern, alphabet), alphabet)


@settings(max_examples=150, deadline=None)
@given(regexes)
def test_reversal_keeps_monoid_size_and_verdict_on_random_regexes(ast):
    assert_reversal_keeps_monoid(ast, AB)
