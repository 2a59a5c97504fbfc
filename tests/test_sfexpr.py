import pytest
from hypothesis import given, settings, strategies as st

from corpus import APERIODIC_CORPUS, desugar, subterms, words_upto
from sfree import sfexpr as sf
from sfree.automata import (
    Alphabet,
    dfa_equivalent,
    enumerate_members,
    universal_dfa,
)
from sfree.errors import MAX_NESTING, AlphabetError, ParseError
from sfree.regex import parse_regex, regex_to_dfa
from sfree.sfexpr import (
    ALL,
    EMPTY,
    EPSILON,
    Concat,
    Difference,
    Letter,
    Union,
    eval_expr,
    expr_letters,
    metrics,
    n_bound,
    parse_expr,
    render_expr,
    simplify,
)
from sfree.synthesis import decide_star_free

AB = Alphabet.of("ab")
A1 = Alphabet.of("a")

# a small, varied expression corpus reused across the property tests
EXPR_CORPUS = [
    ALL,
    EMPTY,
    EPSILON,
    Letter("a"),
    Union(Letter("a"), Letter("b")),
    Difference(ALL, Letter("b")),
    Concat(Letter("a"), Letter("b")),
    Concat(Concat(ALL, Letter("b")), ALL),
    Difference(ALL, Concat(Concat(ALL, Letter("b")), ALL)),
    Union(Concat(ALL, Letter("a")), EPSILON),
    Concat(Letter("a"), Difference(ALL, Concat(Concat(ALL, Letter("a")), ALL))),
    Difference(Union(Letter("a"), EPSILON), Concat(Letter("b"), ALL)),
]


class TestEval:
    def test_all_is_universal(self):
        assert eval_expr(ALL, AB) == universal_dfa(AB)

    def test_epsilon_is_exactly_the_empty_word(self):
        assert enumerate_members(eval_expr(EPSILON, AB), 3) == [()]

    def test_subalphabet_carving(self):
        # all words avoiding 'b' equals the language of a* over {a,b}
        e = Difference(ALL, Concat(Concat(ALL, Letter("b")), ALL))
        want = regex_to_dfa(parse_regex("a*", AB), AB)
        assert dfa_equivalent(eval_expr(e, AB), want)

    def test_unbound_letter(self):
        with pytest.raises(AlphabetError):
            eval_expr(Letter("z"), AB)

    def test_result_is_minimal(self):
        for e in EXPR_CORPUS:
            d = eval_expr(e, AB)
            from sfree.automata import dfa_minimize

            assert d == dfa_minimize(d)


class TestDesugar:
    def test_empty_denotes_nothing(self):
        assert enumerate_members(eval_expr(EMPTY, AB), 4) == []
        assert dfa_equivalent(eval_expr(EMPTY, AB), eval_expr(desugar(EMPTY, AB), AB))

    def test_epsilon_matches_its_desugaring(self):
        core = desugar(EPSILON, AB)
        assert expr_letters(core) == frozenset("ab")
        assert dfa_equivalent(eval_expr(EPSILON, AB), eval_expr(core, AB))

    def test_core_has_no_sugar(self):
        core = desugar(Union(EMPTY, Concat(EPSILON, Letter("a"))), AB)
        stack = [core]
        while stack:
            n = stack.pop()
            assert not isinstance(n, (sf.Empty, sf.Epsilon))
            if isinstance(n, (Union, Difference, Concat)):
                stack.extend((n.left, n.right))


class TestBound:
    def test_base_cases(self):
        assert n_bound(ALL) == 0
        assert n_bound(Letter("a")) == 2

    def test_concatenation_adds(self):
        assert n_bound(Concat(Letter("a"), Letter("b"))) == 5

    def test_union_and_difference_take_max(self):
        assert n_bound(Union(Letter("a"), ALL)) == 2
        assert n_bound(Difference(ALL, Concat(Letter("a"), Letter("b")))) == 5

    def test_epsilon_value_from_desugaring(self):
        # All minus (All . a . All): inner concat (0+2+1)+0+1 = 4, max with 0
        assert n_bound(EPSILON) == 4
        assert n_bound(desugar(EPSILON, A1)) == 4

    def test_pumping_property_on_corpus(self):
        for e in EXPR_CORPUS:
            d = eval_expr(e, AB)
            n = n_bound(e)
            for p in words_upto("ab", 3):
                for u in words_upto("ab", 3):
                    for q in words_upto("ab", 3):
                        low = d.accepts(p + u * n + q)
                        high = d.accepts(p + u * (n + 1) + q)
                        assert low == high


class TestMetrics:
    def test_counts(self):
        e = Union(Letter("a"), Difference(ALL, Letter("b")))
        m = metrics(e)
        assert (m.node_count, m.concat_depth) == (5, 0)
        assert metrics(Concat(Concat(Letter("a"), Letter("b")), Letter("a"))).concat_depth == 2

    def test_metrics_bundle(self):
        m = metrics(Concat(Letter("a"), Letter("b")))
        assert (m.node_count, m.concat_depth, m.n_bound) == (3, 1, 5)


class TestRenderParse:
    def test_all(self):
        assert render_expr(ALL) == "ALL"

    def test_mixing_operators_parenthesized(self):
        e = Union(Letter("a"), Difference(ALL, Letter("b")))
        assert render_expr(e) == "a | (ALL \\ b)"

    def test_quoted_token(self):
        got = parse_expr("ALL . 'm3'")
        assert got == Concat(ALL, Letter("m3"))

    def test_round_trip_examples(self):
        for e in EXPR_CORPUS:
            assert parse_expr(render_expr(e), AB) == e

    def test_letter_validation(self):
        with pytest.raises(ParseError, match="not in alphabet"):
            parse_expr("z", AB)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("a | ", AB)
        assert err.value.position == 4

    def test_nesting_limit(self):
        deepest = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
        assert parse_expr(deepest, AB) == Letter("a")
        with pytest.raises(ParseError, match="nest deeper") as err:
            parse_expr("(" + deepest + ")", AB)
        assert err.value.position == MAX_NESTING

    def test_multichar_must_be_quoted(self):
        with pytest.raises(ParseError, match="must be quoted"):
            parse_expr("ab", AB)

    def test_unterminated_quote(self):
        with pytest.raises(ParseError):
            parse_expr("'m3", AB)

    def test_stray_token(self):
        with pytest.raises(ParseError):
            parse_expr("a b", AB)

    def test_leftmost_error_wins(self):
        with pytest.raises(ParseError, match="unexpected 'b'") as err:
            parse_expr("a b 'm3")
        assert err.value.position == 2

    def test_quoted_punctuation_is_a_letter_not_an_operator(self):
        assert parse_expr("'|' | ')'") == Union(Letter("|"), Letter(")"))
        for text in ("a '|' b", "a '.' b", "(a')'"):
            with pytest.raises(ParseError) as err:
                parse_expr(text)
            assert err.value.position == 2


class TestParseSharing:
    def test_equal_subexpressions_are_one_object(self):
        e = parse_expr("a . b | a . b")
        assert isinstance(e, Union) and e.left is e.right

    def test_parsed_synthesis_output_is_maximally_shared(self):
        for name, pattern, letters in APERIODIC_CORPUS:
            alphabet = Alphabet.of(letters)
            d = regex_to_dfa(parse_regex(pattern, alphabet), alphabet)
            expected = decide_star_free(d).language_expression()
            parsed = parse_expr(render_expr(expected), alphabet)
            assert parsed == expected, name
            nodes = subterms(parsed)
            assert len(nodes) == len(set(nodes)), name


class TestSimplify:
    def test_listed_rewrites(self):
        a = Letter("a")
        assert simplify(Difference(ALL, ALL)) == EMPTY
        assert simplify(Concat(a, EPSILON)) == a
        assert simplify(Union(a, a)) == a
        assert simplify(Union(a, EMPTY)) == a
        assert simplify(Concat(a, EMPTY)) == EMPTY
        assert simplify(Difference(EMPTY, a)) == EMPTY

    def test_cascade(self):
        a = Letter("a")
        e = Concat(a, Difference(Letter("b"), Letter("b")))
        assert simplify(e) == EMPTY

    def test_language_preserved_on_corpus(self):
        for e in EXPR_CORPUS:
            s = simplify(e)
            assert dfa_equivalent(eval_expr(e, AB), eval_expr(s, AB))


tokens = st.sampled_from(
    [Letter("a"), Letter("b"), Letter("m10"), ALL, EMPTY, EPSILON]
)
expressions = st.recursive(
    tokens,
    lambda inner: st.one_of(
        st.builds(Union, inner, inner),
        st.builds(Difference, inner, inner),
        st.builds(Concat, inner, inner),
    ),
    max_leaves=10,
)


@settings(max_examples=150, deadline=None)
@given(expressions)
def test_round_trip_random(e):
    assert parse_expr(render_expr(e)) == e


def _copy(e):
    """A structurally equal expression that shares no node with ``e``."""
    if isinstance(e, (Union, Difference, Concat)):
        return e.__class__(_copy(e.left), _copy(e.right))
    return Letter(e.symbol) if isinstance(e, Letter) else e.__class__()


@st.composite
def shared_expressions(draw):
    """Expressions built bottom-up from a growing pool, so subtrees recur,
    some as the same object and some as structurally equal copies."""
    pool = draw(st.lists(tokens, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 12))):
        op = draw(st.sampled_from([Union, Difference, Concat]))
        left, right = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if draw(st.booleans()):
            right = _copy(right)
        pool.append(op(left, right))
    return pool[-1]


def tree_metrics(e):
    """Reference by plain tree recursion: (tree nodes, concat depth, n_bound)."""
    if isinstance(e, (Union, Difference, Concat)):
        ln, ld, lb = tree_metrics(e.left)
        rn, rd, rb = tree_metrics(e.right)
        if isinstance(e, Concat):
            return 1 + ln + rn, 1 + max(ld, rd), lb + rb + 1
        return 1 + ln + rn, max(ld, rd), max(lb, rb)
    if isinstance(e, Letter):
        return 1, 0, 2
    return 1, 0, 4 if e == EPSILON else 0


@settings(max_examples=150, deadline=None)
@given(shared_expressions())
def test_metrics_match_tree_recursion(e):
    m = metrics(e)
    assert (m.node_count, m.concat_depth, m.n_bound) == tree_metrics(e)
    assert n_bound(e) == m.n_bound


@settings(max_examples=40, deadline=None)
@given(expressions)
def test_simplify_preserves_language_random(e):
    bound = Alphabet.of(["a", "b", "m10"])
    assert dfa_equivalent(eval_expr(e, bound), eval_expr(simplify(e), bound))


@settings(max_examples=40, deadline=None)
@given(expressions)
def test_desugaring_preserves_language_random(e):
    bound = Alphabet.of(["a", "b", "m10"])
    assert dfa_equivalent(eval_expr(e, bound), eval_expr(desugar(e, bound), bound))


# the grammar's characters and words, quotes, whitespace, and characters that
# are alphanumeric, unprintable or whitespace outside ASCII
EXPR_PIECES = [".", "\\", "|", "(", ")", "'", "a", "b", "m3", "_", "ALL", "EMPTY",
               "EPS", " ", "\t", "\n", "\x1c", "\x00", "é", "٣", "\u2028"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(EXPR_PIECES), max_size=30).map("".join),
       st.sampled_from([None, AB]))
def test_parse_expr_returns_or_raises_parse_error(text, alphabet):
    try:
        result = parse_expr(text, alphabet)
    except ParseError:
        return
    assert isinstance(result, sf.SfExpr)
