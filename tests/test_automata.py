import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import dfa_from_homomorphism, dfa_objects, dfa_to_dict, reference, words_upto
from sfree.automata import (
    Alphabet,
    Dfa,
    dfa_combine,
    dfa_equivalent,
    dfa_minimize,
    dfa_from_dict,
    empty_dfa,
    enumerate_members,
    letter_dfa,
    load_dfa,
    universal_dfa,
    words,
)
from sfree.errors import AlphabetError, MonoidError, ParseError, SfreeError
from sfree.monoid import FiniteMonoid, Homomorphism

AB = Alphabet.of("ab")
A1 = Alphabet.of("a")


def ab_star_dfa():
    # (ab)*: 0 accepting start, 1 after 'a', 2 sink
    return Dfa(AB, ((1, 2), (2, 0), (2, 2)), 0, frozenset({0}))


class TestAlphabet:
    def test_order_and_lookup(self):
        assert AB.letters == ("a", "b")
        assert AB.index("b") == 1
        assert "a" in AB and "c" not in AB
        assert AB.without("a").letters == ("b",)

    def test_duplicates_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet.of("aa")

    def test_empty_token_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet(("",))


class TestDfaConstruction:
    # a bool is an int to Python, but not a state number
    @pytest.mark.parametrize("state", [0.0, 1.5, True])
    def test_non_int_initial_rejected(self, state):
        with pytest.raises(ValueError):
            Dfa(AB, ((1, 1), (1, 1)), state, frozenset({1}))

    @pytest.mark.parametrize("state", [0.0, 1.5, True])
    def test_non_int_accepting_entry_rejected(self, state):
        with pytest.raises(ValueError):
            Dfa(AB, ((1, 1), (1, 1)), 0, frozenset({state}))

    @pytest.mark.parametrize("state", [0.0, 1.5, True])
    def test_non_int_successor_rejected(self, state):
        with pytest.raises(ValueError):
            Dfa(AB, ((1, state), (1, 1)), 0, frozenset({1}))

    def test_float_initial_in_a_file_is_a_parse_error(self):
        obj = dfa_to_dict(ab_star_dfa())
        obj["initial"] = 0.0
        with pytest.raises(ParseError, match="'initial' must be an integer"):
            dfa_from_dict(obj)


class TestAcceptance:
    def test_ab_star_walk(self):
        d = ab_star_dfa()
        assert d.accepts("abab")
        assert not d.accepts("aba")
        assert d.accepts(())

    def test_foreign_letter(self):
        with pytest.raises(AlphabetError):
            ab_star_dfa().accepts("abc")

    def test_enumerate_ab_star(self):
        got = enumerate_members(ab_star_dfa(), 4)
        assert got == [(), ("a", "b"), ("a", "b", "a", "b")]

    def test_enumerate_empty(self):
        assert enumerate_members(empty_dfa(AB), 5) == []

    def test_words_shortest_first_in_declared_letter_order(self):
        assert list(words(Alphabet.of("ba"), 2)) == [
            (), ("b",), ("a",), ("b", "b"), ("b", "a"), ("a", "b"), ("a", "a"),
        ]
        assert list(words(AB, 0)) == [()]


class TestMinimize:
    def test_duplicate_accepting_states_collapse(self):
        # two equivalent accepting sinks
        d = Dfa(A1, ((1,), (2,), (2,)), 0, frozenset({1, 2}))
        assert dfa_minimize(d).n_states == 2

    def test_idempotent_and_structural(self):
        d = ab_star_dfa()
        m1 = dfa_minimize(d)
        assert m1 == dfa_minimize(m1)

    def test_ab_star_with_duplicated_sink(self):
        # oracle: Moore refinement by hand gives 3 classes {0},{1},{2,3}
        d = Dfa(AB, ((1, 2), (3, 0), (2, 2), (3, 3)), 0, frozenset({0}))
        m = dfa_minimize(d)
        assert m.n_states == 3
        # canonical numbering: BFS from the accepting start
        assert m == Dfa(AB, ((1, 2), (2, 0), (2, 2)), 0, frozenset({0}))

    def test_language_preserved(self):
        d = Dfa(AB, ((1, 2), (3, 0), (2, 2), (3, 3)), 0, frozenset({0}))
        assert agree_upto_bound(d, dfa_minimize(d))

    def test_agrees_with_reference_on_seeded_random_dfas(self):
        # perfbench/reference.py minimizes by Moore refinement, with no code
        # shared with the library; both number states breadth-first
        rng = random.Random(1971)
        for _ in range(400):
            rows, accepting, d = random_dfa_pair(rng)
            minimal = dfa_minimize(d)
            assert (minimal.transitions, minimal.accepting) == reference.canonical(
                rows, accepting
            )
            assert minimal.initial == 0


def random_dfa_pair(rng):
    """A random DFA as ``(rows, accepting)`` with start state 0 for the
    reference, and the same DFA with its states shuffled as a :class:`Dfa`.
    One letter in a quarter of the draws; unreachable states in half of
    them; every state or no state accepting in a third of them."""
    k = rng.choice((1, 2, 2, 3))
    reach = rng.randint(1, rng.choice((4, 12, 40)))
    m = reach + rng.choice((0, rng.randint(1, 5)))
    # states from `reach` on have no edge into them from below `reach`
    rows = [tuple(rng.randrange(reach) for _ in range(k)) for _ in range(reach)]
    rows += [tuple(rng.randrange(m) for _ in range(k)) for _ in range(reach, m)]
    share = rng.choice((0.0, 1.0, 0.2, 0.5, 0.8))
    accepting = {s for s in range(m) if rng.random() < share}
    name = list(range(m))
    rng.shuffle(name)
    renamed = [None] * m
    for s, row in enumerate(rows):
        renamed[name[s]] = tuple(name[t] for t in row)
    d = Dfa(Alphabet.of("abc"[:k]), tuple(renamed), name[0], {name[s] for s in accepting})
    return rows, accepting, d


class TestCombine:
    def test_union_trivial(self):
        a_star = dfa_minimize(Dfa(AB, ((0, 1), (1, 1)), 0, frozenset({0})))
        b_star = dfa_minimize(Dfa(AB, ((1, 0), (1, 1)), 0, frozenset({0})))
        u = dfa_combine("union", a_star, b_star)
        assert u.accepts("aa") and u.accepts("bb") and not u.accepts("ab")

    def test_difference_self_is_empty(self):
        u = universal_dfa(AB)
        assert dfa_equivalent(dfa_combine("difference", u, u), empty_dfa(AB))

    def test_concatenation_of_singletons(self):
        # oracle: all words of length <= 3, compared with the brute set {ab}
        d = dfa_combine("concatenation", letter_dfa(AB, "a"), letter_dfa(AB, "b"))
        assert enumerate_members(d, 3) == [("a", "b")]

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            dfa_combine("union", universal_dfa(AB), universal_dfa(A1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dfa_combine("xor", universal_dfa(AB), universal_dfa(AB))

    def test_complement(self):
        d = ab_star_dfa()
        c = Dfa(d.alphabet, d.transitions, d.initial, frozenset(range(d.n_states)) - d.accepting)
        assert not c.accepts("") and c.accepts("a")

    def test_membership_logic_exhaustive_to_length_8(self):
        d1 = ab_star_dfa()
        d2 = dfa_minimize(Dfa(AB, ((0, 1), (1, 1)), 0, frozenset({0})))  # a*
        union = dfa_combine("union", d1, d2)
        diff = dfa_combine("difference", d1, d2)
        inter = dfa_combine("intersection", d1, d2)
        cat = dfa_combine("concatenation", d1, d2)
        for w in words_upto("ab", 8):
            m1, m2 = d1.accepts(w), d2.accepts(w)
            assert union.accepts(w) == (m1 or m2)
            assert diff.accepts(w) == (m1 and not m2)
            assert inter.accepts(w) == (m1 and m2)
            split = any(
                d1.accepts(w[:i]) and d2.accepts(w[i:]) for i in range(len(w) + 1)
            )
            assert cat.accepts(w) == split


class TestEquivalence:
    def test_minimize_is_equivalent(self):
        d = ab_star_dfa()
        assert dfa_equivalent(d, dfa_minimize(d))

    def test_a_star_is_universal_over_one_letter(self):
        a_star = Dfa(A1, ((0,),), 0, frozenset({0}))
        assert dfa_equivalent(a_star, universal_dfa(A1))

    def test_ab_star_not_universal(self):
        assert not dfa_equivalent(ab_star_dfa(), universal_dfa(AB))


def agree_upto_bound(d1, d2):
    """Whether two DFAs with n1 and n2 states accept the same words of length
    at most n1 + n2 - 2, which holds iff they accept the same language."""
    return all(
        d1.accepts(w) == d2.accepts(w)
        for w in words(d1.alphabet, d1.n_states + d2.n_states - 2)
    )


# random complete DFAs for property tests
@st.composite
def dfas(draw, alphabet=AB, max_states=4):
    m = draw(st.integers(1, max_states))
    rows = tuple(
        tuple(draw(st.integers(0, m - 1)) for _ in alphabet) for _ in range(m)
    )
    initial = draw(st.integers(0, m - 1))
    accepting = frozenset(
        s for s in range(m) if draw(st.booleans())
    )
    return Dfa(alphabet, rows, initial, accepting)


@st.composite
def renamed_copies(draw, d):
    """A DFA for the same language as ``d``: its states renamed, and one of
    them cloned with some of the edges into it moved to the clone."""
    m = d.n_states
    name = draw(st.permutations(range(m)))
    rows = [None] * m
    for s, row in enumerate(d.transitions):
        rows[name[s]] = [name[t] for t in row]
    accepting = {name[s] for s in d.accepting}
    original = draw(st.integers(0, m - 1))
    rows.append(list(rows[original]))
    if original in accepting:
        accepting.add(m)
    for row in rows:
        for j, t in enumerate(row):
            if t == original and draw(st.booleans()):
                row[j] = m
    return Dfa(d.alphabet, tuple(map(tuple, rows)), name[d.initial], frozenset(accepting))


@st.composite
def dfa_pairs(draw):
    """Two DFAs, about half of the time for the same language."""
    d1 = draw(dfas())
    if draw(st.booleans()):
        return d1, draw(dfas())
    return d1, draw(renamed_copies(d1))


@settings(max_examples=60, deadline=None)
@given(dfas())
def test_minimize_preserves_language(d):
    m = dfa_minimize(d)
    assert m.n_states <= d.n_states
    assert agree_upto_bound(d, m)
    assert m == dfa_minimize(m)


@settings(max_examples=40, deadline=None)
@given(dfas(), dfas())
def test_boolean_ops_agree_with_membership(d1, d2):
    union = dfa_combine("union", d1, d2)
    diff = dfa_combine("difference", d1, d2)
    inter = dfa_combine("intersection", d1, d2)
    for w in words_upto("ab", 5):
        m1, m2 = d1.accepts(w), d2.accepts(w)
        assert union.accepts(w) == (m1 or m2)
        assert diff.accepts(w) == (m1 and not m2)
        assert inter.accepts(w) == (m1 and m2)


@settings(max_examples=30, deadline=None)
@given(dfas(max_states=3), dfas(max_states=3))
def test_concatenation_agrees_with_splits(d1, d2):
    cat = dfa_combine("concatenation", d1, d2)
    for w in words_upto("ab", 5):
        brute = any(
            d1.accepts(w[:i]) and d2.accepts(w[i:]) for i in range(len(w) + 1)
        )
        assert cat.accepts(w) == brute


@settings(max_examples=80, deadline=None)
@given(dfa_pairs())
def test_equivalence_matches_canonical_minimization(pair):
    # oracle: agreement on every word up to the length bound
    d1, d2 = pair
    same = agree_upto_bound(d1, d2)
    assert dfa_equivalent(d1, d2) == same
    assert (dfa_minimize(d1) == dfa_minimize(d2)) == same


class TestHomomorphismDfa:
    def test_trivial_monoid_gives_universal(self):
        h = Homomorphism(AB, FiniteMonoid(((0,),), 0), (0, 0))
        d = dfa_from_homomorphism(h, {0})
        assert dfa_equivalent(d, universal_dfa(AB))

    def test_absorbing_zero_gives_nonempty_words(self):
        m = FiniteMonoid(((0, 1), (1, 1)), 0)
        h = Homomorphism(A1, m, (1,))
        d = dfa_from_homomorphism(h, {1})
        assert enumerate_members(d, 3) == [("a",), ("a", "a"), ("a", "a", "a")]

    def test_bad_target(self):
        h = Homomorphism(AB, FiniteMonoid(((0,),), 0), (0, 0))
        with pytest.raises(MonoidError):
            dfa_from_homomorphism(h, {3})

    @pytest.mark.parametrize("target", [1.5, True, 1.0])
    def test_non_integer_target(self, target):
        # in range by comparison, but not an element index
        h = Homomorphism(A1, FiniteMonoid(((0, 1), (1, 1)), 0), (1,))
        with pytest.raises(MonoidError):
            dfa_from_homomorphism(h, {target})

    def test_word_evaluation_matches_membership(self):
        m = FiniteMonoid(((0, 1), (1, 1)), 0)
        h = Homomorphism(AB, m, (1, 0))
        for p in range(m.size):
            d = dfa_from_homomorphism(h, {p})
            for w in words_upto("ab", 8):
                assert d.accepts(w) == (h.evaluate(w) == p)


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        d = ab_star_dfa()
        path = tmp_path / "d.json"
        path.write_text(json.dumps(dfa_to_dict(d)), encoding="utf-8")
        assert load_dfa(path) == d

    def test_partial_delta_rejected(self):
        obj = dfa_to_dict(ab_star_dfa())
        obj["delta"][1] = [2]
        with pytest.raises(ParseError):
            dfa_from_dict(obj)

    def test_missing_key_rejected(self):
        obj = dfa_to_dict(ab_star_dfa())
        del obj["initial"]
        with pytest.raises(ParseError):
            dfa_from_dict(obj)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_dfa(path)

    def test_overlong_number_rejected(self, tmp_path):
        # Python converts integer literals of at most 4300 digits; json raises ValueError past that
        path = tmp_path / "long.json"
        path.write_text('{"states": ' + "1" * 5000 + "}")
        with pytest.raises(ParseError):
            load_dfa(path)


@settings(max_examples=400, deadline=None)
@given(dfa_objects)
def test_dfa_from_dict_returns_or_raises_sfree_error(obj):
    try:
        d = dfa_from_dict(obj)
    except SfreeError:
        return
    states = (d.initial, *d.accepting, *(t for row in d.transitions for t in row))
    assert all(type(s) is int for s in states)
    dfa_minimize(d)
    d.accepts(())
