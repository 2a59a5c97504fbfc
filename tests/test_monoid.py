import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    APERIODIC_CORPUS,
    NON_APERIODIC,
    corpus_dfa,
    dfa_from_homomorphism,
    format_monoid_table,
    words_upto,
)
from sfree.automata import (
    Alphabet,
    Dfa,
    dfa_equivalent,
    dfa_minimize,
)
from sfree.errors import (
    AlphabetError,
    MonoidError,
    MonoidSizeError,
    ParseError,
)
from sfree.monoid import (
    AperiodicityWitness,
    FiniteMonoid,
    Homomorphism,
    _compose,
    _first_periodic,
    _power_shape,
    _psi,
    _transformations,
    is_aperiodic,
    local_divisor,
    parse_monoid_table,
    transition_aperiodicity,
    transition_monoid,
    unit_factorization_check,
    validate_monoid,
)

AB = Alphabet.of("ab")

TRIVIAL = FiniteMonoid(((0,),), 0)
ABSORBING = FiniteMonoid(((0, 1), (1, 1)), 0)  # {1, 0} with 0 absorbing
Z2 = FiniteMonoid(((0, 1), (1, 0)), 0)

# identity law holds but associativity does not; constructed so that the
# local product at element 1 has conflicting representatives
CORRUPT = FiniteMonoid(((0, 1, 2), (1, 2, 0), (2, 2, 1)), 0)


def syntactic(pattern, letters="ab"):
    d, _ = corpus_dfa(pattern, letters)
    return transition_monoid(d)


class TestValidate:
    def test_trivial(self):
        assert validate_monoid([[0]], 0).size == 1

    def test_absorbing(self):
        assert validate_monoid([[0, 1], [1, 1]], 0) == ABSORBING

    def test_non_associative_triple_reported(self):
        with pytest.raises(MonoidError, match=r"not associative"):
            validate_monoid(CORRUPT.table, 0)

    def test_identity_violation_reported(self):
        with pytest.raises(MonoidError, match="identity law"):
            validate_monoid([[1, 1], [1, 1]], 0)

    def test_needs_every_element_as_a_generator(self):
        # x*y = max(x, y): no element is a product of others, so Light's
        # test checks every middle element
        n = 12
        table = [[max(x, y) for y in range(n)] for x in range(n)]
        assert validate_monoid(table, 0).size == n
        # every failing triple has the last generator in the middle
        table[11][11] = 9
        with pytest.raises(MonoidError) as raised:
            validate_monoid(table, 0)
        assert str(raised.value) == "not associative: ((10*11)*11) = 9 but (10*(11*11)) = 10"

    def test_ragged_table_rejected(self):
        with pytest.raises(MonoidError):
            FiniteMonoid(((0, 1), (1,)), 0)


class TestBoolIsNoElement:
    # a bool is an int to Python, but not an element index
    def test_table_entry(self):
        with pytest.raises(MonoidError):
            FiniteMonoid(((0, True), (1, 1)), 0)

    def test_identity(self):
        with pytest.raises(MonoidError):
            FiniteMonoid(((0, 1), (1, 1)), False)

    def test_letter_image(self):
        with pytest.raises(MonoidError):
            Homomorphism(AB, ABSORBING, (True, 0))

    def test_local_divisor_element(self):
        with pytest.raises(MonoidError):
            local_divisor(ABSORBING, True)


class TestTransitionMonoid:
    def test_universal_language(self):
        d = Dfa(AB, ((0, 0),), 0, frozenset({0}))
        monoid, hom, accept = transition_monoid(d)
        assert monoid.size == 1
        assert accept == {0}
        assert hom.letter_image == (0, 0)

    def test_even_length_a_is_two_element_group(self):
        d, _ = corpus_dfa("(aa)*", "a")
        monoid, hom, accept = transition_monoid(d)
        # oracle: the closure of the swap transformation under composition
        # is {identity, swap}
        assert monoid.size == 2
        assert monoid == Z2
        assert accept == {0}

    def test_ab_star_has_six_elements(self):
        d, _ = corpus_dfa("(ab)*", "ab")
        monoid, hom, accept = transition_monoid(d)
        assert monoid.size == 6
        # oracle: distinct state transformations of all words of length <= 6
        m = d.n_states
        seen = set()
        for w in words_upto("ab", 6):
            seen.add(tuple(_apply(d, s, w) for s in range(m)))
        assert len(seen) == 6

    def test_accept_elements_are_language_image(self):
        d, _ = corpus_dfa("(ab)*", "ab")
        monoid, hom, accept = transition_monoid(d)
        image_of_members = {hom.evaluate(w) for w in words_upto("ab", 6) if d.accepts(w)}
        assert image_of_members == accept

    def test_recognizes_the_language(self):
        for _, pattern, letters in APERIODIC_CORPUS:
            d, _ = corpus_dfa(pattern, letters)
            monoid, hom, accept = transition_monoid(d)
            assert dfa_equivalent(dfa_from_homomorphism(hom, accept), d)

    def test_non_minimal_input_is_minimized(self):
        d = Dfa(AB, ((1, 2), (3, 0), (2, 2), (3, 3)), 0, frozenset({0}))
        minimal = dfa_minimize(d)
        assert minimal.n_states < d.n_states
        monoid, hom, accept = transition_monoid(d)
        assert (monoid, hom, accept) == transition_monoid(minimal)
        # oracle: the images of the accepted words, and (ab)*'s six elements
        assert monoid.size == 6
        assert accept == {hom.evaluate(w) for w in words_upto("ab", 6) if d.accepts(w)}

    def test_size_cap(self):
        d, _ = corpus_dfa("(ab)*", "ab")
        with pytest.raises(MonoidSizeError):
            transition_monoid(d, max_size=3)


def _apply(d, state, word):
    for a in word:
        state = d.transitions[state][d.alphabet.index(a)]
    return state


class TestAperiodicity:
    def test_trivial(self):
        assert is_aperiodic(TRIVIAL) is None

    def test_z2_witness(self):
        w = is_aperiodic(Z2)
        assert w == AperiodicityWitness(element=1, index=1, period=2)
        assert w.holds_in(Z2)

    def test_ab_star_monoid_is_aperiodic(self):
        monoid, _, _ = syntactic("(ab)*")
        # oracle: brute-force powers of every element stabilize
        for x in range(monoid.size):
            powers = [monoid.power(x, k) for k in range(1, monoid.size + 2)]
            assert any(
                powers[i] == powers[i + 1] for i in range(len(powers) - 1)
            )
        assert is_aperiodic(monoid) is None

    def test_witness_validates_for_z3(self):
        z3 = FiniteMonoid(((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0)
        w = is_aperiodic(z3)
        assert w is not None and w.period == 3 and w.holds_in(z3)


def power_shape(monoid, x):
    """Least ``(index, period)`` with x^index = x^(index+period), found by
    listing the powers x^1, x^2, ... until one repeats."""
    powers = [x]
    while (nxt := monoid.mul(powers[-1], x)) not in powers:
        powers.append(nxt)
    index = powers.index(nxt) + 1
    return index, len(powers) + 1 - index


def assert_witness_is_first_and_minimal(monoid):
    shapes = [power_shape(monoid, x) for x in range(monoid.size)]
    periodic = [x for x, (_, period) in enumerate(shapes) if period >= 2]
    witness = is_aperiodic(monoid)
    if not periodic:
        assert witness is None
    else:
        x = periodic[0]
        assert witness == AperiodicityWitness(x, *shapes[x])


def cyclic_chain_product(m, k, rng):
    """Z_m × C_k with C_k = {1, x, ..., x^k}, x^k = x^(k+1), its elements
    numbered in the order of a shuffle drawn from ``rng``."""
    size = m * (k + 1)
    label = list(range(size))
    rng.shuffle(label)
    table = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            g = (a // (k + 1) + b // (k + 1)) % m
            i = min(a % (k + 1) + b % (k + 1), k)
            table[label[a]][label[b]] = label[g * (k + 1) + i]
    return FiniteMonoid(table, label[0])


class TestWitnessMinimality:
    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("k", range(7))
    def test_cyclic_chain_products(self, m, k):
        monoid = cyclic_chain_product(m, k, random.Random(10 * m + k))
        assert_witness_is_first_and_minimal(monoid)
        assert (is_aperiodic(monoid) is None) == (m == 1)

    def test_corpus(self):
        for _, pattern, letters in APERIODIC_CORPUS + NON_APERIODIC:
            assert_witness_is_first_and_minimal(syntactic(pattern, letters)[0])


def count_mod(k):
    """Words over ab whose number of a's is divisible by k."""
    return Dfa(AB, tuple(((s + 1) % k, s) for s in range(k)), 0, frozenset({0}))


def assert_table_free_matches(d, max_size=64):
    """The table-free test agrees with is_aperiodic on the table, witness
    included, and the witness holds in the table."""
    monoid, _, _ = transition_monoid(d, max_size=max_size)
    witness = is_aperiodic(monoid)
    assert transition_aperiodicity(d, max_size=max_size) == (monoid.size, witness)
    assert witness is None or witness.holds_in(monoid)
    return witness


class TestTableFree:
    def test_corpus(self):
        for name, pattern, letters in APERIODIC_CORPUS:
            assert assert_table_free_matches(corpus_dfa(pattern, letters)[0]) is None, name
        for name, pattern, letters in NON_APERIODIC:
            assert assert_table_free_matches(corpus_dfa(pattern, letters)[0]) is not None, name

    @pytest.mark.parametrize("k", range(2, 13))
    def test_cyclic_languages(self, k):
        d, _ = corpus_dfa("(" + "a" * k + ")*", "a")
        assert assert_table_free_matches(d).period == k
        assert assert_table_free_matches(count_mod(k)).period == k

    @pytest.mark.parametrize("j,k", [(3, 2), (5, 2), (4, 3), (7, 5)])
    def test_index_past_one(self, j, k):
        d, _ = corpus_dfa("a" * j + "(" + "a" * k + ")*", "a")
        witness = assert_table_free_matches(d)
        assert witness.index > 1 and witness.period == k

    def test_non_minimal_input_is_minimized(self):
        d = Dfa(AB, ((1, 2), (3, 0), (2, 2), (3, 3)), 0, frozenset({0}))
        assert dfa_minimize(d).n_states < d.n_states
        assert_table_free_matches(d)

    def test_size_cap(self):
        d, _ = corpus_dfa("(ab)*", "ab")
        with pytest.raises(MonoidSizeError):
            transition_aperiodicity(d, max_size=5)
        assert transition_aperiodicity(d, max_size=6) == (6, None)
        # a periodic element found before the cap does not stop the count
        with pytest.raises(MonoidSizeError):
            transition_monoid(count_mod(12), max_size=5)
        with pytest.raises(MonoidSizeError):
            transition_aperiodicity(count_mod(12), max_size=5)


    def test_more_states_than_the_cap_is_refused_before_enumerating(self):
        # a minimal DFA's states are reached by distinct transformations;
        # the letter maps of this one are never read
        d = count_mod(7)
        with pytest.raises(MonoidSizeError, match="^transition monoid exceeds the size cap 6$"):
            _transformations(_Unreadable(d), 6)
        assert len(_transformations(d, 7)[0]) == 7


class _Unreadable:
    """A DFA whose state count may be read but not its transitions."""

    def __init__(self, d):
        self.n_states = d.n_states

    @property
    def transitions(self):
        raise AssertionError("the transformations were enumerated")


class TestMetamorphic:
    """Changes to a language or its alphabet that keep its syntactic monoid."""

    @pytest.mark.parametrize(
        "pattern, letters",
        [entry[1:] for entry in APERIODIC_CORPUS + NON_APERIODIC],
        ids=[entry[0] for entry in APERIODIC_CORPUS + NON_APERIODIC],
    )
    def test_same_monoid_same_result(self, pattern, letters):
        d, _ = corpus_dfa(pattern, letters)
        result = transition_aperiodicity(d)
        complement = Dfa(d.alphabet, d.transitions, d.initial, frozenset(range(d.n_states)) - d.accepting)
        assert transition_aperiodicity(complement) == result
        # renaming in order keeps the enumeration order, witness included
        rename = str.maketrans("abc", "xyz")
        renamed, _ = corpus_dfa(pattern.translate(rename), letters.translate(rename))
        assert transition_aperiodicity(renamed) == result
        # another letter order enumerates the elements in another order
        size, witness = transition_aperiodicity(corpus_dfa(pattern, letters[::-1])[0])
        assert size == result[0] and (witness is None) == (result[1] is None)


@st.composite
def small_dfas(draw):
    m = draw(st.integers(1, 5))
    rows = tuple(
        tuple(draw(st.integers(0, m - 1)) for _ in range(2)) for _ in range(m)
    )
    accepting = draw(st.frozensets(st.integers(0, m - 1)))
    return Dfa(AB, rows, 0, accepting)


@settings(max_examples=150, deadline=None)
@given(small_dfas())
def test_table_free_matches_table_on_random_dfas(d):
    try:
        assert_table_free_matches(d)
    except MonoidSizeError:
        with pytest.raises(MonoidSizeError):
            transition_aperiodicity(d)


class TestUnitFactorization:
    def test_trivial(self):
        assert unit_factorization_check(TRIVIAL)

    def test_absorbing(self):
        assert unit_factorization_check(ABSORBING)

    def test_group_fails(self):
        assert not unit_factorization_check(Z2)

    def test_all_corpus_monoids_pass(self):
        for _, pattern, letters in APERIODIC_CORPUS:
            monoid, _, _ = syntactic(pattern, letters)
            assert unit_factorization_check(monoid)


class TestLocalDivisor:
    def test_absorbing_at_zero(self):
        ld = local_divisor(ABSORBING, 1)
        assert ld.carrier == (1,)
        assert ld.divisor.size == 1

    def test_at_identity_is_whole_monoid(self):
        ld = local_divisor(ABSORBING, 0)
        assert ld.carrier == (0, 1)
        assert ld.divisor == ABSORBING

    def test_ab_star_at_a_matches_brute_force(self):
        monoid, hom, _ = syntactic("(ab)*")
        c = hom.image_of("a")
        ld = local_divisor(monoid, c)
        # oracle: enumerate cM and Mc, intersect, build the product through
        # an explicit representative search
        n = monoid.size
        cM = {monoid.mul(c, y) for y in range(n)}
        Mc = {monoid.mul(x, c) for x in range(n)}
        carrier = tuple(sorted(cM & Mc))
        assert ld.carrier == carrier
        assert len(carrier) < n
        for u in carrier:
            for v in carrier:
                x = next(x for x in range(n) if monoid.mul(x, c) == u)
                expected = monoid.mul(x, v)
                assert ld.to_base(ld.divisor.mul(ld.from_base(u), ld.from_base(v))) == expected
        assert is_aperiodic(ld.divisor) is None

    def test_well_definedness_audit_fires_on_corrupt_table(self):
        with pytest.raises(MonoidError, match="not well-defined"):
            local_divisor(CORRUPT, 1)

    def test_strict_shrink_for_all_corpus_monoids(self):
        for _, pattern, letters in APERIODIC_CORPUS:
            monoid, _, _ = syntactic(pattern, letters)
            for c in range(monoid.size):
                ld = local_divisor(monoid, c)
                assert ld.divisor.identity == ld.from_base(c)
                if c != monoid.identity:
                    assert len(ld.carrier) < monoid.size
                assert is_aperiodic(ld.divisor) is None

    def test_group_divisor_does_not_shrink(self):
        # precondition (aperiodicity) matters: no shrink assertion applies
        ld = local_divisor(Z2, 1)
        assert len(ld.carrier) == 2

    def test_element_out_of_range(self):
        with pytest.raises(MonoidError):
            local_divisor(ABSORBING, 7)


class TestImageSubmonoid:
    def test_empty_subalphabet(self):
        _, hom, _ = syntactic("(ab)*")
        assert hom.restrict(Alphabet(())).image == (hom.monoid.identity,)

    def test_full_alphabet_is_stored_image(self):
        _, hom, _ = syntactic("(ab)*")
        assert hom.restrict(hom.alphabet).image == hom.image

    def test_generated_by_b_is_closed(self):
        monoid, hom, _ = syntactic("(ab)*")
        sub = hom.restrict(Alphabet.of("b")).image
        b = hom.image_of("b")
        assert monoid.identity in sub and b in sub and monoid.mul(b, b) in sub
        for x in sub:
            for y in sub:
                assert monoid.mul(x, y) in sub

    def test_foreign_letter(self):
        _, hom, _ = syntactic("(ab)*")
        with pytest.raises(AlphabetError):
            hom.restrict(Alphabet.of("z")).image


class TestPsi:
    def test_identity_goes_to_c_squared(self):
        monoid, hom, _ = syntactic("(ab)*")
        pc = hom.image_of("a")
        assert _psi(monoid, pc, monoid.identity) == monoid.mul(pc, pc)

    def test_absorbing_case(self):
        assert _psi(ABSORBING, 1, 0) == 1

    def test_matches_word_evaluation(self):
        monoid, hom, _ = syntactic("(ab)*")
        b = hom.image_of("b")
        assert _psi(monoid, hom.image_of("a"), b) == hom.evaluate("aba")

    def test_homomorphism_property_exhaustive(self):
        # psi(s) ∘ psi(t) must equal phi(c) s phi(c) t phi(c), over T x T
        for _, pattern, letters in APERIODIC_CORPUS:
            monoid, hom, _ = syntactic(pattern, letters)
            one = monoid.identity
            for c in hom.alphabet:
                if hom.image_of(c) == one:
                    continue
                pc = hom.image_of(c)
                sub = hom.restrict(hom.alphabet.without(c)).image
                ld = local_divisor(monoid, pc)
                for s in sub:
                    for t in sub:
                        lhs = ld.divisor.mul(
                            ld.from_base(_psi(monoid, pc, s)),
                            ld.from_base(_psi(monoid, pc, t)),
                        )
                        direct = monoid.mul(
                            monoid.mul(monoid.mul(monoid.mul(pc, s), pc), t), pc
                        )
                        assert ld.to_base(lhs) == direct


class TestTableFormat:
    def test_round_trip(self):
        monoid, _, _ = syntactic("(ab)*")
        assert parse_monoid_table(format_monoid_table(monoid)) == monoid

    def test_header_errors(self):
        with pytest.raises(ParseError):
            parse_monoid_table("")
        with pytest.raises(ParseError):
            parse_monoid_table("2\n0 1\n1 0\n")
        with pytest.raises(ParseError):
            parse_monoid_table("2 0\n0 1\n")

    def test_row_width_checked(self):
        with pytest.raises(ParseError):
            parse_monoid_table("2 0\n0 1\n1\n")


# random transformation monoids: generated by 1-2 maps on up to 3 states
@st.composite
def transformation_monoids(draw):
    m = draw(st.integers(1, 3))
    n_gens = draw(st.integers(1, 2))
    gens = [
        tuple(draw(st.integers(0, m - 1)) for _ in range(m)) for _ in range(n_gens)
    ]
    ident = tuple(range(m))
    elems = [ident]
    pos = {ident: 0}
    for t in elems:
        for g in gens:
            u = tuple(g[t[s]] for s in range(m))
            if u not in pos:
                pos[u] = len(elems)
                elems.append(u)
    table = tuple(
        tuple(pos[tuple(ej[ei[s]] for s in range(m))] for ej in elems)
        for ei in elems
    )
    return table


@settings(max_examples=80, deadline=None)
@given(transformation_monoids())
def test_random_monoid_laws_and_divisors(table):
    monoid = validate_monoid(table, 0)
    witness = is_aperiodic(monoid)
    if witness is None:
        n = monoid.size
        for x in range(n):
            assert monoid.power(x, n) == monoid.power(x, n + 1)
        assert unit_factorization_check(monoid)
    else:
        assert witness.holds_in(monoid)
    for c in range(monoid.size):
        ld = local_divisor(monoid, c)
        assert ld.to_base(ld.divisor.identity) == c
        if witness is None and c != monoid.identity:
            assert len(ld.carrier) < monoid.size


def failing_triples(table):
    """Every triple (x, y, z) with (x*y)*z != x*(y*z), by exhaustion."""
    n = len(table)
    return [
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if table[table[x][y]][z] != table[x][table[y][z]]
    ]


@st.composite
def identity_law_tables(draw):
    """Tables with identity 0 that obey the identity law: a transformation
    monoid with up to two entries overwritten, or all entries drawn."""
    if draw(st.booleans()):
        table = [list(row) for row in draw(transformation_monoids())]
        n = len(table)
        if n > 1:
            for _ in range(draw(st.integers(0, 2))):
                x, y = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
                table[x][y] = draw(st.integers(0, n - 1))
    else:
        n = draw(st.integers(1, 5))
        table = [
            [y if x == 0 else x if y == 0 else draw(st.integers(0, n - 1)) for y in range(n)]
            for x in range(n)
        ]
    return table


@settings(max_examples=300, deadline=None)
@given(identity_law_tables())
def test_light_test_agrees_with_exhaustive_check(table):
    failing = failing_triples(table)
    if not failing:
        assert validate_monoid(table, 0).table == tuple(map(tuple, table))
        return
    with pytest.raises(MonoidError) as raised:
        validate_monoid(table, 0)
    message = str(raised.value)
    found = re.fullmatch(
        r"not associative: \(\((\d+)\*(\d+)\)\*(\d+)\) = (\d+) but "
        r"\((\d+)\*\((\d+)\*(\d+)\)\) = (\d+)",
        message,
    )
    assert found, message
    x, y, z, left, x2, y2, z2, right = map(int, found.groups())
    assert (x, y, z) == (x2, y2, z2) and (x, y, z) in failing
    assert left == table[table[x][y]][z] and right == table[x][table[y][z]]


@st.composite
def state_maps(draw):
    """A map on 1-40 states: arbitrary, or a permutation with some states
    sent into it, so that long cycles and long tails both occur."""
    m = draw(st.integers(1, 40))
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)))
    cycle = draw(st.integers(1, m))
    perm = draw(st.permutations(range(cycle)))
    tail = [draw(st.integers(0, s - 1)) for s in range(cycle, m)]
    return tuple(perm) + tuple(tail)


@settings(max_examples=300, deadline=None)
@given(state_maps())
def test_squaring_check_agrees_with_power_shape(t):
    index, period = _power_shape(t)
    witness = _first_periodic([t], _compose, len(t), [t].__getitem__)
    if period >= 2:
        assert witness == AperiodicityWitness(element=0, index=index, period=period)
    else:
        assert witness is None
    # the table of the monoid that the powers of t generate, by brute force:
    # the identity map, then t, t^2, ... until a power repeats; a few
    # permutations have hundreds of powers, and their tables are skipped
    elems = [tuple(range(len(t)))]
    while (power := tuple(t[s] for s in elems[-1])) not in elems and len(elems) <= 128:
        elems.append(power)
    if power not in elems:
        return
    pos = {u: i for i, u in enumerate(elems)}
    table = [[pos[tuple(v[s] for s in u)] for v in elems] for u in elems]
    expected = None if period == 1 else AperiodicityWitness(element=1, index=index, period=period)
    assert is_aperiodic(FiniteMonoid(table, 0)) == expected
