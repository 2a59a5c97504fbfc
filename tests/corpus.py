"""Shared test corpus, independent brute-force oracles, and the helpers
that only tests need.

The oracles here deliberately avoid the library's DFA pipeline: the regex
matcher works by structural recursion on the AST with explicit word splits,
and the DFA of a homomorphism is built by its own breadth-first search, so
they can cross-check the automata constructions.
"""

import importlib.util
from functools import reduce
from itertools import product
from pathlib import Path

from hypothesis import strategies as st

from sfree import automata, regex as rx
from sfree.automata import Alphabet, Dfa
from sfree.errors import MonoidError
from sfree.regex import parse_regex, regex_to_dfa
from sfree.sfexpr import ALL, Concat, Difference, Empty, Epsilon, Letter, Union, _fold

def _load_reference():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ``perfbench/reference.py``, a DFA toolkit that shares no code with the
#: library: textbook languages, its own minimization and an expression
#: evaluator.
reference = _load_reference()

# name, pattern, alphabet letters.  All syntactic monoids have size <= 10.
APERIODIC_CORPUS = [
    ("all", "(a|b)*", "ab"),
    ("empty", "#", "ab"),
    ("just-epsilon", "_", "ab"),
    ("just-a", "a", "ab"),
    ("a-then-anything", "a(a|b)*", "ab"),
    ("contains-a", "(a|b)*a(a|b)*", "ab"),
    ("b-free", "a*", "ab"),  # proper subalphabet language
    ("ab-repeats", "(ab)*", "ab"),
    ("no-aa-factor", "(b|ab)*(a|_)", "ab"),
    ("ends-in-ab", "(a|b)*ab", "ab"),
    ("c-free", "(a|b)*", "abc"),
]

NON_APERIODIC = [
    ("even-length-of-a", "(aa)*", "a"),
    ("length-multiple-of-3", "(aaa)*", "a"),
    ("even-number-of-a", "(b|ab*a)*", "ab"),
]


def corpus_dfa(pattern, letters):
    alphabet = Alphabet.of(letters)
    return regex_to_dfa(parse_regex(pattern, alphabet), alphabet), alphabet


def count_crawls(monkeypatch):
    """The start states of every ``_crawl`` call made from now on in the
    test, under both names the package calls it by."""
    calls = []
    crawl = automata._crawl

    def counted(alphabet, start, successors, final):
        calls.append(start)
        return crawl(alphabet, start, successors, final)

    monkeypatch.setattr(automata, "_crawl", counted)
    monkeypatch.setattr(rx, "_crawl", counted)
    return calls


def subterms(*roots):
    """Every node reachable from the roots, once per object."""
    seen, stack = {}, list(roots)
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            if isinstance(n, (Union, Difference, Concat)):
                stack += [n.left, n.right]
    return list(seen.values())


def words_upto(letters, maxlen):
    """All words over the letters, lengths 0..maxlen, length-lex order."""
    out = []
    for n in range(maxlen + 1):
        out.extend(product(tuple(letters), repeat=n))
    return out


_MATCH_CACHE = {}


def naive_match(node, word):
    """Regex semantics by brute force, independent of any automaton.

    Union tries both sides, concatenation tries every split, iteration
    tries every nonempty first chunk."""
    word = tuple(word)
    key = (node, word)
    hit = _MATCH_CACHE.get(key)
    if hit is not None:
        return hit
    if isinstance(node, rx.Empty):
        out = False
    elif isinstance(node, rx.Epsilon):
        out = word == ()
    elif isinstance(node, rx.Letter):
        out = word == (node.letter,)
    elif isinstance(node, rx.Union):
        out = naive_match(node.left, word) or naive_match(node.right, word)
    elif isinstance(node, rx.Concat):
        out = any(
            naive_match(node.left, word[:i]) and naive_match(node.right, word[i:])
            for i in range(len(word) + 1)
        )
    elif isinstance(node, rx.Star):
        out = word == () or any(
            naive_match(node.inner, word[:i]) and naive_match(node, word[i:])
            for i in range(1, len(word) + 1)
        )
    else:
        raise TypeError(node)
    _MATCH_CACHE[key] = out
    return out


def dfa_from_homomorphism(h, targets):
    """DFA accepting exactly the words whose image under ``h`` lies in
    ``targets``.  Its states are the monoid elements reachable from the
    identity by right multiplication with letter images, numbered
    breadth-first with letters in alphabet order."""
    monoid = h.monoid
    targets = frozenset(targets)
    for t in targets:
        if type(t) is not int or not 0 <= t < monoid.size:  # a bool is no element
            raise MonoidError(f"target {t!r} is not a monoid element")
    order, pos, rows = [monoid.identity], {monoid.identity: 0}, []
    for x in order:
        row = []
        for g in h.letter_image:
            y = monoid.table[x][g]
            if y not in pos:
                pos[y] = len(order)
                order.append(y)
            row.append(pos[y])
        rows.append(tuple(row))
    return Dfa(h.alphabet, tuple(rows), 0, frozenset(pos[t] for t in targets if t in pos))


def desugar(e, alphabet):
    """Rewrite Empty/Epsilon into the five core constructors."""
    empty_core = Difference(ALL, ALL)
    nonempty = [Concat(Concat(ALL, Letter(a)), ALL) for a in alphabet]
    epsilon_core = Difference(ALL, reduce(Union, nonempty) if nonempty else empty_core)

    def leaf(n):
        if isinstance(n, Empty):
            return empty_core
        if isinstance(n, Epsilon):
            return epsilon_core
        return n

    return _fold(e, leaf)


def dfa_to_dict(d):
    """The DFA file format's JSON object for ``d``."""
    return {
        "alphabet": list(d.alphabet.letters),
        "states": d.n_states,
        "initial": d.initial,
        "accepting": sorted(d.accepting),
        "delta": [list(row) for row in d.transitions],
    }


def format_monoid_table(monoid):
    """The monoid table file text for ``monoid``."""
    lines = [f"{monoid.size} {monoid.identity}"]
    lines.extend(" ".join(str(x) for x in row) for row in monoid.table)
    return "\n".join(lines) + "\n"


# JSON-shaped values for fuzzing the DFA file format, with the format's keys
# common among the object keys
DFA_KEYS = ("alphabet", "states", "initial", "accepting", "delta")
json_scalars = (
    st.none() | st.booleans() | st.integers(-1, 3) | st.integers() | st.floats()
    | st.text(max_size=3)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(DFA_KEYS) | st.text(max_size=3), inner, max_size=6),
    max_leaves=12,
)


@st.composite
def perturbed_dfa_objects(draw):
    """A well-formed DFA object over ``ab`` with one field, or one entry of
    a list field or of a ``delta`` row, replaced by an arbitrary JSON value."""
    m = draw(st.integers(1, 3))
    obj = {
        "alphabet": ["a", "b"],
        "states": m,
        "initial": draw(st.integers(0, m - 1)),
        "accepting": sorted(draw(st.frozensets(st.integers(0, m - 1)))),
        "delta": [[draw(st.integers(0, m - 1)) for _ in "ab"] for _ in range(m)],
    }
    key = draw(st.sampled_from(DFA_KEYS))
    value = draw(json_scalars | json_values)
    target = obj[key]
    if key == "delta" and draw(st.booleans()):
        target = draw(st.sampled_from(target))
    if isinstance(target, list) and target and draw(st.booleans()):
        target[draw(st.integers(0, len(target) - 1))] = value
    else:
        obj[key] = value
    return obj


dfa_objects = json_values | perturbed_dfa_objects()
