"""Complete deterministic finite automata over explicit alphabets.

This is the semantic ground truth for every language in the package:
boolean combinations, concatenation, canonical minimization, equivalence
testing, and brute-force word enumeration all live here.

All values are immutable after construction and all operations are pure,
so everything may be shared freely between concurrent tasks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator

from .errors import AlphabetError, ParseError, SfreeError

#: A word is a tuple of letters.  Plain strings work too for single-character
#: alphabets, since iterating a string yields its characters.
Word = tuple[str, ...]

COMBINE_KINDS = ("union", "difference", "intersection", "concatenation")


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet of distinct letter tokens.

    The declared order matters: it drives canonical state numbering, word
    enumeration order, and the deterministic letter choice made by the
    synthesis recursion.
    """

    letters: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        for tok in self.letters:
            if not isinstance(tok, str) or not tok or not tok.isprintable():
                raise AlphabetError(f"letter {tok!r} is not a nonempty printable token")
        if len(set(self.letters)) != len(self.letters):
            raise AlphabetError(f"duplicate letters in {self.letters!r}")
        object.__setattr__(self, "_pos", {a: i for i, a in enumerate(self.letters)})

    @classmethod
    def of(cls, letters: str | Iterable[str]) -> "Alphabet":
        """Build an alphabet from a string of characters or any letter iterable."""
        return cls(tuple(letters))

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, letter: object) -> bool:
        return letter in self._pos  # type: ignore[attr-defined]

    def index(self, letter: str) -> int:
        try:
            return self._pos[letter]  # type: ignore[attr-defined]
        except KeyError:
            raise AlphabetError(
                f"letter {letter!r} not in alphabet {list(self.letters)!r}"
            ) from None

    def without(self, letter: str) -> "Alphabet":
        """The alphabet with one letter removed, order preserved."""
        self.index(letter)
        return Alphabet(tuple(a for a in self.letters if a != letter))


@dataclass(frozen=True)
class Dfa:
    """Complete DFA.  ``transitions[s][j]`` is the successor of state ``s`` on
    the ``j``-th alphabet letter; complementation is just flipping the
    accepting set."""

    alphabet: Alphabet
    transitions: tuple[tuple[int, ...], ...]
    initial: int
    accepting: frozenset[int]

    #: Set on the results of :func:`dfa_minimize`, which returns such a DFA
    #: unchanged.  Not a field: it takes no part in equality or hashing.
    _minimal = False

    def __post_init__(self):
        object.__setattr__(
            self, "transitions", tuple(tuple(row) for row in self.transitions)
        )
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        m = len(self.transitions)
        if m == 0:
            raise ValueError("a DFA needs at least one state")
        k = len(self.alphabet)
        for s, row in enumerate(self.transitions):
            if len(row) != k:
                raise ValueError(
                    f"state {s}: transition row has {len(row)} entries, expected {k}"
                )
            for t in row:
                if type(t) is not int or not 0 <= t < m:  # _is_int, inlined: hot path
                    raise ValueError(f"state {s}: successor {t!r} out of range")
        if not _is_int(self.initial) or not 0 <= self.initial < m:
            raise ValueError(f"initial state {self.initial!r} is not one of 0..{m - 1}")
        for s in self.accepting:
            if not _is_int(s) or not 0 <= s < m:
                raise ValueError(f"accepting state {s!r} is not one of 0..{m - 1}")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def run(self, word: Iterable[str]) -> int:
        """State reached from the initial state after reading ``word``."""
        s = self.initial
        for a in word:
            s = self.transitions[s][self.alphabet.index(a)]
        return s

    def accepts(self, word: Iterable[str]) -> bool:
        return self.run(word) in self.accepting


def words(alphabet: Alphabet, maxlen: int) -> Iterator[Word]:
    """All words over ``alphabet`` of length <= maxlen, in length-lexicographic
    order (using the alphabet's declared letter order)."""
    for n in range(maxlen + 1):
        yield from product(alphabet.letters, repeat=n)


def enumerate_members(d: Dfa, maxlen: int) -> list[Word]:
    """All accepted words of length <= maxlen, in the order of :func:`words`."""
    return [w for w in words(d.alphabet, maxlen) if d.accepts(w)]


# ---------------------------------------------------------------------------
# canonical minimization


def dfa_minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA for the same language.

    Unreachable states are dropped, equivalent states merged (Hopcroft's
    partition refinement, time O(k·m·log m) for m states and k letters),
    and the result is renumbered breadth-first from the initial state with
    letters in alphabet order.  The numbering makes the result
    canonical: two language-equal DFAs minimize to structurally identical
    values.  A result of this function is returned unchanged when passed in
    again.
    """
    if d._minimal:
        return d
    reach = _crawl(
        d.alphabet, d.initial, d.transitions.__getitem__, d.accepting.__contains__
    )
    trans, acc, m = reach.transitions, reach.accepting, reach.n_states

    block, n_classes = _hopcroft(trans, acc, len(d.alphabet))

    # quotient automaton, renumbered canonically
    btrans: list[tuple[int, ...] | None] = [None] * n_classes
    for s in range(m):
        b = block[s]
        if btrans[b] is None:
            btrans[b] = tuple(block[t] for t in trans[s])
    bacc = {block[s] for s in acc}
    out = _crawl(d.alphabet, block[0], btrans.__getitem__, bacc.__contains__)
    if out.n_states != n_classes:
        raise SfreeError("quotient of a reachable DFA is reachable")
    object.__setattr__(out, "_minimal", True)
    return out


def _hopcroft(
    trans: tuple[tuple[int, ...], ...], acc: frozenset[int], k: int
) -> tuple[list[int], int]:
    """The class of each state under language equivalence, and the number of
    classes, for the complete DFA ``trans`` with accepting set ``acc`` over
    ``k`` letters.

    Hopcroft's refinement: a pending block splits every block that has
    states both with and without a successor in it on some letter.  Of each
    split, only the smaller half is queued as a new splitter; the larger one
    keeps the old block's number and its place in the queue, if any.  A
    split costs the size of its smaller half, so each state is moved at most
    log2(m) times."""
    m = len(trans)
    final = [s for s in range(m) if s in acc]
    if not final or len(final) == m:
        return [0] * m, 1
    members = [set(range(m)).difference(final), set(final)]
    block = [0] * m
    for s in final:
        block[s] = 1
    pending = [0 if len(members[0]) <= len(members[1]) else 1]
    preds = [[[] for _ in range(m)] for _ in range(k)]
    for s, row in enumerate(trans):
        for j, t in enumerate(row):
            preds[j][t].append(s)
    while pending:
        splitter = tuple(members[pending.pop()])
        for into in preds:
            hits: dict[int, list[int]] = {}
            for t in splitter:
                for s in into[t]:
                    hits.setdefault(block[s], []).append(s)
            for c, hit in hits.items():
                whole = members[c]
                if len(hit) == len(whole):
                    continue
                if 2 * len(hit) <= len(whole):
                    small = set(hit)
                    whole -= small
                else:
                    small = whole.difference(hit)
                    members[c] = set(hit)
                b = len(members)
                members.append(small)
                for s in small:
                    block[s] = b
                pending.append(b)
    return block, len(members)


def _require_same_alphabet(d1: Dfa, d2: Dfa) -> None:
    if d1.alphabet != d2.alphabet:
        raise AlphabetError(
            f"alphabet mismatch: {list(d1.alphabet.letters)!r} vs "
            f"{list(d2.alphabet.letters)!r}"
        )


def dfa_equivalent(d1: Dfa, d2: Dfa) -> bool:
    """True iff both DFAs accept the same language, that is iff their
    canonical minimal DFAs are equal."""
    _require_same_alphabet(d1, d2)
    return dfa_minimize(d1) == dfa_minimize(d2)


# ---------------------------------------------------------------------------
# combinators


def _crawl(
    alphabet: Alphabet,
    start,
    successors: Callable,
    final: Callable,
) -> Dfa:
    """Explore an implicitly given deterministic state space breadth-first
    from ``start``.  ``successors(state)`` yields the next states in alphabet
    order and ``final(state)`` tells whether a state accepts.  States are
    numbered in order of discovery, so every state of the result is
    reachable."""
    order = [start]
    pos = {start: 0}
    rows = []
    for state in order:
        row = []
        for nxt in successors(state):
            i = pos.get(nxt)
            if i is None:
                i = pos[nxt] = len(order)
                order.append(nxt)
            row.append(i)
        rows.append(tuple(row))
    acc = frozenset(i for i, state in enumerate(order) if final(state))
    return Dfa(alphabet, tuple(rows), 0, acc)


def _product(d1: Dfa, d2: Dfa, keep: Callable[[bool, bool], bool]) -> Dfa:
    t1, t2 = d1.transitions, d2.transitions
    return _crawl(
        d1.alphabet,
        (d1.initial, d2.initial),
        lambda pair: zip(t1[pair[0]], t2[pair[1]]),
        lambda pair: keep(pair[0] in d1.accepting, pair[1] in d2.accepting),
    )


def _concatenate(d1: Dfa, d2: Dfa) -> Dfa:
    # Subset construction on the fly.  A state is the pair (state of d1, set
    # of d2 states): d1 reads the whole word so far, and d2 reads each suffix
    # that starts where a prefix was accepted by d1.
    t1, t2, acc1, i2 = d1.transitions, d2.transitions, d1.accepting, d2.initial

    def enter(s, tracked):
        return (s, tracked | {i2}) if s in acc1 else (s, tracked)

    def successors(state):
        s, tracked = state
        for j, t in enumerate(t1[s]):
            yield enter(t, frozenset(t2[q][j] for q in tracked))

    return _crawl(
        d1.alphabet,
        enter(d1.initial, frozenset()),
        successors,
        lambda state: not d2.accepting.isdisjoint(state[1]),
    )


def dfa_combine(kind: str, d1: Dfa, d2: Dfa) -> Dfa:
    """Language operation on two DFAs over the same alphabet.

    ``kind`` is one of ``union``, ``difference``, ``intersection``,
    ``concatenation``.  The result is minimized (canonically)."""
    _require_same_alphabet(d1, d2)
    if kind == "union":
        out = _product(d1, d2, lambda x, y: x or y)
    elif kind == "difference":
        out = _product(d1, d2, lambda x, y: x and not y)
    elif kind == "intersection":
        out = _product(d1, d2, lambda x, y: x and y)
    elif kind == "concatenation":
        out = _concatenate(d1, d2)
    else:
        raise ValueError(f"unknown combine kind {kind!r}; expected one of {COMBINE_KINDS}")
    return dfa_minimize(out)


# ---------------------------------------------------------------------------
# small factories


def universal_dfa(alphabet: Alphabet) -> Dfa:
    """Accepts every word."""
    k = len(alphabet)
    return Dfa(alphabet, ((0,) * k,), 0, frozenset({0}))


def empty_dfa(alphabet: Alphabet) -> Dfa:
    """Accepts nothing."""
    k = len(alphabet)
    return Dfa(alphabet, ((0,) * k,), 0, frozenset())


def epsilon_dfa(alphabet: Alphabet) -> Dfa:
    """Accepts exactly the empty word."""
    k = len(alphabet)
    if k == 0:
        return Dfa(alphabet, ((),), 0, frozenset({0}))
    return Dfa(alphabet, ((1,) * k, (1,) * k), 0, frozenset({0}))


def letter_dfa(alphabet: Alphabet, letter: str) -> Dfa:
    """Accepts exactly the one-letter word ``letter``."""
    j = alphabet.index(letter)
    k = len(alphabet)
    row0 = tuple(1 if i == j else 2 for i in range(k))
    sink = (2,) * k
    return Dfa(alphabet, (row0, sink, sink), 0, frozenset({1}))


# ---------------------------------------------------------------------------
# JSON file format


def _is_int(value) -> bool:
    """Whether ``value`` may serve as an index: an int, and not a bool
    (``bool`` subclasses ``int``)."""
    return type(value) is int


def dfa_from_dict(obj) -> Dfa:
    if not isinstance(obj, dict):
        raise ParseError("DFA file must contain a JSON object")
    missing = {"alphabet", "states", "initial", "accepting", "delta"} - set(obj)
    if missing:
        raise ParseError(f"DFA object is missing keys: {sorted(missing)}")
    letters = obj["alphabet"]
    if not isinstance(letters, list):
        raise ParseError("'alphabet' must be a list of letters")
    alphabet = Alphabet(tuple(letters))
    m = obj["states"]
    delta = obj["delta"]
    if not _is_int(m) or m < 1:
        raise ParseError("'states' must be a positive integer")
    if not isinstance(delta, list) or len(delta) != m:
        raise ParseError(f"'delta' must list one row per state ({m} rows)")
    for s, row in enumerate(delta):
        if not isinstance(row, list) or len(row) != len(letters):
            raise ParseError(f"'delta' row {s} is not total over the alphabet")
        if not all(map(_is_int, row)):
            raise ParseError(f"'delta' row {s} holds a successor that is not an integer")
    if not _is_int(obj["initial"]):
        raise ParseError("'initial' must be an integer")
    accepting = obj["accepting"]
    if not isinstance(accepting, list) or not all(map(_is_int, accepting)):
        raise ParseError("'accepting' must be a list of integers")
    try:
        return Dfa(
            alphabet,
            tuple(tuple(row) for row in delta),
            obj["initial"],
            frozenset(accepting),
        )
    except ValueError as exc:
        raise ParseError(f"invalid DFA object: {exc}") from exc


def load_dfa(path) -> Dfa:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # undecodable bytes, bad JSON, or an overlong number
            raise ParseError(f"DFA file is not UTF-8 JSON: {exc}") from exc
    return dfa_from_dict(obj)
