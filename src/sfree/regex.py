"""Regular-expression front end: parsing and DFA compilation.

Grammar: single-character letters from the declared alphabet, ``_`` for the
empty word, ``#`` for the empty set, juxtaposition for concatenation, ``|``
for union, postfix ``*`` for iteration, parentheses for grouping.
Precedence: star > concatenation > union.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Alphabet, Dfa, _crawl, _quotient
from .errors import MAX_NESTING, ParseError

RESERVED = "|*()_#"


class Regex:
    """Base class for regular-expression AST nodes."""


@dataclass(frozen=True)
class Empty(Regex):
    pass


@dataclass(frozen=True)
class Epsilon(Regex):
    pass


@dataclass(frozen=True)
class Letter(Regex):
    letter: str


@dataclass(frozen=True)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex


def parse_regex(text: str, alphabet: Alphabet) -> Regex:
    """Parse ``text`` into an AST; deterministic, with positions in errors.

    Parentheses may nest at most ``MAX_NESTING`` levels deep; deeper input
    raises :class:`ParseError`."""
    i = 0
    n = len(text)
    depth = 0

    def peek() -> str | None:
        return text[i] if i < n else None

    def atom_follows() -> bool:
        ch = peek()
        return ch is not None and ch not in ")|*"

    def parse_atom() -> Regex:
        nonlocal i, depth
        ch = peek()
        if ch is None:
            raise ParseError("expected an expression, found end of input", i)
        if ch == "(":
            if depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_NESTING} levels", i
                )
            depth += 1
            i += 1
            node = parse_union()
            if peek() != ")":
                raise ParseError("expected ')'", i)
            i += 1
            depth -= 1
            return node
        if ch == "_":
            i += 1
            return Epsilon()
        if ch == "#":
            i += 1
            return Empty()
        if ch in ")|*":
            raise ParseError(f"unexpected {ch!r}", i)
        if ch not in alphabet:
            raise ParseError(f"letter {ch!r} not in alphabet", i)
        i += 1
        return Letter(ch)

    def parse_postfix() -> Regex:
        nonlocal i
        node = parse_atom()
        while peek() == "*":
            i += 1
            node = Star(node)
        return node

    def parse_concat() -> Regex:
        node = parse_postfix()
        while atom_follows():
            node = Concat(node, parse_postfix())
        return node

    def parse_union() -> Regex:
        nonlocal i
        node = parse_concat()
        while peek() == "|":
            i += 1
            node = Union(node, parse_concat())
        return node

    node = parse_union()
    if i != n:
        raise ParseError(f"unexpected {text[i]!r}", i)
    return node


def _bits(x: int):
    """The indices of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _positions(r: Regex, alphabet: Alphabet):
    """Position-automaton data of ``r``, with sets of positions as int
    bitsets.

    A position is a letter occurrence, or one letter class: a ``Union``
    whose two children are each a letter or such a class is one position
    that carries several letters, so ``(b|c|d)`` has one position, not
    three.  Returns ``(masks, follow, first, last, nullable)``: for each
    alphabet letter the set of positions that carry it, the positions that
    may follow each one, the positions that may start and end a word, and
    whether the empty word matches.  The walk is post-order over an explicit
    stack, so AST depth is unbounded."""
    # the letters of each position, as a bitset over alphabet indices
    carried: list[int] = []
    follow: list[int] = []
    # value stack of (nullable, first, last, is a class), one entry per
    # finished subtree
    done: list[tuple[bool, int, int, bool]] = []
    todo: list[tuple[Regex, bool]] = [(r, False)]
    while todo:
        node, children_done = todo.pop()
        if isinstance(node, Letter):
            p = 1 << len(carried)
            carried.append(1 << alphabet.index(node.letter))
            follow.append(0)
            done.append((False, p, p, True))
        elif isinstance(node, Empty):
            done.append((False, 0, 0, False))
        elif isinstance(node, Epsilon):
            done.append((True, 0, 0, False))
        elif not children_done:
            if not isinstance(node, (Star, Union, Concat)):
                raise TypeError(f"not a regex node: {node!r}")
            todo.append((node, True))
            if isinstance(node, Star):
                todo.append((node.inner, False))
            else:
                todo.append((node.right, False))
                todo.append((node.left, False))
        elif isinstance(node, Star):
            _, first, last, _ = done.pop()
            for p in _bits(last):
                follow[p] |= first
            done.append((True, first, last, False))
        else:
            n2, f2, l2, c2 = done.pop()
            n1, f1, l1, c1 = done.pop()
            if isinstance(node, Union):
                if c1 and c2:
                    # each child is one position, the right one created
                    # last: fold it into the left one
                    follow.pop()
                    right = carried.pop()
                    carried[-1] |= right
                    done.append((False, f1, l1, True))
                else:
                    done.append((n1 or n2, f1 | f2, l1 | l2, False))
            else:
                for p in _bits(l1):
                    follow[p] |= f2
                done.append(
                    (n1 and n2, f1 | f2 if n1 else f1, l1 | l2 if n2 else l2, False)
                )
    nullable, first, last, _ = done.pop()
    masks = [0] * len(alphabet)
    for p, letters in enumerate(carried):
        for j in _bits(letters):
            masks[j] |= 1 << p
    return masks, follow, first, last, nullable


def regex_to_dfa(r: Regex, alphabet: Alphabet) -> Dfa:
    """Minimal complete DFA for the regex's language over ``alphabet``.

    Builds the position (Glushkov) automaton, determinizes it by one subset
    crawl and quotients the crawled DFA once.  A subset state is the bitset
    of positions the last letter read may stand at; the start state holds
    only a marker position, one past the real ones, that stands before the
    first letter and ends a word when the regex is nullable."""
    masks, follow, first, last, nullable = _positions(r, alphabet)
    start = 1 << len(follow)
    follow.append(first)
    if nullable:
        last |= start

    def successors(state: int) -> list[int]:
        nxt = 0
        for p in _bits(state):
            nxt |= follow[p]
        return [nxt & mask for mask in masks]

    return _quotient(_crawl(alphabet, start, successors, last.__and__))
