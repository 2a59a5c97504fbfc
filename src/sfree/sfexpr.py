"""Star-free expressions: an AST over an abstract alphabet, evaluation to
DFAs, the pumping threshold, simplification, and a textual grammar.

Core constructors are ``All`` (all words), single-letter languages, union,
set difference, and concatenation; there is deliberately no iteration
operator.  ``Empty`` and ``Epsilon`` are first-class sugar with fixed
desugarings into the core constructors.

Expression letters are opaque tokens, so the same AST works for concrete
alphabets and for alphabets of monoid-element tokens.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import reduce

from .automata import (
    Alphabet,
    Dfa,
    dfa_combine,
    dfa_equivalent,
    empty_dfa,
    epsilon_dfa,
    letter_dfa,
    universal_dfa,
)
from .errors import MAX_NESTING, AlphabetError, ParseError, SfreeError


class SfExpr:
    """Base class for star-free expression nodes.

    Nodes are immutable; equality is structural.  Hashes are cached per node
    so that the large, heavily shared trees produced by synthesis stay cheap
    to memoize."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SfExpr):
            return NotImplemented
        if other.__class__ is not self.__class__:
            return False
        if hash(self) != hash(other):
            return False
        return self._fields() == other._fields()

    def __hash__(self):
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            h = hash((self.__class__.__name__, self._fields()))
            object.__setattr__(self, "_hash", h)
            return h


@dataclass(frozen=True, eq=False)
class All(SfExpr):
    """Every word over the binding alphabet."""


@dataclass(frozen=True, eq=False)
class Letter(SfExpr):
    """The singleton language of one letter token."""

    symbol: str


@dataclass(frozen=True, eq=False)
class Union(SfExpr):
    left: SfExpr
    right: SfExpr


@dataclass(frozen=True, eq=False)
class Difference(SfExpr):
    left: SfExpr
    right: SfExpr


@dataclass(frozen=True, eq=False)
class Concat(SfExpr):
    left: SfExpr
    right: SfExpr


@dataclass(frozen=True, eq=False)
class Empty(SfExpr):
    """Sugar for the empty language; desugars to All \\ All."""


@dataclass(frozen=True, eq=False)
class Epsilon(SfExpr):
    """Sugar for {empty word}; desugars to All minus every word containing
    at least one letter."""


ALL = All()
EMPTY = Empty()
EPSILON = Epsilon()


def expr_letters(e: SfExpr) -> frozenset[str]:
    """All letter tokens occurring in the expression."""
    seen: set[SfExpr] = set()
    letters: set[str] = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        if isinstance(n, Letter):
            letters.add(n.symbol)
        elif isinstance(n, (Union, Difference, Concat)):
            stack.append(n.left)
            stack.append(n.right)
    return frozenset(letters)


def _fold(e: SfExpr, leaf, node=None):
    """The one memoized bottom-up walk over an expression.

    Atoms map to ``leaf(n)``; a binary node maps to ``node(n, left, right)``
    on its children's results, or, when ``node`` is omitted, is rebuilt as
    ``n.__class__(left, right)``.  Each distinct subtree (by structural
    equality) is visited once, so shared DAGs cost their size, not their
    tree size."""
    memo: dict = {}

    def go(n):
        out = memo.get(n)
        if out is None:
            if isinstance(n, (Union, Difference, Concat)):
                left, right = go(n.left), go(n.right)
                out = n.__class__(left, right) if node is None else node(n, left, right)
            else:
                out = leaf(n)
            memo[n] = out
        return out

    return go(e)


def desugar(e: SfExpr, alphabet: Alphabet) -> SfExpr:
    """Rewrite Empty/Epsilon into the five core constructors."""
    empty_core = Difference(ALL, ALL)
    nonempty = [Concat(Concat(ALL, Letter(a)), ALL) for a in alphabet]
    epsilon_core = Difference(ALL, reduce(Union, nonempty) if nonempty else empty_core)

    def leaf(n: SfExpr) -> SfExpr:
        if isinstance(n, Empty):
            return empty_core
        if isinstance(n, Epsilon):
            return epsilon_core
        return n

    return _fold(e, leaf)


def eval_expr(e: SfExpr, alphabet: Alphabet) -> Dfa:
    """Minimal DFA of the denoted language over ``alphabet``.

    Sugar nodes are mapped directly to their languages (the desugared forms
    evaluate to the same languages; tests assert this)."""

    def leaf(n: SfExpr) -> Dfa:
        if isinstance(n, All):
            return universal_dfa(alphabet)
        if isinstance(n, Empty):
            return empty_dfa(alphabet)
        if isinstance(n, Epsilon):
            return epsilon_dfa(alphabet)
        if isinstance(n, Letter):
            return letter_dfa(alphabet, n.symbol)
        raise TypeError(f"not an expression node: {n!r}")

    def node(n: SfExpr, left: Dfa, right: Dfa) -> Dfa:
        if isinstance(n, Union):
            return dfa_combine("union", left, right)
        if isinstance(n, Difference):
            return dfa_combine("difference", left, right)
        return dfa_combine("concatenation", left, right)

    return _fold(e, leaf, node)


@dataclass(frozen=True)
class SfMetrics:
    node_count: int
    concat_depth: int
    n_bound: int


def metrics(e: SfExpr) -> SfMetrics:
    """Size measures of the expression, in one walk: nodes of the expression
    read as a tree, maximum nesting depth of concatenation nodes, and the
    pumping threshold :func:`n_bound`."""

    def leaf(n: SfExpr) -> tuple[int, int, int]:
        if isinstance(n, (All, Empty)):
            return 1, 0, 0
        if isinstance(n, Letter):
            return 1, 0, 2
        if isinstance(n, Epsilon):
            return 1, 0, 4
        raise TypeError(f"not an expression node: {n!r}")

    def node(n: SfExpr, left: tuple, right: tuple) -> tuple[int, int, int]:
        if isinstance(n, Concat):
            return (
                1 + left[0] + right[0],
                1 + max(left[1], right[1]),
                left[2] + right[2] + 1,
            )
        return 1 + left[0] + right[0], max(left[1], right[1]), max(left[2], right[2])

    return SfMetrics(*_fold(e, leaf, node))


def n_bound(e: SfExpr) -> int:
    """Pumping threshold: with n = n_bound(e), membership of p u^k q in the
    denoted language is the same for every k >= n.

    Computed by the recursion n(All) = 0, n(letter) = 2, max over union and
    difference, and n(K.K') = n(K) + n(K') + 1, applied to the desugared
    tree (so Empty contributes 0 and Epsilon 4)."""
    return metrics(e).n_bound


def simplify(e: SfExpr, *, alphabet: Alphabet | None = None, verify: bool = False) -> SfExpr:
    """Language-preserving local rewrites for output size control.

    Applied bottom-up: X \\ X and Empty \\ X collapse to Empty, X \\ Empty to
    X; unions drop Empty operands and duplicates; concatenations with Empty
    collapse to Empty and Epsilon factors are dropped.  With ``verify`` set
    (requires ``alphabet``), the result is checked language-equal to the
    input by DFA equivalence, and a mismatch raises :class:`SfreeError`."""

    def node(n: SfExpr, left: SfExpr, right: SfExpr) -> SfExpr:
        if isinstance(n, Union):
            if isinstance(left, Empty):
                return right
            if isinstance(right, Empty) or left == right:
                return left
            return Union(left, right)
        if isinstance(n, Difference):
            if isinstance(left, Empty) or left == right:
                return EMPTY
            if isinstance(right, Empty):
                return left
            return Difference(left, right)
        if isinstance(left, Empty) or isinstance(right, Empty):
            return EMPTY
        if isinstance(left, Epsilon):
            return right
        if isinstance(right, Epsilon):
            return left
        return Concat(left, right)

    result = _fold(e, lambda n: n, node)
    if verify:
        if alphabet is None:
            raise ValueError("verification requires an alphabet")
        if not dfa_equivalent(eval_expr(e, alphabet), eval_expr(result, alphabet)):
            raise SfreeError("simplify changed the language")
    return result


# ---------------------------------------------------------------------------
# textual grammar: atoms ALL / EMPTY / EPS, single-character letters, quoted
# multi-character letters 'tok'; operators '.' (concat) then '\' and '|'
# (same precedence, left-associative); parentheses group.

_KEYWORDS = {"ALL": ALL, "EMPTY": EMPTY, "EPS": EPSILON}
_PUNCT = ".\\|()"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            out.append(("punct", ch, i))
            i += 1
            continue
        if ch == "'":
            j = text.find("'", i + 1)
            if j < 0:
                raise ParseError("unterminated quoted letter", i)
            tok = text[i + 1 : j]
            if not tok:
                raise ParseError("empty quoted letter", i)
            out.append(("letter", tok, i))
            i = j + 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                out.append(("keyword", word, i))
            elif len(word) == 1:
                out.append(("letter", word, i))
            else:
                raise ParseError(
                    f"multi-character letter {word!r} must be quoted", i
                )
            i = j
            continue
        if ch.isprintable():
            out.append(("letter", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return out


def parse_expr(text: str, alphabet: Alphabet | None = None) -> SfExpr:
    """Parse the textual grammar; with an alphabet, letters are validated.

    Parentheses may nest at most ``MAX_NESTING`` levels deep; deeper input
    raises :class:`ParseError`."""
    toks = _tokenize(text)
    k = 0
    depth = 0

    def peek():
        return toks[k] if k < len(toks) else None

    def parse_atom() -> SfExpr:
        nonlocal k, depth
        tok = peek()
        if tok is None:
            raise ParseError("expected an expression, found end of input", len(text))
        kind, val, pos = tok
        if kind == "punct" and val == "(":
            if depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_NESTING} levels", pos
                )
            depth += 1
            k += 1
            node = parse_sum()
            tok = peek()
            if tok is None or tok[1] != ")":
                raise ParseError("expected ')'", tok[2] if tok else len(text))
            k += 1
            depth -= 1
            return node
        if kind == "keyword":
            k += 1
            return _KEYWORDS[val]
        if kind == "letter":
            if alphabet is not None and val not in alphabet:
                raise ParseError(f"letter {val!r} not in alphabet", pos)
            k += 1
            return Letter(val)
        raise ParseError(f"unexpected {val!r}", pos)

    def parse_term() -> SfExpr:
        nonlocal k
        node = parse_atom()
        while True:
            tok = peek()
            if tok is None or tok[1] != ".":
                return node
            k += 1
            node = Concat(node, parse_atom())

    def parse_sum() -> SfExpr:
        nonlocal k
        node = parse_term()
        while True:
            tok = peek()
            if tok is None or tok[1] not in ("|", "\\"):
                return node
            k += 1
            right = parse_term()
            node = Union(node, right) if tok[1] == "|" else Difference(node, right)

    node = parse_sum()
    tok = peek()
    if tok is not None:
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])
    return node


def _render_letter(symbol: str) -> str:
    if (
        len(symbol) == 1
        and symbol not in _PUNCT
        and symbol != "'"
        and not symbol.isspace()
    ):
        return symbol
    if "'" in symbol:
        raise AlphabetError(f"letter {symbol!r} cannot be rendered (contains a quote)")
    return f"'{symbol}'"


def render_expr(e: SfExpr) -> str:
    """Text form that re-parses to a structurally equal expression.

    Parentheses are emitted whenever same-precedence operators mix, so the
    output is unambiguous to a reader as well as to the parser."""

    def leaf(n: SfExpr) -> tuple[str, int]:
        # precedence: 3 atom, 2 concat, 1 union/difference
        if isinstance(n, All):
            return "ALL", 3
        if isinstance(n, Empty):
            return "EMPTY", 3
        if isinstance(n, Epsilon):
            return "EPS", 3
        return _render_letter(n.symbol), 3

    def node(n: SfExpr, left: tuple[str, int], right: tuple[str, int]) -> tuple[str, int]:
        (lt, lp), (rt, rp) = left, right
        if isinstance(n, Concat):
            if lp < 2:
                lt = f"({lt})"
            if rp < 2 or isinstance(n.right, Concat):
                rt = f"({rt})"
            return f"{lt} . {rt}", 2
        op = " | " if isinstance(n, Union) else " \\ "
        if lp == 1 and n.left.__class__ is not n.__class__:
            lt = f"({lt})"
        if rp == 1:
            rt = f"({rt})"
        return f"{lt}{op}{rt}", 1

    return _fold(e, leaf, node)[0]
