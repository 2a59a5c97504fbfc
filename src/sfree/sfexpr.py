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
import re
from dataclasses import dataclass

from .automata import (
    Alphabet,
    Dfa,
    dfa_combine,
    empty_dfa,
    epsilon_dfa,
    letter_dfa,
    universal_dfa,
)
from .errors import MAX_NESTING, AlphabetError, ParseError


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
    return _fold(
        e,
        lambda n: frozenset((n.symbol,)) if isinstance(n, Letter) else frozenset(),
        lambda n, left, right: left | right,
    )


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


def simplify(e: SfExpr) -> SfExpr:
    """Language-preserving local rewrites for output size control.

    Applied bottom-up: X \\ X and Empty \\ X collapse to Empty, X \\ Empty to
    X; unions drop Empty operands and duplicates; concatenations with Empty
    collapse to Empty and Epsilon factors are dropped."""

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

    return _fold(e, lambda n: n, node)


# ---------------------------------------------------------------------------
# textual grammar: atoms ALL / EMPTY / EPS, single-character letters, quoted
# multi-character letters 'tok'; operators '.' (concat) then '\' and '|'
# (same precedence, left-associative); parentheses group.

_KEYWORDS = {"ALL": ALL, "EMPTY": EMPTY, "EPS": EPSILON}
_PUNCT = ".\\|()"

# After optional whitespace, one token: punctuation, a quoted letter (group 4
# is empty when the closing quote is missing), a word, or any other character.
# ``\w`` and ``\s`` match exactly ``isalnum() or "_"`` and ``isspace()``; the
# last branch is ``\S``, not ``.``, so trailing whitespace is not a token.
_TOKEN = re.compile(r"\s*(([.\\|()])|'([^']*)('?)|(\w+)|(\S))")


def _scan(text: str):
    """Yield ``(kind, value, position)`` tokens, raising on the first bad one."""
    for m in _TOKEN.finditer(text):
        punct, quoted, closed, word, other = m.group(2, 3, 4, 5, 6)
        pos = m.start(1)
        if punct:
            yield "punct", punct, pos
        elif quoted is not None:
            if not closed:
                raise ParseError("unterminated quoted letter", pos)
            if not quoted:
                raise ParseError("empty quoted letter", pos)
            yield "letter", quoted, pos
        elif word:
            if word in _KEYWORDS:
                yield "keyword", word, pos
            elif len(word) == 1:
                yield "letter", word, pos
            else:
                raise ParseError(f"multi-character letter {word!r} must be quoted", pos)
        elif other.isprintable():
            yield "letter", other, pos
        else:
            raise ParseError(f"unexpected character {other!r}", pos)


def parse_expr(text: str, alphabet: Alphabet | None = None) -> SfExpr:
    """Parse the textual grammar; with an alphabet, letters are validated.

    Equal subexpressions come back as one object, so the result is the
    maximally shared DAG of the text and walks over it cost its DAG size.
    Parentheses may nest at most ``MAX_NESTING`` levels deep; deeper input
    raises :class:`ParseError`.  Of several errors, the leftmost is raised."""
    tokens = _scan(text)
    end = (None, None, len(text))
    tok = next(tokens, end)
    depth = 0
    # children are shared before their parent is built, so keying a node by
    # its children's identities finds every equal subexpression at once
    nodes: dict = {}

    def build(cls, left: SfExpr, right: SfExpr) -> SfExpr:
        key = (cls, id(left), id(right))
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = cls(left, right)
        return node

    def at(punct: str) -> bool:
        return tok[1] == punct and tok[0] == "punct"

    def parse_atom() -> SfExpr:
        nonlocal tok, depth
        kind, val, pos = tok
        if kind == "letter":
            if alphabet is not None and val not in alphabet:
                raise ParseError(f"letter {val!r} not in alphabet", pos)
            node = nodes.get(val)
            if node is None:
                node = nodes[val] = Letter(val)
        elif kind == "keyword":
            node = _KEYWORDS[val]
        elif val == "(":
            if depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING} levels", pos)
            depth += 1
            tok = next(tokens, end)
            node = parse_sum()
            if not at(")"):
                raise ParseError("expected ')'", tok[2])
            depth -= 1
        elif kind is None:
            raise ParseError("expected an expression, found end of input", pos)
        else:
            raise ParseError(f"unexpected {val!r}", pos)
        tok = next(tokens, end)
        return node

    def parse_term() -> SfExpr:
        nonlocal tok
        node = parse_atom()
        while at("."):
            tok = next(tokens, end)
            node = build(Concat, node, parse_atom())
        return node

    def parse_sum() -> SfExpr:
        nonlocal tok
        node = parse_term()
        while at("|") or at("\\"):
            cls = Union if tok[1] == "|" else Difference
            tok = next(tokens, end)
            node = build(cls, node, parse_term())
        return node

    node = parse_sum()
    if tok[0] is not None:
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
