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


def desugar(e: SfExpr, alphabet: Alphabet) -> SfExpr:
    """Rewrite Empty/Epsilon into the five core constructors."""
    empty_core = Difference(ALL, ALL)
    nonempty = [Concat(Concat(ALL, Letter(a)), ALL) for a in alphabet]
    epsilon_core = Difference(ALL, reduce(Union, nonempty) if nonempty else empty_core)
    memo: dict[SfExpr, SfExpr] = {}

    def go(n: SfExpr) -> SfExpr:
        out = memo.get(n)
        if out is None:
            if isinstance(n, Empty):
                out = empty_core
            elif isinstance(n, Epsilon):
                out = epsilon_core
            elif isinstance(n, (Union, Difference, Concat)):
                out = n.__class__(go(n.left), go(n.right))
            else:
                out = n
            memo[n] = out
        return out

    return go(e)


def eval_expr(e: SfExpr, alphabet: Alphabet) -> Dfa:
    """Minimal DFA of the denoted language over ``alphabet``.

    Sugar nodes are mapped directly to their languages (the desugared forms
    evaluate to the same languages; tests assert this)."""
    memo: dict[SfExpr, Dfa] = {}

    def go(n: SfExpr) -> Dfa:
        out = memo.get(n)
        if out is None:
            if isinstance(n, All):
                out = universal_dfa(alphabet)
            elif isinstance(n, Empty):
                out = empty_dfa(alphabet)
            elif isinstance(n, Epsilon):
                out = epsilon_dfa(alphabet)
            elif isinstance(n, Letter):
                out = letter_dfa(alphabet, n.symbol)
            elif isinstance(n, Union):
                out = dfa_combine("union", go(n.left), go(n.right))
            elif isinstance(n, Difference):
                out = dfa_combine("difference", go(n.left), go(n.right))
            elif isinstance(n, Concat):
                out = dfa_combine("concatenation", go(n.left), go(n.right))
            else:
                raise TypeError(f"not an expression node: {n!r}")
            memo[n] = out
        return out

    return go(e)


def n_bound(e: SfExpr) -> int:
    """Pumping threshold: with n = n_bound(e), membership of p u^k q in the
    denoted language is the same for every k >= n.

    Computed by the recursion n(All) = 0, n(letter) = 2, max over union and
    difference, and n(K.K') = n(K) + n(K') + 1, applied to the desugared
    tree (so Empty contributes 0 and Epsilon 4)."""
    memo: dict[SfExpr, int] = {}

    def go(n: SfExpr) -> int:
        out = memo.get(n)
        if out is None:
            if isinstance(n, (All, Empty)):
                out = 0
            elif isinstance(n, Letter):
                out = 2
            elif isinstance(n, Epsilon):
                out = 4
            elif isinstance(n, (Union, Difference)):
                out = max(go(n.left), go(n.right))
            elif isinstance(n, Concat):
                out = go(n.left) + go(n.right) + 1
            else:
                raise TypeError(f"not an expression node: {n!r}")
            memo[n] = out
        return out

    return go(e)


def node_count(e: SfExpr) -> int:
    """Number of nodes of the expression read as a tree."""
    memo: dict[SfExpr, int] = {}

    def go(n: SfExpr) -> int:
        out = memo.get(n)
        if out is None:
            if isinstance(n, (Union, Difference, Concat)):
                out = 1 + go(n.left) + go(n.right)
            else:
                out = 1
            memo[n] = out
        return out

    return go(e)


def concat_depth(e: SfExpr) -> int:
    """Maximum nesting depth of concatenation nodes."""
    memo: dict[SfExpr, int] = {}

    def go(n: SfExpr) -> int:
        out = memo.get(n)
        if out is None:
            if isinstance(n, Concat):
                out = 1 + max(go(n.left), go(n.right))
            elif isinstance(n, (Union, Difference)):
                out = max(go(n.left), go(n.right))
            else:
                out = 0
            memo[n] = out
        return out

    return go(e)


@dataclass(frozen=True)
class SfMetrics:
    node_count: int
    concat_depth: int
    n_bound: int


def metrics(e: SfExpr) -> SfMetrics:
    return SfMetrics(node_count(e), concat_depth(e), n_bound(e))


def simplify(e: SfExpr, *, alphabet: Alphabet | None = None, verify: bool = False) -> SfExpr:
    """Language-preserving local rewrites for output size control.

    Applied bottom-up: X \\ X and Empty \\ X collapse to Empty, X \\ Empty to
    X; unions drop Empty operands and duplicates; concatenations with Empty
    collapse to Empty and Epsilon factors are dropped.  With ``verify`` set
    (requires ``alphabet``), the result is checked language-equal to the
    input by DFA equivalence, and a mismatch raises :class:`SfreeError`."""
    memo: dict[SfExpr, SfExpr] = {}

    def go(n: SfExpr) -> SfExpr:
        out = memo.get(n)
        if out is not None:
            return out
        if isinstance(n, Union):
            left, right = go(n.left), go(n.right)
            if isinstance(left, Empty):
                out = right
            elif isinstance(right, Empty):
                out = left
            elif left == right:
                out = left
            else:
                out = Union(left, right)
        elif isinstance(n, Difference):
            left, right = go(n.left), go(n.right)
            if isinstance(left, Empty):
                out = EMPTY
            elif isinstance(right, Empty):
                out = left
            elif left == right:
                out = EMPTY
            else:
                out = Difference(left, right)
        elif isinstance(n, Concat):
            left, right = go(n.left), go(n.right)
            if isinstance(left, Empty) or isinstance(right, Empty):
                out = EMPTY
            elif isinstance(left, Epsilon):
                out = right
            elif isinstance(right, Epsilon):
                out = left
            else:
                out = Concat(left, right)
        else:
            out = n
        memo[n] = out
        return out

    result = go(e)
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
    memo: dict[SfExpr, tuple[str, int]] = {}

    def go(n: SfExpr) -> tuple[str, int]:
        # precedence: 3 atom, 2 concat, 1 union/difference
        out = memo.get(n)
        if out is not None:
            return out
        if isinstance(n, All):
            out = "ALL", 3
        elif isinstance(n, Empty):
            out = "EMPTY", 3
        elif isinstance(n, Epsilon):
            out = "EPS", 3
        elif isinstance(n, Letter):
            out = _render_letter(n.symbol), 3
        elif isinstance(n, Concat):
            lt, lp = go(n.left)
            rt, rp = go(n.right)
            if lp < 2:
                lt = f"({lt})"
            if rp < 2 or isinstance(n.right, Concat):
                rt = f"({rt})"
            out = f"{lt} . {rt}", 2
        else:
            op = " | " if isinstance(n, Union) else " \\ "
            lt, lp = go(n.left)
            rt, rp = go(n.right)
            if lp == 1 and n.left.__class__ is not n.__class__:
                lt = f"({lt})"
            if rp == 1:
                rt = f"({rt})"
            out = f"{lt}{op}{rt}", 1
        memo[n] = out
        return out

    return go(e)[0]
