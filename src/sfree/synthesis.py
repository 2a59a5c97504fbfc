"""Construction of star-free expressions for preimages under homomorphisms
into finite aperiodic monoids, and the resulting decision procedure for
star-freeness of regular languages.

The construction recurses on the pair (monoid size, alphabet size) in
lexicographic order.  Given a homomorphism phi and a target element p:

* if every letter maps to the identity, the preimage is everything or
  nothing;
* otherwise pick the first letter ``c`` whose image is not the identity,
  factorize each word of the preimage at the first and last occurrence of
  ``c``, and take the union of the induced three-way factorizations of
  ``p``.  The outer factors contain no ``c`` and are handled by recursion
  over the smaller alphabet; the middle factor starts and ends with ``c``
  and is handled through the local divisor at the image of ``c``, which is
  a strictly smaller aperiodic monoid: words over blocks ``v c`` are read
  as words over the alphabet of image elements, translated back by the
  substitution inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

from .automata import Alphabet, Dfa, _is_int, dfa_minimize
from .errors import AlphabetError, MonoidError, NonAperiodicError, SfreeError
from .monoid import (
    DEFAULT_MONOID_CAP,
    AperiodicityWitness,
    Homomorphism,
    LocalDivisor,
    _compose,
    _first_periodic,
    _psi,
    _transformations,
    _transition_table,
    is_aperiodic,
    local_divisor,
)
from .sfexpr import (
    ALL,
    EMPTY,
    EPSILON,
    All,
    Concat,
    Difference,
    Empty,
    Letter,
    SfExpr,
    Union,
    _fold,
    simplify,
)

#: Monoid elements are materialized as expression letters using this scheme.
TOKEN_PREFIX = "m"


def element_token(element: int) -> str:
    """Letter token for a monoid element used in intermediate alphabets."""
    return f"{TOKEN_PREFIX}{element}"


def token_element(token: str) -> int:
    """Inverse of :func:`element_token`: the element ``n >= 0`` with
    ``element_token(n) == token``."""
    if token.startswith(TOKEN_PREFIX):
        try:
            element = int(token[len(TOKEN_PREFIX) :])
        except ValueError:  # not an integer literal, or longer than int() reads
            pass
        else:
            if element >= 0 and element_token(element) == token:
                return element
    raise MonoidError(f"{token!r} is not a monoid-element token")


def embed_expr(e: SfExpr, sub: Alphabet, full: Alphabet) -> SfExpr:
    """Reinterpret an expression over ``sub`` as one over ``full`` denoting
    the same set of words.

    Every ``All`` node (all words over ``sub``) becomes "all words over
    ``full`` containing no extra letter"; letters and connectives are
    unchanged.  With ``sub == full`` the expression is returned as is."""
    sub_set = set(sub.letters)
    extra = [a for a in full.letters if a not in sub_set]
    if len(sub_set - set(full.letters)) > 0:
        raise AlphabetError(
            f"{list(sub.letters)!r} is not a subalphabet of {list(full.letters)!r}"
        )

    if extra:
        mentions = [Concat(Concat(ALL, Letter(b)), ALL) for b in extra]
        replacement: SfExpr = Difference(ALL, reduce(Union, mentions))
    else:
        replacement = ALL

    def leaf(n: SfExpr) -> SfExpr:
        if isinstance(n, Letter) and n.symbol not in sub_set:
            raise AlphabetError(f"letter {n.symbol!r} is outside the subalphabet")
        if isinstance(n, All):
            return replacement
        return n  # letters, Empty and Epsilon are alphabet-independent

    if not extra:
        _fold(e, leaf)  # still validate the letters
        return e
    return _fold(e, leaf)


def sigma_inverse(
    k: SfExpr,
    h: Homomorphism,
    c: str,
    synth_letter: Callable[[int], SfExpr],
) -> SfExpr:
    """Translate an expression over element tokens into one over ``h``'s
    alphabet, inverting the substitution that reads a block ``v c`` (``v``
    free of ``c``) as the single token of ``v``'s image.

    Structural recursion: the full token language becomes "words ending in
    ``c``, or empty"; a token becomes its preimage expression (over the
    alphabet without ``c``, supplied by ``synth_letter`` and embedded)
    concatenated with ``c``; unions, differences, and concatenations map
    through unchanged."""
    full = h.alphabet
    sub = full.without(c)
    allowed = set(h.restrict(sub).image)
    all_translation = Union(Concat(ALL, Letter(c)), EPSILON)

    def leaf(n: SfExpr) -> SfExpr:
        if isinstance(n, Letter):
            t = token_element(n.symbol)
            if t not in allowed:
                raise MonoidError(f"token {n.symbol!r} is outside the image submonoid")
            return Concat(embed_expr(synth_letter(t), sub, full), Letter(c))
        if isinstance(n, All):
            return all_translation
        return n  # Empty and Epsilon translate to themselves

    return _fold(k, leaf)


@dataclass
class SynthesisContext:
    """Shared state for one synthesis computation.

    Confined to a single computation; distinct contexts may run in parallel.
    ``memo`` caches preimage expressions keyed by the full homomorphism
    identity (monoid table, alphabet, letter images) plus the target
    element, so structurally equal subproblems are built once."""

    max_monoid: int = DEFAULT_MONOID_CAP
    memo: dict = field(default_factory=dict)
    divisors: dict = field(default_factory=dict)
    embeds: dict = field(default_factory=dict)
    calls: int = 0
    peak_depth: int = 0

    def local_divisor_at(self, monoid, c: int) -> LocalDivisor:
        key = (monoid.key(), c)
        ld = self.divisors.get(key)
        if ld is None:
            ld = self.divisors[key] = local_divisor(monoid, c)
        return ld

    def embed(self, e: SfExpr, sub: Alphabet, full: Alphabet) -> SfExpr:
        key = (e, sub.letters, full.letters)
        out = self.embeds.get(key)
        if out is None:
            out = self.embeds[key] = embed_expr(e, sub, full)
        return out


def synthesize(h: Homomorphism, p: int, *, context: SynthesisContext | None = None) -> SfExpr:
    """Star-free expression over ``h``'s alphabet denoting the preimage of
    element ``p``.

    Requires an aperiodic monoid (checked; raises otherwise).  Evaluating
    the result is language-equal to the DFA realization of the preimage."""
    ctx = context if context is not None else SynthesisContext()
    if h.monoid.size > ctx.max_monoid:
        raise MonoidError(
            f"monoid size {h.monoid.size} exceeds the cap {ctx.max_monoid}"
        )
    witness = is_aperiodic(h.monoid)
    if witness is not None:
        raise NonAperiodicError(
            f"monoid is not aperiodic: element {witness.element} has "
            f"period {witness.period} from power {witness.index}"
        )
    if not _is_int(p) or not 0 <= p < h.monoid.size:
        raise MonoidError(f"target {p!r} is not a monoid element")
    return _synthesize(ctx, h, p, None, 1)


def _synthesize(
    ctx: SynthesisContext,
    h: Homomorphism,
    p: int,
    bound: tuple[int, int] | None,
    depth: int,
) -> SfExpr:
    measure = (h.monoid.size, len(h.alphabet))
    if bound is not None and measure >= bound:
        raise MonoidError(f"recursion measure violation: {measure} not below {bound}")
    key = (h.key(), p)
    cached = ctx.memo.get(key)
    if cached is not None:
        return cached

    ctx.calls += 1
    ctx.peak_depth = max(ctx.peak_depth, depth)
    monoid = h.monoid
    one = monoid.identity

    if p not in h.image:
        result: SfExpr = EMPTY
    elif all(img == one for img in h.letter_image):
        # trivial image: the preimage is everything or nothing
        result = ALL if p == one else EMPTY
    else:
        c_pos = next(j for j, img in enumerate(h.letter_image) if img != one)
        c = h.alphabet.letters[c_pos]
        pc = h.letter_image[c_pos]
        sub = h.alphabet.without(c)
        h_sub = h.restrict(sub)
        reachable = h_sub.image

        ld = ctx.local_divisor_at(monoid, pc)
        tokens = Alphabet(tuple(element_token(t) for t in reachable))
        psi_images = tuple(ld.from_base(_psi(monoid, pc, t)) for t in reachable)
        h_tokens = Homomorphism(tokens, ld.divisor, psi_images)

        def synth_sub(q: int) -> SfExpr:
            return _synthesize(ctx, h_sub, q, measure, depth + 1)

        branches: list[SfExpr] = []

        # words without c at all
        no_c = synth_sub(p)
        if not isinstance(no_c, Empty):
            branches.append(ctx.embed(no_c, sub, h.alphabet))

        # words factorized at the first and last occurrence of c
        for p2 in ld.carrier:
            middle_tokens = _synthesize(
                ctx, h_tokens, ld.from_base(p2), measure, depth + 1
            )
            if isinstance(middle_tokens, Empty):
                continue
            middle = Concat(
                Letter(c), sigma_inverse(middle_tokens, h, c, synth_sub)
            )
            for p1 in reachable:
                left = synth_sub(p1)
                if isinstance(left, Empty):
                    continue
                p12 = monoid.mul(p1, p2)
                for p3 in reachable:
                    if monoid.mul(p12, p3) != p:
                        continue
                    right = synth_sub(p3)
                    if isinstance(right, Empty):
                        continue
                    branches.append(
                        Concat(
                            Concat(ctx.embed(left, sub, h.alphabet), middle),
                            ctx.embed(right, sub, h.alphabet),
                        )
                    )

        result = reduce(Union, branches) if branches else EMPTY

    ctx.memo[key] = result
    return result


@dataclass(frozen=True)
class StarFreenessVerdict:
    """Outcome of the decision procedure.

    Exactly one of ``witness`` (language not star-free) and ``expressions``
    (one preimage expression per accepting image element) is present."""

    star_free: bool
    monoid_size: int
    witness: AperiodicityWitness | None
    expressions: tuple[SfExpr, ...] | None
    accept_elements: tuple[int, ...]

    def __post_init__(self):
        if not self.star_free == (self.witness is None) == (
            self.expressions is not None
        ):
            raise SfreeError("inconsistent verdict")

    def language_expression(self) -> SfExpr:
        """Union of the per-element expressions (Empty for the empty language)."""
        if self.expressions is None:
            raise NonAperiodicError("language is not star-free; no expression")
        if not self.expressions:
            return EMPTY
        return reduce(Union, self.expressions)


def decide_star_free(d: Dfa, *, max_monoid: int = DEFAULT_MONOID_CAP) -> StarFreenessVerdict:
    """Decide star-freeness of the language of ``d``.

    Minimizes the input and tests the aperiodicity of its transition monoid
    from the state transformations alone.  Not aperiodic: the verdict
    carries a periodicity witness.  Aperiodic: builds the monoid's table and
    synthesizes one expression per accepting image element (their union
    denotes the language)."""
    minimal = dfa_minimize(d)
    elems, accept = _transformations(minimal, max_monoid)
    witness = _first_periodic(elems, _compose, minimal.n_states, elems.__getitem__)
    elements = tuple(sorted(accept))
    if witness is not None:
        return StarFreenessVerdict(
            star_free=False,
            monoid_size=len(elems),
            witness=witness,
            expressions=None,
            accept_elements=elements,
        )
    hom = _transition_table(minimal, elems)
    ctx = SynthesisContext(max_monoid=max_monoid)
    # `simplify` rewrites nothing here: synthesis skips empty branches and
    # emits EPS only as a union operand, so its output comes back
    # structurally equal.  The pass stays for its memo, which maps equal
    # subtrees to one object; later memoized walks then compare shared
    # children by identity rather than by recursive structural equality.
    # Without it, `render_expr` plus `metrics` over the 174 synth-roundtrip
    # benchmark requests of seed 401 take 2.1 + 1.4 s of CPU instead of
    # 0.9 + 0.03 s.
    # `_transformations` and `_first_periodic` have settled the cap and the
    # aperiodicity that `synthesize` would check again for each element
    expressions = tuple(simplify(_synthesize(ctx, hom, p, None, 1)) for p in elements)
    return StarFreenessVerdict(
        star_free=True,
        monoid_size=len(elems),
        witness=None,
        expressions=expressions,
        accept_elements=elements,
    )


def commuting_diagram_check(h: Homomorphism, c: str, word) -> bool:
    """Check the translation consistency on one word.

    ``word`` must consist of blocks ``v c`` with ``v`` free of ``c`` (so it
    is empty or ends in ``c``).  Reads the word as a sequence of image
    tokens, evaluates that sequence in the local divisor at the image of
    ``c``, and compares with the direct image of ``c word`` (and with left
    multiplication of the image of ``word`` by the image of ``c``)."""
    word = tuple(word)
    pc = h.image_of(c)
    monoid = h.monoid

    blocks: list[tuple[str, ...]] = []
    current: list[str] = []
    for a in word:
        h.alphabet.index(a)  # validates the letter
        if a == c:
            blocks.append(tuple(current))
            current = []
        else:
            current.append(a)
    if current:
        raise ValueError(
            f"word {word!r} is not a concatenation of blocks ending in {c!r}"
        )

    ld = local_divisor(monoid, pc)
    acc = ld.divisor.identity
    for block in blocks:
        acc = ld.divisor.mul(acc, ld.from_base(_psi(monoid, pc, h.evaluate(block))))
    via_tokens = ld.to_base(acc)

    direct = h.evaluate((c,) + word)
    shifted = monoid.mul(pc, h.evaluate(word))
    return via_tokens == direct == shifted
