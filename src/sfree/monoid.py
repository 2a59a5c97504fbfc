"""Finite monoid computations on explicit multiplication tables.

Covers table validation, the transition monoid of a minimal DFA (which
realizes the syntactic monoid), aperiodicity testing with witnesses,
homomorphisms with their images and restrictions to subalphabets, and
local divisors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import Iterable

from .automata import Alphabet, Dfa, _is_int, dfa_minimize
from .errors import MonoidError, MonoidSizeError, ParseError

#: Synthesis blows up quickly; anything bigger than this needs an explicit
#: opt-in from the caller.
DEFAULT_MONOID_CAP = 64


@dataclass(frozen=True)
class FiniteMonoid:
    """Monoid on elements ``0 .. n-1`` given by ``table[x][y] = x*y``.

    The constructor checks shape, entry ranges, and the identity law; full
    associativity is checked by :func:`validate_monoid`, which is the intended
    front door for ingested tables.
    """

    table: tuple[tuple[int, ...], ...]
    identity: int

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        n = len(self.table)
        if n == 0:
            raise MonoidError("a monoid needs at least one element")
        for x, row in enumerate(self.table):
            if len(row) != n:
                raise MonoidError(f"row {x} has {len(row)} entries, expected {n}")
            for y in row:
                if type(y) is not int or not 0 <= y < n:  # _is_int, inlined: hot path
                    raise MonoidError(f"entry {y!r} in row {x} out of range")
        e = self.identity
        if not _is_int(e) or not 0 <= e < n:
            raise MonoidError(f"identity index {e!r} out of range")
        for x in range(n):
            if self.table[e][x] != x or self.table[x][e] != x:
                raise MonoidError(f"identity law fails at element {x}")

    @property
    def size(self) -> int:
        return len(self.table)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def power(self, x: int, k: int) -> int:
        """x**k with x**0 = identity."""
        r = self.identity
        for _ in range(k):
            r = self.table[r][x]
        return r

    def key(self) -> tuple:
        """Hashable structural key (used for memoization)."""
        return (self.table, self.identity)


def validate_monoid(table, identity: int) -> FiniteMonoid:
    """Construct a monoid after a full check of the monoid laws.

    The associativity check is exhaustive (O(n^3)); violations are reported
    with the offending triple."""
    m = FiniteMonoid(tuple(tuple(row) for row in table), identity)
    t = m.table
    n = m.size
    for x in range(n):
        for y in range(n):
            xy = t[x][y]
            for z in range(n):
                if t[xy][z] != t[x][t[y][z]]:
                    raise MonoidError(
                        f"not associative: (({x}*{y})*{z}) = {t[xy][z]} but "
                        f"({x}*({y}*{z})) = {t[x][t[y][z]]}"
                    )
    return m


@dataclass(frozen=True)
class AperiodicityWitness:
    """Certificate that an element has eventual period >= 2: the powers of
    ``element`` satisfy x^index = x^(index+period) while x^index != x^(index+1)."""

    element: int
    index: int
    period: int

    def holds_in(self, monoid: FiniteMonoid) -> bool:
        x, k, d = self.element, self.index, self.period
        return (
            d >= 2
            and monoid.power(x, k) == monoid.power(x, k + d)
            and monoid.power(x, k) != monoid.power(x, k + 1)
        )


def is_aperiodic(monoid: FiniteMonoid) -> AperiodicityWitness | None:
    """None iff every element satisfies x^n = x^(n+1) for n = |M| (a bound
    that always suffices for finite monoids); otherwise a witness for the
    first periodic element, with minimal index and period."""
    n = monoid.size
    for x in range(n):
        if monoid.power(x, n) != monoid.power(x, n + 1):
            # y -> y*x is faithful (it sends the identity to x), so the
            # powers of x repeat exactly as those of this map do
            index, period = _power_shape(tuple(row[x] for row in monoid.table))
            return AperiodicityWitness(element=x, index=index, period=period)
    return None


def unit_factorization_check(monoid: FiniteMonoid) -> bool:
    """True iff x*y = 1 forces x = y = 1.  Holds in every aperiodic monoid;
    exposed as a self-check (and fails on genuine groups)."""
    e = monoid.identity
    for x in range(monoid.size):
        for y in range(monoid.size):
            if monoid.table[x][y] == e and (x != e or y != e):
                return False
    return True


@dataclass(frozen=True)
class Homomorphism:
    """A monoid homomorphism from words over ``alphabet`` into ``monoid``,
    given letter-wise.  ``image`` is the submonoid generated by the letter
    images, in ascending element order."""

    alphabet: Alphabet
    monoid: FiniteMonoid
    letter_image: tuple[int, ...]
    image: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "letter_image", tuple(self.letter_image))
        if len(self.letter_image) != len(self.alphabet):
            raise MonoidError(
                f"{len(self.letter_image)} letter images for "
                f"{len(self.alphabet)} letters"
            )
        for img in self.letter_image:
            if not _is_int(img) or not 0 <= img < self.monoid.size:
                raise MonoidError(f"letter image {img!r} out of range")
        object.__setattr__(self, "image", _closure(self.monoid, self.letter_image))

    def image_of(self, letter: str) -> int:
        return self.letter_image[self.alphabet.index(letter)]

    def evaluate(self, word: Iterable[str]) -> int:
        """Image of a word: the table product of its letter images."""
        x = self.monoid.identity
        for a in word:
            x = self.monoid.mul(x, self.image_of(a))
        return x

    def restrict(self, sub: Alphabet) -> "Homomorphism":
        """Restriction to a subalphabet (same monoid, fewer letters)."""
        images = tuple(self.image_of(a) for a in sub)
        return Homomorphism(sub, self.monoid, images)

    def key(self) -> tuple:
        return (self.monoid.key(), self.alphabet.letters, self.letter_image)


def _closure(monoid: FiniteMonoid, generators: Iterable[int]) -> tuple[int, ...]:
    gens = list(generators)
    seen = {monoid.identity}
    queue = [monoid.identity]
    while queue:
        x = queue.pop()
        for g in gens:
            y = monoid.mul(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return tuple(sorted(seen))


def _transformations(d: Dfa, max_size: int) -> tuple[list[tuple[int, ...]], frozenset[int]]:
    """The state transformations generated by the letter actions of ``d``
    under composition, discovered breadth-first from the identity with
    letters in alphabet order, and the indices of those that send the
    initial state into an accepting one.  Raises :class:`MonoidSizeError`
    once more than ``max_size`` transformations turn up."""
    m = d.n_states
    letter_maps = [
        tuple(d.transitions[s][j] for s in range(m)) for j in range(len(d.alphabet))
    ]
    elems = [tuple(range(m))]
    seen = {elems[0]}
    for t in elems:
        for amap in letter_maps:
            u = tuple(amap[t[s]] for s in range(m))
            if u not in seen:
                if len(elems) >= max_size:
                    raise MonoidSizeError(
                        f"transition monoid exceeds the size cap {max_size}"
                    )
                seen.add(u)
                elems.append(u)
    accept = frozenset(i for i, t in enumerate(elems) if t[d.initial] in d.accepting)
    return elems, accept


def transition_monoid(d: Dfa, max_size: int = DEFAULT_MONOID_CAP):
    """Transition monoid of the minimal DFA of ``d``'s language.

    ``d`` is minimized first.  Elements are the distinct state
    transformations generated by the letter actions under composition,
    discovered breadth-first from the identity transformation with letters
    in alphabet order (so element 0 is the identity).  Returns ``(monoid,
    hom, accept_elements)`` where ``hom`` maps each letter to its
    transformation and ``accept_elements`` is the set of elements whose
    transformation sends the initial state into an accepting one.  This
    realizes the syntactic monoid and syntactic morphism, and
    ``accept_elements`` is the image of the language.
    """
    d = dfa_minimize(d)
    elems, accept = _transformations(d, max_size)
    hom = _transition_table(d, elems)
    return hom.monoid, hom, accept


def _transition_table(d: Dfa, elems: list[tuple[int, ...]]) -> Homomorphism:
    """The homomorphism sending each letter of ``d`` to its action, into the
    validated multiplication table of the transformations ``elems`` of ``d``
    as enumerated by :func:`_transformations`."""
    pos = {t: i for i, t in enumerate(elems)}
    m = d.n_states
    table = tuple(
        tuple(pos[tuple(ej[ei[s]] for s in range(m))] for ej in elems)
        for ei in elems
    )
    monoid = validate_monoid(table, 0)
    letter_images = tuple(
        pos[tuple(row[j] for row in d.transitions)] for j in range(len(d.alphabet))
    )
    return Homomorphism(d.alphabet, monoid, letter_images)


def _power_shape(t: tuple[int, ...]) -> tuple[int, int]:
    """``(index, period)`` of a state transformation: the least ``k >= 1``
    and ``d >= 1`` with ``t^k = t^(k+d)``.

    Read off the functional graph of ``t``: ``k`` is the longest tail that
    leads into a cycle (at least 1) and ``d`` the lcm of the cycle lengths."""
    ON_PATH, UNSEEN = -2, -1
    tail = [UNSEEN] * len(t)
    index, period = 1, 1
    for s0 in range(len(t)):
        path, s = [], s0
        while tail[s] == UNSEEN:
            tail[s] = ON_PATH
            path.append(s)
            s = t[s]
        if tail[s] == ON_PATH:  # the walk closed a new cycle through s
            i = path.index(s)
            period = lcm(period, len(path) - i)
            for q in path[i:]:
                tail[q] = 0
            del path[i:]
        length = tail[s]
        for q in reversed(path):
            length += 1
            tail[q] = length
        index = max(index, length)
    return index, period


def _first_periodic(elems) -> AperiodicityWitness | None:
    """Witness for the first transformation in ``elems`` with period >= 2."""
    for x, t in enumerate(elems):
        index, period = _power_shape(t)
        if period >= 2:
            return AperiodicityWitness(element=x, index=index, period=period)
    return None


def transition_aperiodicity(
    d: Dfa, max_size: int = DEFAULT_MONOID_CAP
) -> tuple[int, AperiodicityWitness | None]:
    """Size of the syntactic monoid of ``d``'s language and the periodicity
    witness of :func:`is_aperiodic`, without a multiplication table.

    ``d`` is minimized first.  The elements of its transition monoid are
    enumerated in :func:`transition_monoid`'s order; a transformation monoid
    is aperiodic iff no element's functional graph has a cycle of length
    >= 2, and the first element that has one is the witness, so the result
    equals ``(monoid.size, is_aperiodic(monoid))`` for ``monoid`` the first
    component of ``transition_monoid(d)``.  Raises
    :class:`MonoidSizeError` past ``max_size``."""
    elems, _ = _transformations(dfa_minimize(d), max_size)
    return len(elems), _first_periodic(elems)


@dataclass(frozen=True)
class LocalDivisor:
    """The monoid on ``cM ∩ Mc`` with product ``(xc) ∘ (cy) = xcy`` and
    identity ``c``, together with the element correspondence into the base.

    ``carrier[i]`` is the base element of divisor element ``i``."""

    base: FiniteMonoid
    c: int
    carrier: tuple[int, ...]
    divisor: FiniteMonoid

    def __post_init__(self):
        object.__setattr__(self, "_pos", {x: i for i, x in enumerate(self.carrier)})

    def to_base(self, i: int) -> int:
        return self.carrier[i]

    def from_base(self, x: int) -> int:
        try:
            return self._pos[x]  # type: ignore[attr-defined]
        except KeyError:
            raise MonoidError(f"element {x} is not in the carrier") from None


def local_divisor(monoid: FiniteMonoid, c: int) -> LocalDivisor:
    """Local divisor of ``monoid`` at element ``c``.

    The carrier is ``cM ∩ Mc``; the product of carrier elements ``u`` and
    ``v`` is computed by picking a representative ``x`` with ``x*c = u``
    (one exists because ``u`` is in ``Mc``) and returning ``x*v``.  All
    representatives are audited to give the same result, which turns the
    well-definedness argument into a runtime assertion: a failure signals a
    corrupted (non-associative) table.

    When the base monoid is aperiodic, the divisor is asserted to be
    aperiodic as well, and strictly smaller whenever ``c`` is not the
    identity.
    """
    n = monoid.size
    if not _is_int(c) or not 0 <= c < n:
        raise MonoidError(f"element {c!r} out of range")
    cM = {monoid.mul(c, y) for y in range(n)}
    Mc = {monoid.mul(x, c) for x in range(n)}
    carrier = tuple(sorted(cM & Mc))
    pos = {x: i for i, x in enumerate(carrier)}
    reps = {u: [x for x in range(n) if monoid.mul(x, c) == u] for u in carrier}

    rows = []
    for u in carrier:
        row = []
        for v in carrier:
            products = {monoid.mul(x, v) for x in reps[u]}
            if len(products) != 1:
                raise MonoidError(
                    f"local product at c={c} is not well-defined for "
                    f"({u}, {v}): representatives give {sorted(products)}"
                )
            w = products.pop()
            if w not in pos:
                raise MonoidError(
                    f"local product at c={c} escapes the carrier: "
                    f"({u}, {v}) -> {w}"
                )
            row.append(pos[w])
        rows.append(tuple(row))
    divisor = validate_monoid(tuple(rows), pos[c])

    if is_aperiodic(monoid) is None:
        if is_aperiodic(divisor) is not None:
            raise MonoidError(f"local divisor at c={c} is not aperiodic")
        if c != monoid.identity and len(carrier) >= n:
            raise MonoidError(f"local divisor at c={c} did not shrink")
    return LocalDivisor(base=monoid, c=c, carrier=carrier, divisor=divisor)


def _psi(monoid: FiniteMonoid, c: int, t: int) -> int:
    """``c * t * c``, the element that a block with image ``t`` stands for in
    the local divisor at ``c``, with no check that ``t`` may occur there."""
    return monoid.table[monoid.table[c][t]][c]


# ---------------------------------------------------------------------------
# text file format: first line "n identity", then n rows of n indices


def parse_monoid_table(text: str, max_size: int = DEFAULT_MONOID_CAP) -> FiniteMonoid:
    """The monoid of a table file, after a full check of the monoid laws.

    Raises :class:`MonoidSizeError` for a table of more than ``max_size``
    elements once its rows are read, before the O(n^3) associativity check."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty monoid table")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("first line must be: <size> <identity-index>")
    try:
        n, identity = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"bad header {lines[0]!r}") from None
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = tuple(int(tok) for tok in ln.split())
        except ValueError:
            raise ParseError(f"bad table row {ln!r}") from None
        if len(row) != n:
            raise ParseError(f"row {ln!r} has {len(row)} entries, expected {n}")
        rows.append(row)
    if n > max_size:
        raise MonoidSizeError(f"monoid size {n} exceeds the cap {max_size}")
    return validate_monoid(tuple(rows), identity)


def format_monoid_table(monoid: FiniteMonoid) -> str:
    lines = [f"{monoid.size} {monoid.identity}"]
    lines.extend(" ".join(str(x) for x in row) for row in monoid.table)
    return "\n".join(lines) + "\n"
