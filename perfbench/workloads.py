"""Seeded inputs for the three workloads, each paired with its expected
answer from theory.

Every family's verdict is known without running ``sfree``:

* ``w*`` is star-free exactly when ``w`` is primitive (not a power of a
  shorter word);
* ``Σ*wΣ*`` (contains ``w``), ``Σ*w`` (ends in ``w``), ``wΣ*`` (starts with
  ``w``) and ``{w}`` are star-free;
* Dyck words of bounded depth are star-free, also with neutral letters that
  may occur anywhere or with letters that may not occur at all;
* counting modulo ``k ≥ 2`` (the length, or the occurrences of some letters)
  is never star-free: the syntactic monoid is the cyclic group ``Z_k``, so
  every periodicity witness has a period dividing ``k``;
* the table ``Z_m × C_k`` is aperiodic exactly when ``m == 1``.

Inputs are drawn from ``random.Random`` seeded by the workload and the
``--seed`` argument only, and are distinct within a run: no language or
table is requested twice, so a cache across requests cannot win by
repetition.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

ALPHABETS = {"ab": 7, "abc": 5, "abcd": 4, "abcde": 3}
"""Word families draw ``w`` over each alphabet up to this length, which keeps
every syntactic monoid under the CLI's size cap of 64."""


@dataclass
class Task:
    """One request's input and what theory says the answer must be."""

    family: str
    alphabet: str
    star_free: bool
    reference: Callable[[], tuple]
    regex: str | None = None
    table: list | None = None
    identity: int = 0
    path: str | None = None
    period_divides: int | None = None
    dfa: object = None  # synth-hard's input, built with sfree at set-up

    @property
    def label(self) -> str:
        if self.regex is None:
            return f"{self.family}:{os.path.basename(self.path)}"
        return f"{self.family}:{self.regex}/{self.alphabet}"


def _union(letters) -> str:
    return letters if len(letters) == 1 else "(" + "|".join(letters) + ")"


def _sigma_star(alphabet: str) -> str:
    return "(" + "|".join(alphabet) + ")*"


def primitive(w: str) -> bool:
    n = len(w)
    return all(w != w[:d] * (n // d) for d in range(1, n) if n % d == 0)


def word_star(w: str, alphabet: str) -> Task:
    return Task("word-star", alphabet, primitive(w),
                lambda: ref.word_star(w, alphabet), regex=f"({w})*")


def factor(w: str, alphabet: str) -> Task:
    s = _sigma_star(alphabet)
    return Task("factor", alphabet, True,
                lambda: ref.contains_factor(w, alphabet), regex=f"{s}{w}{s}")


def suffix(w: str, alphabet: str) -> Task:
    return Task("suffix", alphabet, True,
                lambda: ref.ends_with(w, alphabet), regex=f"{_sigma_star(alphabet)}{w}")


def prefix(w: str, alphabet: str) -> Task:
    return Task("prefix", alphabet, True,
                lambda: ref.starts_with(w, alphabet), regex=f"{w}{_sigma_star(alphabet)}")


def word(w: str, alphabet: str) -> Task:
    return Task("word", alphabet, True,
                lambda: ref.starts_with(w, alphabet, exact=True), regex=w)


def dyck(depth: int, opener: str, closer: str, neutral: str, alphabet: str) -> Task:
    # E_0 = N*, E_i = (N | opener E_(i-1) closer)*, with N the neutral letters.
    expr = f"{_union(neutral)}*" if neutral else "_"
    for _ in range(depth):
        expr = "(" + "|".join([*neutral, f"{opener}{expr}{closer}"]) + ")*"
    return Task("dyck", alphabet, True,
                lambda: ref.dyck(depth, opener, closer, neutral, alphabet), regex=expr)


def length_mod(k: int, alphabet: str) -> Task:
    return Task("length-mod", alphabet, False,
                lambda: ref.count_mod(k, alphabet, alphabet),
                regex="(" + _union(alphabet) * k + ")*", period_divides=k)


def count_mod(k: int, counted: str, alphabet: str) -> Task:
    others = "".join(a for a in alphabet if a not in counted)
    rest = f"{_union(others)}*"
    return Task("count-mod", alphabet, False,
                lambda: ref.count_mod(k, counted, alphabet),
                regex=f"{rest}(" + f"{_union(counted)}{rest}" * k + ")*", period_divides=k)


def block_star(blocks: tuple[str, ...], alphabet: str) -> Task:
    """``(b1|b2|...)*`` for a finite set of blocks."""
    return Task("corpus", alphabet, True, lambda: ref.block_star(blocks, alphabet),
                regex="(" + "|".join(blocks) + ")*")


# ---------------------------------------------------------------------------
# decide-mix


def _words(alphabet: str, max_len: int):
    for n in range(1, max_len + 1):
        for w in itertools.product(alphabet, repeat=n):
            yield "".join(w)


def _word_pool(make):
    return [make(w, a) for a, n in ALPHABETS.items() for w in _words(a, n)]


def _dyck_pool(alphabets, depths):
    pool = []
    for alphabet in alphabets:
        for opener, closer in itertools.permutations(alphabet, 2):
            others = [a for a in alphabet if a not in (opener, closer)]
            for r in range(len(others) + 1):
                for neutral in itertools.combinations(others, r):
                    for depth in depths:
                        pool.append(dyck(depth, opener, closer, "".join(neutral), alphabet))
    return pool


def _modular_pool():
    pool = []
    for alphabet in ALPHABETS:
        for k in range(2, 25):
            pool.append(length_mod(k, alphabet))
            for r in range(1, len(alphabet)):
                for counted in itertools.combinations(alphabet, r):
                    pool.append(count_mod(k, "".join(counted), alphabet))
    return pool


TABLE_MAX = 32
"""Largest generated table: ingestion validates associativity in O(n^3), so
bigger tables would dominate the mix."""

TABLE_SHAPES = [(m, k) for m in range(1, 9) for k in range(0 if m > 1 else 1, TABLE_MAX // m)]
"""Every ``Z_m × C_k`` of 2-32 elements; the stream cycles through all of
them, so each run sees the same spread of table sizes."""


def _table(rng: random.Random, directory: str, n: int, shape, bases: dict) -> Task:
    m, k = shape
    if shape not in bases:
        bases[shape] = ref.cyclic_chain_product(m, k)
    base = bases[shape]
    perm = list(range(len(base)))
    rng.shuffle(perm)
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    table = [[perm[base[x][y]] for y in inverse] for x in inverse]
    return Task("table", "", m == 1, lambda: None, table=table, identity=perm[0],
                path=os.path.join(directory, f"table{n:05d}.txt"), period_divides=m)


def write_table(task: Task) -> None:
    """The table file the request reads, in ``sfree analyze --monoid``
    format.  Written just before its request, outside the timed region, so
    that file-system latency stays out of the set-up time."""
    with open(task.path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(task.table)} {task.identity}\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in task.table)


DECIDE_SCHEDULE = (
    "word-star", "factor", "suffix", "table", "dyck",
    "word-star", "factor", "suffix", "prefix", "modular",
)
"""One cycle of the decide-mix stream.  Family shares stay fixed along the
whole stream, and each family's pool is consumed in a seeded random order,
so every prefix of the stream has the same expected mix whatever its
length; a faster program reads further into the same mix."""


def _shuffled_forever(rng: random.Random, items):
    while True:
        yield from rng.sample(items, len(items))


def decide_mix(seed: int, directory: str) -> list[Task]:
    rng = random.Random(f"decide-mix:{seed}")
    pools = {
        "word-star": _word_pool(word_star),
        "factor": _word_pool(factor),
        "suffix": _word_pool(suffix),
        "prefix": _word_pool(prefix),
        "dyck": _dyck_pool(ALPHABETS, range(1, 5)),
        "modular": _modular_pool(),
    }
    for pool in pools.values():
        rng.shuffle(pool)
    tables_seen: set = set()
    bases: dict = {}
    shapes = _shuffled_forever(rng, TABLE_SHAPES)
    tasks = []
    for slot in itertools.cycle(DECIDE_SCHEDULE):
        if slot == "table":
            while True:
                task = _table(rng, directory, len(tables_seen), next(shapes), bases)
                key = (task.identity, tuple(map(tuple, task.table)))
                if key not in tables_seen:
                    tables_seen.add(key)
                    break
        elif pools[slot]:
            task = pools[slot].pop()
        else:
            return tasks
        tasks.append(task)


# ---------------------------------------------------------------------------
# synth-roundtrip

ROUNDTRIP_WORDS = {
    word_star: {"ab": 2, "abc": 2, "abcd": 1},
    factor: {"ab": 2, "abc": 2, "abcd": 1},
    suffix: {"ab": 2, "abc": 1},
    prefix: {"ab": 2, "abc": 1},
    word: {"ab": 3, "abc": 2, "abcd": 1},
}
"""Round trips use every primitive ``w*``, ``Σ*wΣ*``, ``Σ*w``, ``wΣ*`` and
``{w}`` with ``w`` up to these lengths.  Over ``ab`` each finishes in
milliseconds; with more letters the flat rendering of some outputs explodes,
which is what a shared-DAG output format must fix.  Lengths stop where the
seed times of the next length (for example 0.8-6 s for ``Σ*w`` over ``abc``
at length 2) spread across any per-request limit, so that pass or fail
would depend on the machine."""


ROUNDTRIP_LETTERS = ("abcd", "efgh")
"""One pass over the languages per entry, written in these letters in
place of ``abcd``.  A renamed language is a different input with the same
cost, so the second pass doubles the sample without repeating a request."""


def synth_roundtrip(seed: int) -> list[Task]:
    rng = random.Random(f"synth-roundtrip:{seed}")
    tasks = []
    for letters in ROUNDTRIP_LETTERS:
        rename = str.maketrans("abcd", letters)
        one_pass = [
            make(w.translate(rename), alphabet.translate(rename))
            for make, lengths in ROUNDTRIP_WORDS.items()
            for alphabet, n in lengths.items()
            for w in _words(alphabet, n)
            if make is not word_star or primitive(w)
        ]
        rng.shuffle(one_pass)
        tasks += one_pass
    return tasks


# ---------------------------------------------------------------------------
# synth-hard

def hard_corpus() -> list[Task]:
    """The fixed corpus on which per-language times are tracked."""
    return [
        word_star("abc", "abc"),
        block_star(("ab", "ba"), "ab"),
        block_star(("ab", "ba", "ac"), "abc"),
        factor("abab", "ab"),
        dyck(2, "a", "b", "", "ab"),
        dyck(3, "a", "b", "", "ab"),
        dyck(4, "a", "b", "", "ab"),
    ]


HARD_DRAWS = 13


def synth_hard(seed: int) -> list[Task]:
    """The corpus plus seeded draws of Dyck variants of depth 2-4 (monoids of
    15-56 elements) over two to four letters.  Draws are by family and depth,
    never by time."""
    rng = random.Random(f"synth-hard:{seed}")
    corpus = hard_corpus()
    regexes = {t.regex for t in corpus}
    pool = [t for t in _dyck_pool(("ab", "abc", "abcd"), range(2, 5)) if t.regex not in regexes]
    tasks = corpus + rng.sample(pool, HARD_DRAWS)
    rng.shuffle(tasks)
    return tasks

