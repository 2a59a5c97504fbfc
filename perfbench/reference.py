"""Reference automata for the benchmark's correctness gate.

Nothing here calls into ``sfree``: the expected languages are built from
their textbook definitions, and expressions are evaluated by an independent
DFA toolkit.  A DFA is a pair ``(rows, accepting)`` over letters ``0..k-1``
with start state 0; ``rows[s][j]`` is the successor of ``s`` on letter ``j``.
``canonical`` returns the unique minimal form, so two DFAs accept the same
language exactly when their canonical forms are equal.
"""

from __future__ import annotations


def canonical(rows, accepting):
    """Minimal DFA, states renumbered breadth-first from the start state 0."""
    k = len(rows[0])
    order = [0]
    seen = {0: 0}
    for s in order:
        for t in rows[s]:
            if t not in seen:
                seen[t] = len(order)
                order.append(t)
    trans = [[seen[t] for t in rows[s]] for s in order]
    final = [s in accepting for s in order]

    # Moore refinement: a state's class is its finality plus its successors' classes.
    cls = [int(f) for f in final]
    count = len(set(cls))
    while True:
        sig: dict = {}
        cls = [sig.setdefault((cls[s], *(cls[t] for t in trans[s])), len(sig))
               for s in range(len(trans))]
        if len(sig) == count:
            break
        count = len(sig)

    # Renumber classes breadth-first, letters in order.
    rep = {}
    for s in range(len(trans)):
        rep.setdefault(cls[s], s)
    number = {cls[0]: 0}
    queue = [cls[0]]
    out_rows = []
    for c in queue:
        row = []
        for j in range(k):
            d = cls[trans[rep[c]][j]]
            if d not in number:
                number[d] = len(queue)
                queue.append(d)
            row.append(number[d])
        out_rows.append(tuple(row))
    acc = frozenset(number[c] for c in queue if final[rep[c]])
    return tuple(out_rows), acc


def explore(k, start, step, final):
    """Deterministic state space reachable from ``start`` under ``step``."""
    index = {start: 0}
    states = [start]
    rows = []
    for q in states:
        row = []
        for j in range(k):
            r = step(q, j)
            if r not in index:
                index[r] = len(states)
                states.append(r)
            row.append(index[r])
        rows.append(tuple(row))
    return canonical(rows, {i for i, q in enumerate(states) if final(q)})


def boolean(op, a, b):
    """Product construction; ``op`` is ``union`` or ``difference``."""
    (ra, fa), (rb, fb) = a, b
    keep = (lambda x, y: x or y) if op == "union" else (lambda x, y: x and not y)
    return explore(
        len(ra[0]),
        (0, 0),
        lambda q, j: (ra[q[0]][j], rb[q[1]][j]),
        lambda q: keep(q[0] in fa, q[1] in fb),
    )


def concat(a, b):
    """Subset construction for the concatenation of two languages."""
    (ra, fa), (rb, fb) = a, b

    def close(s, ts):
        return s, frozenset(ts | {0}) if s in fa else frozenset(ts)

    return explore(
        len(ra[0]),
        close(0, frozenset()),
        lambda q, j: close(ra[q[0]][j], {rb[t][j] for t in q[1]}),
        lambda q: any(t in fb for t in q[1]),
    )


def universal(k):
    return ((0,) * k,), frozenset({0})


def empty(k):
    return ((0,) * k,), frozenset()


def epsilon(k):
    return ((1,) * k, (1,) * k), frozenset({0})


def letter(k, j):
    return (tuple(1 if i == j else 2 for i in range(k)), (2,) * k, (2,) * k), frozenset({1})


# ---------------------------------------------------------------------------
# languages of the benchmark's families, from their definitions


def _border(w, s):
    """Length of the longest suffix of ``s`` that is a prefix of ``w``."""
    for n in range(min(len(w), len(s)), -1, -1):
        if s.endswith(w[:n]):
            return n
    return 0


def word_star(w, alphabet):
    """``w*``: the input is a sequence of copies of ``w``."""
    n = len(w)
    dead = n
    rows = [
        tuple(((i + 1) % n if a == w[i] else dead) for a in alphabet) for i in range(n)
    ]
    rows.append((dead,) * len(alphabet))
    return canonical(rows, {0})


def contains_factor(w, alphabet):
    """``Σ* w Σ*``: ``w`` occurs somewhere."""
    n = len(w)
    return explore(
        len(alphabet),
        0,
        lambda i, j: n if i == n else _border(w, w[:i] + alphabet[j]),
        lambda i: i == n,
    )


def ends_with(w, alphabet):
    """``Σ* w``: the input ends in ``w``."""
    n = len(w)
    return explore(
        len(alphabet),
        0,
        lambda i, j: _border(w, w[:i] + alphabet[j]),
        lambda i: i == n,
    )


def starts_with(w, alphabet, exact=False):
    """``w Σ*``, or only ``w`` itself when ``exact``."""
    n = len(w)
    dead = n + 1

    def step(i, j):
        if i < n and alphabet[j] == w[i]:
            return i + 1
        return n if i == n and not exact else dead

    return explore(len(alphabet), 0, step, lambda i: i == n)


def dyck(depth, opener, closer, neutral, alphabet):
    """Balanced words over one bracket pair whose nesting never exceeds
    ``depth``; ``neutral`` letters may occur anywhere, other letters never."""
    dead = depth + 1

    def step(i, j):
        a = alphabet[j]
        if i == dead:
            return dead
        if a == opener:
            return i + 1 if i < depth else dead
        if a == closer:
            return i - 1 if i > 0 else dead
        return i if a in neutral else dead

    return explore(len(alphabet), 0, step, lambda i: i == 0)


def block_star(blocks, alphabet):
    """``(b1|b2|...)*``: the input splits into blocks from a finite set.  A
    state is the set of (block, position) pairs still being read, plus
    whether a block has just been completed."""

    def step(state, j):
        pending, _ = state
        a = alphabet[j]
        moved = {(b, i + 1) for b, i in pending if b[i] == a and i + 1 < len(b)}
        done = any(b[i] == a and i + 1 == len(b) for b, i in pending)
        if done:
            moved |= {(b, 0) for b in blocks}
        return frozenset(moved), done

    start = (frozenset((b, 0) for b in blocks), True)
    return explore(len(alphabet), start, step, lambda state: state[1])


def count_mod(k, counted, alphabet):
    """Words in which the letters of ``counted`` occur a multiple of ``k`` times."""
    return explore(
        len(alphabet),
        0,
        lambda i, j: (i + 1) % k if alphabet[j] in counted else i,
        lambda i: i == 0,
    )


# ---------------------------------------------------------------------------
# expression evaluation


class Evaluator:
    """Evaluates star-free expressions over a fixed alphabet to canonical DFAs.

    Results of every operation are cached by the canonical operands, so a
    subexpression that recurs, as an object or as repeated text, is
    computed once."""

    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)
        self.index = {a: j for j, a in enumerate(self.alphabet)}
        self._ops: dict = {}

    def atom(self, name):
        k = len(self.alphabet)
        if name == "ALL":
            return universal(k)
        if name == "EMPTY":
            return empty(k)
        if name == "EPS":
            return epsilon(k)
        if name not in self.index:
            raise ValueError(f"letter {name!r} outside the alphabet")
        return letter(k, self.index[name])

    def apply(self, op, a, b):
        key = (op, a, b)
        out = self._ops.get(key)
        if out is None:
            out = self._ops[key] = concat(a, b) if op == "." else boolean(
                "union" if op == "|" else "difference", a, b
            )
        return out

    def tree(self, root, kind, children):
        """Evaluate an expression given as objects.  ``kind(node)`` names the
        node (an atom name for leaves, or an operator ``.``, ``|``, ``\\``)
        and ``children(node)`` lists its two operands.  The walk is
        iterative and keyed on object identity."""
        done: dict = {}
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in done:
                stack.pop()
                continue
            name = kind(node)
            if name not in (".", "|", "\\"):
                done[id(node)] = self.atom(name)
                stack.pop()
                continue
            left, right = children(node)
            pending = [c for c in (left, right) if id(c) not in done]
            if pending:
                stack.extend(pending)
                continue
            done[id(node)] = self.apply(name, done[id(left)], done[id(right)])
            stack.pop()
        return done[id(root)]

    def text(self, source):
        """Evaluate the textual expression grammar: atoms ``ALL``, ``EMPTY``,
        ``EPS``, single characters and ``'quoted'`` letters; ``.`` binds
        tighter than ``|`` and ``\\``, which share one left-associative level.
        Operator precedence parsing, so nesting depth costs no recursion."""
        prec = {".": 2, "|": 1, "\\": 1}
        values: list = []
        ops: list = []

        def reduce_top():
            op = ops.pop()
            b = values.pop()
            a = values.pop()
            values.append(self.apply(op, a, b))

        expect_operand = True
        i, n = 0, len(source)
        while i < n:
            ch = source[i]
            if ch.isspace():
                i += 1
                continue
            if expect_operand:
                if ch == "(":
                    ops.append("(")
                    i += 1
                    continue
                if ch == "'":
                    j = source.index("'", i + 1)
                    name, i = source[i + 1 : j], j + 1
                elif ch.isalnum() or ch == "_":
                    j = i
                    while j < n and (source[j].isalnum() or source[j] == "_"):
                        j += 1
                    name, i = source[i:j], j
                    if len(name) > 1 and name not in ("ALL", "EMPTY", "EPS"):
                        raise ValueError(f"bad token {name!r}")
                else:
                    name, i = ch, i + 1
                values.append(self.atom(name))
                expect_operand = False
            elif ch == ")":
                while ops[-1] != "(":
                    reduce_top()
                ops.pop()
                i += 1
            elif ch in prec:
                while ops and ops[-1] != "(" and prec[ops[-1]] >= prec[ch]:
                    reduce_top()
                ops.append(ch)
                expect_operand = True
                i += 1
            else:
                raise ValueError(f"unexpected {ch!r} at {i}")
        if expect_operand:
            raise ValueError("expression ends where an operand is expected")
        while ops:
            if ops[-1] == "(":
                raise ValueError("unbalanced parenthesis")
            reduce_top()
        if len(values) != 1:
            raise ValueError("malformed expression")
        return values[0]


# ---------------------------------------------------------------------------
# monoids given by their defining relations


def cyclic_chain_product(m, k):
    """Table of Z_m × C_k, where C_k = {1, x, ..., x^k} with x^k = x^(k+1).
    Element ``g * (k + 1) + i`` is (g, x^i); the identity is element 0.  The
    monoid is aperiodic exactly when ``m == 1``."""
    size = m * (k + 1)
    return [
        [((a // (k + 1) + b // (k + 1)) % m) * (k + 1) + min(a % (k + 1) + b % (k + 1), k)
         for b in range(size)]
        for a in range(size)
    ]


def power(table, identity, x, e):
    r = identity
    for _ in range(e):
        r = table[r][x]
    return r
