"""Step-by-step request functions with spans around each layer's calls.

These functions repeat what ``sfree.cli.run_cli`` and
``sfree.decide_star_free`` do, one public function at a time, so that the
time of every call can be booked to the module it belongs to.  Run with a
:class:`NullRecorder` they are the untraced baseline for the tracing
overhead.  Each returns what the corresponding untraced request in
``run.py`` returns, so one correctness gate checks both.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

MAX_MONOID = 64  # the CLI's default --max-monoid

SPAN_LAYERS = (
    "regex.parse", "regex.to_dfa",
    "automata.minimize", "automata.equivalent",
    "monoid.table", "monoid.transition", "monoid.aperiodic", "monoid.local_divisor",
    "synthesis.synthesize",
    "sfexpr.simplify", "sfexpr.render", "sfexpr.metrics", "sfexpr.parse", "sfexpr.eval",
)
COUNTERS = (
    "automata.dfa_states", "monoid.elements", "monoid.local_divisors",
    "synthesis.subproblems", "synthesis.memo_entries", "synthesis.embed_entries",
    "synthesis.peak_depth",
    "sfexpr.render_chars", "sfexpr.tree_nodes", "sfexpr.dag_nodes",
)


class NullRecorder:
    """Records nothing; the request functions run at full speed."""

    context = None

    def span(self, name):
        return nullcontext()

    def count(self, name, n):
        pass


class Recorder:
    """Spans and counters of one traced run, kept in memory until the end.

    A span is ``(request, id, parent, name, start, end)``; the spans of one
    request share its number and hang off its ``request`` span."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.request = -1
        self.context = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid] = (self.request, sid, parent, name, start, end)
            self.seconds[name] += end - start

    def count(self, name, n):
        if name == "synthesis.peak_depth":
            self.counts[name] = max(self.counts[name], n)
        else:
            self.counts[name] += n

    def write_jsonl(self, path):
        keys = ("request", "id", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# request functions


def _language(sf, task, rec):
    """``run_cli``'s ``--regex R --alphabet A`` loading."""
    alphabet = sf.Alphabet.of(task.alphabet)
    with rec.span("regex.parse"):
        tree = sf.parse_regex(task.regex, alphabet)
    with rec.span("regex.to_dfa"):
        return sf.regex_to_dfa(tree, alphabet)


def decide(sf, d, rec):
    """``decide_star_free(d)`` with its default simplification."""
    with rec.span("automata.minimize"):
        minimal = sf.dfa_minimize(d)
    rec.count("automata.dfa_states", minimal.n_states)
    with rec.span("monoid.transition"):
        monoid, hom, accept = sf.transition_monoid(minimal, max_size=MAX_MONOID)
    rec.count("monoid.elements", monoid.size)
    with rec.span("monoid.aperiodic"):
        witness = sf.is_aperiodic(monoid)
    elements = tuple(sorted(accept))
    if witness is not None:
        return sf.StarFreenessVerdict(False, monoid.size, witness, None, elements)
    ctx = rec.context = sf.SynthesisContext(max_monoid=MAX_MONOID)
    expressions = []
    for p in elements:
        with rec.span("synthesis.synthesize"):
            e = sf.synthesize(hom, p, context=ctx)
        with rec.span("sfexpr.simplify"):
            expressions.append(sf.simplify(e))
    return sf.StarFreenessVerdict(True, monoid.size, None, tuple(expressions), elements)


def analyze(sf, task, rec):
    """``sfree analyze ... --json``: returns ``(exit code, stdout)``."""
    if task.table is not None:
        with rec.span("monoid.table"):
            with open(task.path, encoding="utf-8") as fh:
                monoid = sf.parse_monoid_table(fh.read())
        if monoid.size > MAX_MONOID:
            raise sf.MonoidSizeError(f"monoid size {monoid.size} exceeds the cap")
    else:
        d = _language(sf, task, rec)
        with rec.span("automata.minimize"):
            minimal = sf.dfa_minimize(d)
        rec.count("automata.dfa_states", minimal.n_states)
        with rec.span("monoid.transition"):
            monoid, _, _ = sf.transition_monoid(minimal, max_size=MAX_MONOID)
    rec.count("monoid.elements", monoid.size)
    with rec.span("monoid.aperiodic"):
        witness = sf.is_aperiodic(monoid)
    report = {
        "verdict": "star-free" if witness is None else "not-star-free",
        "monoid_size": monoid.size,
        "witness": None if witness is None else {
            "element": witness.element, "index": witness.index, "period": witness.period,
        },
    }
    return (0 if witness is None else 1), json.dumps(report)


def roundtrip(sf, task, rec, path):
    """``sfree synthesize --json``, the expression written to ``path``, then
    ``sfree verify --expr path``."""
    verdict = decide(sf, _language(sf, task, rec), rec)
    if not verdict.star_free:
        return {"rc": 1, "expression": None}
    expression = verdict.language_expression()
    with rec.span("sfexpr.render"):
        text = sf.render_expr(expression)
    rec.count("sfexpr.render_chars", len(text))
    with rec.span("sfexpr.metrics"):
        sf.metrics(expression)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    d = _language(sf, task, rec)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    with rec.span("sfexpr.parse"):
        parsed = sf.parse_expr(source, d.alphabet)
    with rec.span("sfexpr.eval"):
        evaluated = sf.eval_expr(parsed, d.alphabet)
    with rec.span("automata.equivalent"):
        equivalent = sf.dfa_equivalent(d, evaluated)
    return {
        "rc": 0,
        "expression": text,
        "verify_rc": 0 if equivalent else 1,
        "verify_out": f"equivalent: {'yes' if equivalent else 'no'}\n",
        "root": expression,
    }


# ---------------------------------------------------------------------------
# measurements taken after a traced request, outside its span


def expression_sizes(sf, root):
    """``(tree nodes, DAG nodes)`` by one iterative walk keyed on identity."""
    binary = (sf.sfexpr.Union, sf.sfexpr.Difference, sf.sfexpr.Concat)
    tree: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in tree:
            stack.pop()
            continue
        kids = (node.left, node.right) if isinstance(node, binary) else ()
        pending = [c for c in kids if id(c) not in tree]
        if pending:
            stack.extend(pending)
            continue
        tree[id(node)] = 1 + sum(tree[id(c)] for c in kids)
        stack.pop()
    return tree[id(root)], len(tree)


def harvest(sf, rec, root):
    """Book the synthesis context's counters and the output's size, and time
    ``local_divisor`` again on every ``(monoid, c)`` the context built."""
    ctx, rec.context = rec.context, None
    if ctx is not None:
        rec.count("synthesis.subproblems", ctx.calls)
        rec.count("synthesis.memo_entries", len(ctx.memo))
        rec.count("synthesis.embed_entries", len(ctx.embeds))
        rec.count("synthesis.peak_depth", ctx.peak_depth)
        rec.count("monoid.local_divisors", len(ctx.divisors))
        for (table, identity), c in list(ctx.divisors):
            monoid = sf.FiniteMonoid(table, identity)
            with rec.span("monoid.local_divisor"):
                sf.local_divisor(monoid, c)
    if root is not None:
        tree, dag = expression_sizes(sf, root)
        rec.count("sfexpr.tree_nodes", tree)
        rec.count("sfexpr.dag_nodes", dag)
