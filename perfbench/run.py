#!/usr/bin/env python3
"""Closed-loop benchmark of the sfree pipeline, one client, one process.

    python3 perfbench/run.py --workload decide-mix --seed 1 --seconds 40 --trace 0

Each request is sent when the previous one has completed, under a
per-request time limit enforced in-process with ``signal.setitimer``.
Times are wall-clock seconds.  Every
answer is checked against theory (see ``workloads.py``); a wrong answer
makes the command exit 1 after it prints its result.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(requests that raised or answered wrong) and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` each request runs
through the step-by-step request functions of ``tracing.py`` and the metrics are per
layer.  Per-request outcomes, and in a traced run every span, are written
as JSONL under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time

import reference as ref
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

LIMIT_S = {"decide-mix": 1.0, "synth-roundtrip": 1.5, "synth-hard": 1.0}
"""Per-request limits.  At the seed commit no input's time lies within a
factor 2 of its workload's limit, so whether a request makes it does not
depend on machine noise."""

SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10
"""The tail is the highest of ``TAIL_PERCENTILES`` with at least this many
samples above it.  A fixed ladder keeps parent and change on the same
percentile unless their sample counts differ by a lot."""


class RequestTimeout(BaseException):
    """Raised by the interval timer.  A ``BaseException`` so that no handler
    in the program under test can swallow it."""


def _expire(signum, frame):
    raise RequestTimeout


def timed(fn, limit):
    """``(seconds, result, error)`` of ``fn()`` under a wall-clock limit.
    ``error`` is ``"timeout"``, the exception raised, or ``None``.  The timer
    is live only inside the outer ``try`` and fires at most once, so the
    outer handler sees it wherever it lands."""
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            result, error = fn(), None
        except Exception as exc:  # the request failed; the run goes on
            result, error = None, exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        result, error = None, "timeout"
    return time.perf_counter() - start, result, error


# ---------------------------------------------------------------------------
# set-up


def import_sfree():
    """A fresh import of the package from ``src/`` in this checkout."""
    if not os.path.isfile(os.path.join(SRC, "sfree", "__init__.py")):
        raise ImportError(f"no sfree package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "sfree" or m.startswith("sfree.")]:
        del sys.modules[name]
    sf = importlib.import_module("sfree")
    importlib.import_module("sfree.cli")
    return sf


def generate(sf, workload, seed, workdir):
    if workload == "decide-mix":
        return workloads.decide_mix(seed, workdir)
    if workload == "synth-roundtrip":
        return workloads.synth_roundtrip(seed)
    tasks = workloads.synth_hard(seed)
    for task in tasks:
        alphabet = sf.Alphabet.of(task.alphabet)
        task.dfa = sf.regex_to_dfa(sf.parse_regex(task.regex, alphabet), alphabet)
    return tasks


def setup(workload, seed, workdir):
    """Import and generate ``SETUP_REPEATS`` times; the median is ``setup_s``."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        start = time.perf_counter()
        sf = import_sfree()
        tasks = generate(sf, workload, seed, workdir)
        seconds.append(time.perf_counter() - start)
    return sf, tasks, statistics.median(seconds)


# ---------------------------------------------------------------------------
# untraced requests: the CLI and library entry points a user calls


def cli(sf, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = sf.cli.run_cli(argv)
    return rc, out.getvalue()


def request(sf, workload, task, path):
    if workload == "decide-mix":
        if task.table is not None:
            source = ["--monoid", task.path]
        else:
            source = ["--regex", task.regex, "--alphabet", task.alphabet]
        return cli(sf, ["analyze", *source, "--json"])
    if workload == "synth-roundtrip":
        language = ["--regex", task.regex, "--alphabet", task.alphabet]
        rc, out = cli(sf, ["synthesize", *language, "--json"])
        if rc != 0:
            return {"rc": rc, "expression": None}
        text = json.loads(out)["expression"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        verify_rc, verify_out = cli(sf, ["verify", *language, "--expr", path])
        return {"rc": rc, "expression": text, "verify_rc": verify_rc, "verify_out": verify_out}
    return sf.decide_star_free(task.dfa)


def traced_request(sf, workload, task, path, rec):
    with rec.span("request"):
        if workload == "decide-mix":
            return tracing.analyze(sf, task, rec)
        if workload == "synth-roundtrip":
            return tracing.roundtrip(sf, task, rec, path)
        return tracing.decide(sf, task.dfa, rec)


# ---------------------------------------------------------------------------
# correctness gate: ``None`` when the answer agrees with theory, otherwise
# ``("error", why)`` for a refused request or ``("wrong", why)``


def check_analyze(task, result):
    rc, out = result
    if rc == 2:
        return "error", "exit code 2"
    try:
        report = json.loads(out)
    except ValueError:
        return "wrong", f"unreadable report {out!r}"
    witness = report["witness"]
    if task.star_free:
        if rc != 0 or report["verdict"] != "star-free" or witness is not None:
            return "wrong", f"expected star-free, got exit {rc}: {out.strip()}"
        return None
    if rc != 1 or report["verdict"] != "not-star-free" or witness is None:
        return "wrong", f"expected not star-free, got exit {rc}: {out.strip()}"
    x, index, period = witness["element"], witness["index"], witness["period"]
    if period < 2:
        return "wrong", f"witness period {period} < 2"
    if task.period_divides is not None and task.period_divides % period:
        return "wrong", f"witness period {period} does not divide {task.period_divides}"
    if task.table is not None:
        table, one = task.table, task.identity
        if not 0 <= x < len(table):
            return "wrong", f"witness element {x} outside the table"
        base = ref.power(table, one, x, index)
        if base != ref.power(table, one, x, index + period) or base == ref.power(
            table, one, x, index + 1
        ):
            return "wrong", f"witness {witness} does not hold in the table"
    return None


def check_expression(task, evaluate):
    """The expression must denote exactly the task's reference language."""
    try:
        got = evaluate(ref.Evaluator(task.alphabet))
    except (ValueError, KeyError, IndexError) as exc:
        return "wrong", f"expression does not evaluate: {exc!r}"
    if got != task.reference():
        return "wrong", "expression is not equivalent to the input language"
    return None


def sfexpr_kind(sf):
    m = sf.sfexpr
    names = {m.All: "ALL", m.Empty: "EMPTY", m.Epsilon: "EPS",
             m.Concat: ".", m.Union: "|", m.Difference: "\\"}
    return lambda node: node.symbol if type(node) is m.Letter else names[type(node)]


def check_roundtrip(task, result):
    if result["rc"] == 2 or result.get("verify_rc") == 2:
        return "error", "exit code 2"
    if result["rc"] != 0:
        return "wrong", f"synthesize exited {result['rc']} on a star-free language"
    if result["verify_rc"] != 0 or result["verify_out"] != "equivalent: yes\n":
        return "wrong", f"verify rejected the synthesized expression: {result['verify_out']!r}"
    return check_expression(task, lambda ev: ev.text(result["expression"]))


def check_hard(sf, task, verdict):
    if not verdict.star_free or verdict.expressions is None:
        return "wrong", "a star-free language was reported not star-free"
    kind = sfexpr_kind(sf)
    return check_expression(
        task, lambda ev: ev.tree(
            verdict.language_expression(), kind, lambda n: (n.left, n.right)
        )
    )


def check(sf, workload, task, result):
    if workload == "decide-mix":
        return check_analyze(task, result)
    if workload == "synth-roundtrip":
        return check_roundtrip(task, result)
    return check_hard(sf, task, result)


def outcome(sf, workload, task, result, error):
    """``(status, detail)``: status is ok, timeout, error or wrong."""
    if error == "timeout":
        return "timeout", None
    if error is not None:
        return "error", f"{type(error).__name__}: {error}"
    verdict = check(sf, workload, task, result)
    return ("ok", None) if verdict is None else verdict


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(latencies):
    """``(value, percentile)`` by the nearest-rank method."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND or p == TAIL_PERCENTILES[-1]:
            return ordered[max(rank, 1) - 1], p


def end_to_end(latencies, completed, setup_s):
    value, _ = tail(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (value, "s"),
        "throughput_rps": (completed / sum(latencies), "1/s"),
        "completed_share": (completed / len(latencies), "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(rec, overhead_s):
    request_s = rec.seconds["request"]
    metrics = {"request_s": (request_s, "s"), "trace.overhead_s": (overhead_s, "s")}
    for layer in tracing.SPAN_LAYERS:
        seconds = rec.seconds[layer]
        metrics[f"{layer}_s"] = (seconds, "s")
        metrics[f"{layer}_share"] = (seconds / request_s if request_s else 0.0, "fraction")
    for name in tracing.COUNTERS:
        metrics[name] = (rec.counts[name], "count")
    return metrics


# ---------------------------------------------------------------------------


def traced_pair(sf, workload, task, path, rec, limit, traced_first):
    """The request through the step-by-step functions, traced and untraced, in the
    given order; alternating it keeps either side from always inheriting
    the other's garbage.  Returns the traced ``timed`` triple and the
    tracing overhead (0 unless both sides completed)."""

    def untraced():
        return timed(lambda: traced_request(
            sf, workload, task, path, tracing.NullRecorder()), limit)

    def traced():
        return timed(lambda: traced_request(sf, workload, task, path, rec), limit)

    if traced_first:
        elapsed, result, error = traced()
        plain_s, _, plain_error = untraced()
    else:
        plain_s, _, plain_error = untraced()
        elapsed, result, error = traced()
    root = None
    if error is None and workload == "synth-roundtrip":
        root = result.get("root")
    elif error is None and workload == "synth-hard" and result.star_free:
        root = result.language_expression()
    tracing.harvest(sf, rec, root)
    overhead = elapsed - plain_s if error is None and plain_error is None else 0.0
    return elapsed, result, error, overhead


def run(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    try:
        sf, tasks, setup_s = setup(workload, seed, workdir)
        return measure(sf, workload, seed, tasks, setup_s, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(sf, workload, seed, tasks, setup_s, seconds, trace, workdir):
    limit = LIMIT_S[workload]
    path = os.path.join(workdir, "expression.txt")
    rec = tracing.Recorder()
    latencies, records = [], []
    counts = dict.fromkeys(("ok", "timeout", "error", "wrong"), 0)
    overhead_s = 0.0
    deadline = time.perf_counter() + seconds
    for i, task in enumerate(tasks):
        if i and time.perf_counter() >= deadline:
            break
        if task.table is not None:
            workloads.write_table(task)
        if trace:
            rec.request = i
            elapsed, result, error, overhead = traced_pair(sf, workload, task, path, rec, limit, i % 2)
            overhead_s += overhead
        else:
            elapsed, result, error = timed(lambda: request(sf, workload, task, path), limit)
        status, detail = outcome(sf, workload, task, result, error)
        counts[status] += 1
        latencies.append(elapsed if status == "ok" else max(elapsed, limit))
        records.append({"input": task.label, "status": status, "seconds": elapsed,
                        "detail": detail})
        if status == "wrong":
            print(f"wrong answer: {task.label}: {detail}", file=sys.stderr)

    tag = f"{workload}-{seed}-trace{int(trace)}"
    with open(os.path.join(OUT, f"requests-{tag}.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)
    if trace:
        rec.write_jsonl(os.path.join(OUT, f"spans-{tag}.jsonl"))
        metrics = per_layer(rec, overhead_s)
    else:
        metrics = end_to_end(latencies, counts["ok"], setup_s)

    _, percentile = tail(latencies)
    print(f"workload {workload} seed {seed} limit {limit} s: {len(latencies)} requests, "
          + ", ".join(f"{n} {k}" for k, n in counts.items()))
    print(f"latency tail is p{percentile} of {len(latencies)} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": counts["wrong"] == 0,
        "attempted": len(latencies),
        "failed": counts["error"] + counts["wrong"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(LIMIT_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _expire)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
