import json
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from corpus import APERIODIC_CORPUS, NON_APERIODIC, dfa_objects, dfa_to_dict, format_monoid_table
from sfree import cli
from sfree.automata import Alphabet
from sfree.cli import run_cli
from sfree.monoid import FiniteMonoid
from sfree.regex import parse_regex, regex_to_dfa


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_periodic_language(self, capsys):
        code, out, _ = run(capsys, "analyze", "--regex", "(aa)*")
        assert code == 1
        assert "aperiodic: no" in out
        assert "witness: element" in out and "period 2" in out
        assert "star-free: no" in out

    def test_star_free_language(self, capsys):
        code, out, _ = run(capsys, "analyze", "--regex", "(ab)*")
        assert code == 0
        assert "monoid size: 6" in out
        assert "star-free: yes" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--regex", "(aa)*", "--json")
        assert code == 1
        obj = json.loads(out)
        assert obj["verdict"] == "not-star-free"
        assert obj["monoid_size"] == 2
        assert obj["witness"]["period"] == 2
        assert obj["expression"] is None and obj["metrics"] is None

    def test_alphabet_flag_changes_the_language(self, capsys):
        # a* over {a} is universal; over {a,b} it is not the same monoid
        code, out, _ = run(capsys, "analyze", "--regex", "a*", "--json")
        assert json.loads(out)["monoid_size"] == 1
        code, out, _ = run(
            capsys, "analyze", "--regex", "a*", "--alphabet", "ab", "--json"
        )
        assert json.loads(out)["monoid_size"] == 2

    def test_dfa_file_input(self, capsys, tmp_path):
        alphabet = Alphabet.of("ab")
        d = regex_to_dfa(parse_regex("(ab)*", alphabet), alphabet)
        path = tmp_path / "abstar.json"
        path.write_text(json.dumps(dfa_to_dict(d)), encoding="utf-8")
        code, out, _ = run(capsys, "analyze", "--dfa", str(path))
        assert code == 0 and "monoid size: 6" in out

    def test_monoid_file_input(self, capsys, tmp_path):
        aperiodic = write(tmp_path, "m1.txt", format_monoid_table(FiniteMonoid(((0, 1), (1, 1)), 0)))
        code, out, _ = run(capsys, "analyze", "--monoid", aperiodic)
        assert code == 0 and "aperiodic: yes" in out

        z2 = write(tmp_path, "m2.txt", format_monoid_table(FiniteMonoid(((0, 1), (1, 0)), 0)))
        code, out, _ = run(capsys, "analyze", "--monoid", z2)
        assert code == 1 and "witness: element 1, index 1, period 2" in out

    def test_monoid_with_letter_map(self, capsys, tmp_path):
        # analyze has no letter-map option
        table = write(tmp_path, "m.txt", "2 0\n0 1\n1 1\n")
        for letters in ("a=1,b=0", "a=9"):
            code, out, err = run(capsys, "analyze", "--monoid", table, "--letters", letters)
            assert code == 2 and out == ""
            assert err.startswith("error: usage:") and "--letters" in err

    def test_monoid_with_alphabet_is_a_usage_error(self, capsys, tmp_path):
        # a table has no letters, so an alphabet for it would be ignored
        table = write(tmp_path, "m.txt", "2 0\n0 1\n1 1\n")
        code, out, err = run(capsys, "analyze", "--monoid", table, "--alphabet", "ab")
        assert code == 2 and out == ""
        assert err.startswith("error: usage:") and "--alphabet" in err

    def test_table_over_the_cap_is_refused_before_associativity(
        self, capsys, tmp_path, monkeypatch
    ):
        # x*y = max(x, y): checking associativity of 600 elements takes seconds
        n = 600
        rows = (" ".join(str(max(x, y)) for y in range(n)) for x in range(n))
        table = write(tmp_path, "big.txt", f"{n} 0\n" + "\n".join(rows) + "\n")

        def validate_monoid(*args):
            raise AssertionError("the laws were checked before the size")

        monkeypatch.setattr("sfree.monoid.validate_monoid", validate_monoid)
        code, out, err = run(capsys, "analyze", "--monoid", table)
        assert code == 2 and out == ""
        assert err == "error: monoid-cap: monoid size 600 exceeds the cap 64\n"

    def test_long_word_is_refused_by_the_cap_quickly(self, capsys):
        # 4002 minimal states: more than the cap, known before enumerating
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", "--regex", "(ab)" * 2000, "--alphabet", "ab")
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert err == "error: monoid-cap: transition monoid exceeds the size cap 64\n"

    def test_input_error_is_machine_parsable(self, capsys):
        code, _, err = run(capsys, "analyze", "--regex", "a|")
        assert code == 2
        assert err.startswith("error: parse:")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--dfa", "/nonexistent.json")
        assert code == 2 and err.startswith("error: io:")

    def test_exactly_one_source_required(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2 and err.startswith("error: usage:")


class TestSynthesize:
    def test_round_trip_through_verify(self, capsys, tmp_path):
        code, out, _ = run(capsys, "synthesize", "--regex", "(ab)*", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "star-free"
        assert obj["metrics"]["n_bound"] >= 1
        expr_file = write(tmp_path, "expr.txt", obj["expression"] + "\n")
        code, out, _ = run(capsys, "verify", "--regex", "(ab)*", "--expr", expr_file)
        assert code == 0 and "equivalent: yes" in out

    def test_text_report_fields(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--regex", "a", "--alphabet", "ab")
        assert code == 0
        assert "expression:" in out and "nodes:" in out and "n bound:" in out

    def test_refuses_non_aperiodic(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--regex", "(aa)*")
        assert code == 1
        assert "no expression" in out

    def test_no_simplify_flag(self, capsys):
        # the flag is removed: simplify always runs, so it is a usage error
        code, out, err = run(
            capsys, "synthesize", "--regex", "(ab)*", "--no-simplify", "--json"
        )
        assert code == 2 and out == "" and err.startswith("error: usage:")

    def test_monoid_cap(self, capsys):
        code, _, err = run(
            capsys, "synthesize", "--regex", "(ab)*", "--max-monoid", "3"
        )
        assert code == 2 and err.startswith("error: monoid-cap:")

    @pytest.mark.parametrize("command", ["analyze", "synthesize"])
    @pytest.mark.parametrize("regex", ["(a|b)*", "ab"])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_monoid_cap_below_one_is_a_usage_error(self, capsys, command, regex, cap):
        code, out, err = run(capsys, command, "--regex", regex, "--max-monoid", cap)
        assert code == 2 and out == "" and err.startswith("error: usage:")


class TestVerify:
    def test_inequivalent(self, capsys, tmp_path):
        expr_file = write(tmp_path, "e.txt", "a")
        code, out, _ = run(capsys, "verify", "--regex", "b", "--alphabet", "ab", "--expr", expr_file)
        assert code == 1 and "equivalent: no" in out

    def test_equivalent_json(self, capsys, tmp_path):
        expr_file = write(tmp_path, "e.txt", "ALL \\ ALL . b . ALL")
        code, out, _ = run(
            capsys, "verify", "--regex", "a*", "--alphabet", "ab",
            "--expr", expr_file, "--json",
        )
        assert code == 0 and json.loads(out) == {"equivalent": True}

    def test_unbound_letter_in_expression(self, capsys, tmp_path):
        expr_file = write(tmp_path, "e.txt", "z")
        code, _, err = run(capsys, "verify", "--regex", "a", "--expr", expr_file)
        assert code == 2 and err.startswith("error: parse:")


class TestBound:
    @pytest.mark.parametrize(
        "text,expected", [("ALL", 0), ("a", 2), ("a . b", 5), ("EPS", 4)]
    )
    def test_values(self, capsys, tmp_path, text, expected):
        expr_file = write(tmp_path, "e.txt", text)
        code, out, _ = run(capsys, "bound", "--expr", expr_file)
        assert code == 0 and out.strip() == str(expected)

    def test_json(self, capsys, tmp_path):
        expr_file = write(tmp_path, "e.txt", "a . b")
        code, out, _ = run(capsys, "bound", "--expr", expr_file, "--json")
        assert code == 0 and json.loads(out) == {"n_bound": 5}

    def test_syntax_error(self, capsys, tmp_path):
        expr_file = write(tmp_path, "e.txt", "a |")
        code, _, err = run(capsys, "bound", "--expr", expr_file)
        assert code == 2 and err.startswith("error: parse:")


class TestOracle:
    def test_agreement(self, capsys, tmp_path):
        expr_file = write(tmp_path, "e.txt", "ALL \\ ALL . b . ALL")
        code, out, _ = run(
            capsys, "oracle", "--regex", "a*", "--alphabet", "ab",
            "--expr", expr_file, "--maxlen", "6",
        )
        assert code == 0 and "agree" in out

    def test_first_disagreement_reported(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--regex", "a*", "--regex", "(a|b)*",
            "--alphabet", "ab", "--maxlen", "4",
        )
        assert code == 1
        assert "disagree: word 'b' left=no right=yes" in out

    def test_json_disagreement(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--regex", "a", "--regex", "b",
            "--alphabet", "ab", "--json",
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["agree"] is False and obj["word"] == "a"

    def test_alphabet_mismatch(self, capsys):
        code, _, err = run(capsys, "oracle", "--regex", "a", "--regex", "b")
        assert code == 2 and err.startswith("error: alphabet:")

    def test_needs_two_specs(self, capsys):
        code, _, err = run(capsys, "oracle", "--regex", "a")
        assert code == 2 and err.startswith("error: usage:")

    def test_dfa_spec(self, capsys, tmp_path):
        alphabet = Alphabet.of("ab")
        d = regex_to_dfa(parse_regex("(ab)*", alphabet), alphabet)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(dfa_to_dict(d)), encoding="utf-8")
        code, out, _ = run(
            capsys, "oracle", "--dfa", str(path), "--regex", "(ab)*", "--maxlen", "6"
        )
        assert code == 0

    @pytest.mark.parametrize("maxlen", ["-1", "-5"])
    def test_negative_maxlen_is_a_usage_error(self, capsys, maxlen):
        # the two languages differ, so a silent "agree" would be wrong
        code, out, err = run(
            capsys, "oracle", "--regex", "a", "--regex", "b",
            "--alphabet", "ab", "--maxlen", maxlen,
        )
        assert code == 2 and out == "" and err.startswith("error: usage:")
        assert len(err.splitlines()) == 1

    def test_zero_maxlen_compares_the_empty_word(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--regex", "a", "--regex", "b",
            "--alphabet", "ab", "--maxlen", "0",
        )
        assert code == 0 and out == "agree: no disagreement up to length 0\n"


class TestDeepInputs:
    """Inputs nested past the interpreter's recursion limit keep the exit-code
    contract: 2 for refused input, never a traceback."""

    def test_deeply_parenthesized_regex_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--regex", "(" * 300 + "a" + ")" * 300)
        assert code == 2 and err.startswith("error: parse:")

    def test_stacked_stars_compile(self, capsys):
        code, out, _ = run(capsys, "analyze", "--regex", "a" + "*" * 3000, "--json")
        assert code == 0 and json.loads(out)["monoid_size"] == 1

    def test_deeply_parenthesized_expression_is_an_input_error(self, capsys, tmp_path):
        expr_file = write(tmp_path, "deep.txt", "(" * 2000 + "a" + ")" * 2000)
        code, _, err = run(capsys, "bound", "--expr", expr_file)
        assert code == 2 and err.startswith("error: parse:")

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("bound",), " . ".join(["a"] * 3000)),
            (("verify", "--regex", "(a|b)*"), " . ".join(["ALL"] * 3000)),
            (("verify", "--regex", "a", "--alphabet", "ab"), " | ".join(["a"] * 3000)),
        ],
        ids=["bound-concat", "verify-concat", "verify-union"],
    )
    def test_long_flat_chain_is_an_input_error(self, capsys, tmp_path, argv, text):
        expr_file = write(tmp_path, "flat.txt", text)
        code, out, err = run(capsys, *argv, "--expr", expr_file)
        assert code == 2 and out == ""
        assert err.startswith("error: depth:") and err.count("\n") == 1


UNDECODABLE = b"\xff\xfe(a\x80 not UTF-8\n"


def assert_exit_contract(code, out, err):
    """A verdict (0 or 1) with nothing on stderr, or an input error (2) with
    nothing on stdout and one ``error:`` line on stderr."""
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1) and err == ""


class TestMalformedFiles:
    """A file that cannot be read as the input it should be is an input error
    (exit 2), never a traceback or a verdict."""

    @staticmethod
    def assert_parse_error(code, out, err):
        assert code == 2 and out == ""
        assert err.startswith("error: parse:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--dfa"),
            ("analyze", "--monoid"),
            ("synthesize", "--dfa"),
            ("verify", "--regex", "a", "--expr"),
            ("bound", "--expr"),
            ("oracle", "--regex", "a", "--expr"),
            ("oracle", "--regex", "a", "--dfa"),
        ],
        ids=lambda argv: "-".join(a.strip("-") for a in argv if a != "a"),
    )
    def test_undecodable_file(self, capsys, tmp_path, argv):
        path = tmp_path / "input"
        path.write_bytes(UNDECODABLE)
        self.assert_parse_error(*run(capsys, *argv, str(path)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("states", True),
            ("initial", 0.0),
            ("initial", True),
            ("accepting", [1.5]),
            ("accepting", [False]),
            ("accepting", "0"),
            ("delta", [[1, 2], [2, True], [2, 2]]),
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "synthesize"])
    def test_non_integer_state(self, capsys, tmp_path, command, field, value):
        alphabet = Alphabet.of("ab")
        obj = dfa_to_dict(regex_to_dfa(parse_regex("(ab)*", alphabet), alphabet))
        obj[field] = value
        path = write(tmp_path, "d.json", json.dumps(obj))
        self.assert_parse_error(*run(capsys, command, "--dfa", path))


# monoid-table-shaped text: lines of small numbers and a few bad tokens
_table_texts = st.lists(
    st.lists(st.integers(-1, 3).map(str) | st.sampled_from(["x", "1.5", "٣"]), max_size=4)
    .map(" ".join),
    max_size=5,
).map("\n".join)
_FUZZ = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_FUZZ
@given(st.binary(max_size=64) | _table_texts.map(str.encode))
def test_analyze_monoid_file_keeps_exit_contract(capsys, tmp_path, data):
    path = tmp_path / "table.txt"
    path.write_bytes(data)
    assert_exit_contract(*run(capsys, "analyze", "--monoid", str(path)))


@_FUZZ
@given(st.binary(max_size=64) | dfa_objects.map(lambda obj: json.dumps(obj).encode()))
def test_analyze_dfa_file_keeps_exit_contract(capsys, tmp_path, data):
    path = tmp_path / "d.json"
    path.write_bytes(data)
    assert_exit_contract(*run(capsys, "analyze", "--dfa", str(path)))


class TestParserReuse:
    """The argument parser is built once per process; no call may see state
    left by an earlier one.  Each call in a sequence must match the same call
    made with a freshly built parser, as in a new process."""

    def check_sequence(self, capsys, calls):
        assert cli._parser() is cli._parser()
        reused = [run(capsys, *argv) for argv in calls]
        for argv, got in zip(calls, reused):
            cli._parser.cache_clear()
            assert run(capsys, *argv) == got, argv

    def test_consecutive_oracle_specs(self, capsys):
        self.check_sequence(capsys, [
            ("oracle", "--regex", "a*", "--regex", "(a|b)*", "--alphabet", "ab"),
            ("oracle", "--regex", "a", "--regex", "a", "--alphabet", "ab"),
        ])

    def test_usage_error_then_analyze(self, capsys):
        self.check_sequence(capsys, [
            ("analyze", "--regex", "(ab)*", "--bogus"),
            ("analyze", "--regex", "(ab)*"),
        ])

    def test_json_and_plain_alternate(self, capsys):
        self.check_sequence(capsys, [
            ("analyze", "--regex", "(aa)*", "--json"),
            ("analyze", "--regex", "(aa)*"),
            ("analyze", "--regex", "(ab)*", "--json"),
            ("analyze", "--regex", "(ab)*"),
        ])


class TestCorpusInvariants:
    def test_analyze_exit_code_matches_aperiodicity(self, capsys):
        for name, pattern, letters in APERIODIC_CORPUS:
            code, _, _ = run(capsys, "analyze", "--regex", pattern, "--alphabet", letters)
            assert code == 0, name
        for name, pattern, letters in NON_APERIODIC:
            code, _, _ = run(capsys, "analyze", "--regex", pattern, "--alphabet", letters)
            assert code == 1, name

    def test_synthesize_verify_and_oracle_round_trip(self, capsys, tmp_path):
        for name, pattern, letters in APERIODIC_CORPUS:
            code, out, _ = run(
                capsys, "synthesize", "--regex", pattern,
                "--alphabet", letters, "--json",
            )
            assert code == 0, name
            expr_file = write(tmp_path, f"{name}.expr", json.loads(out)["expression"])
            code, _, _ = run(
                capsys, "verify", "--regex", pattern, "--alphabet", letters,
                "--expr", expr_file,
            )
            assert code == 0, name
            code, out, _ = run(
                capsys, "oracle", "--regex", pattern, "--expr", expr_file,
                "--alphabet", letters, "--maxlen", "8",
            )
            assert code == 0, name
