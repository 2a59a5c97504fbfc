"""The README's examples, run as written: the ``$ sfree ...`` transcripts of
its CLI section through ``run_cli``, and its Library snippet."""

import io
import re
import shlex
from pathlib import Path

from sfree.cli import run_cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _transcripts():
    """(command, expected output) for each ``$ `` line of the CLI section;
    the output is every line up to the next blank line."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", _section("CLI"), re.S):
        for chunk in block.split("\n\n"):
            first, *rest = chunk.strip("\n").split("\n")
            if first.startswith("$ "):
                out.append((first[2:], "".join(line + "\n" for line in rest)))
    return out


def _run(command, capsys, monkeypatch):
    """Run one transcript line: an optional ``echo TEXT > FILE &&`` set-up,
    the ``sfree`` command, and an optional ``| python3 -c CODE`` filter."""
    setup, _, command = command.rpartition(" && ")
    if setup:
        echo, *words, redirect, path = shlex.split(setup)
        assert echo == "echo" and redirect == ">"
        Path(path).write_text(" ".join(words) + "\n", encoding="utf-8")
    command, _, pipe = command.partition(" | ")
    program, *argv = shlex.split(command)
    assert program == "sfree"
    assert run_cli(argv) in (0, 1)
    out = capsys.readouterr().out
    if pipe:
        python, flag, code = shlex.split(pipe)
        assert (python, flag) == ("python3", "-c")
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        exec(code, {})
        out = capsys.readouterr().out
    return out


def test_cli_transcripts(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    transcripts = _transcripts()
    assert [command.split()[:2] for command, _ in transcripts] == [
        ["sfree", "analyze"],
        ["sfree", "synthesize"],
        ["echo", "'a"],
    ]
    for command, expected in transcripts:
        assert _run(command, capsys, monkeypatch) == expected, command
    witness, metrics, bound = (expected for _, expected in transcripts)
    assert "witness: element 1, index 1, period 2\n" in witness
    assert metrics == "{'node_count': 563, 'concat_depth': 18, 'n_bound': 264}\n"
    assert bound == "5\n"


def test_library_snippet(capsys):
    (snippet,) = re.findall(r"```python\n(.*?)```", _section("Library"), re.S)
    exec(snippet, {})
    assert capsys.readouterr().out.count("\n") == 1
