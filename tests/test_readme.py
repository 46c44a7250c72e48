"""The README's examples run as written, so a removed flag cannot linger there."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from mixedsing.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def _commands() -> list[list[str]]:
    """Every `mixedsing ...` line of the shell blocks, continuations joined."""
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["mixedsing"]:
                commands.append(words[1:])
    return commands


def test_shell_examples_exit_0(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # one example writes report.json
    commands = _commands()
    assert {argv[0] for argv in commands} == {
        "analyze", "wirtinger", "polar", "disc", "thom-probe", "list-fixtures",
    }
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_library_snippet_prints_its_comments():
    (snippet,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    assert out.getvalue() == "yes polar\nno disc-lines\n"
