"""README's Python quick tour and command-line block run as written."""

import os
import re

from wavekit import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _block(heading, lang=""):
    """The first fenced block, of language ``lang``, under ``heading``."""
    with open(README) as fh:
        text = fh.read()
    return re.search(rf"```{lang}\n(.*?)```", text[text.index(heading):], re.S).group(1)


def test_quick_tour_runs():
    block = _block("## Library quick tour", "python")
    exec(compile(block, "README.md quick tour", "exec"), {})


def test_command_line_runs(tmp_path, capsys):
    # Each command in process, its `\` continuations joined, with the
    # figures written to tmp_path instead of data/.
    commands = _block("## Command line").replace("\\\n", " ").splitlines()
    assert [line.split()[:2] for line in commands] == [
        ["wavekit", name] for name in ("moments", "evolve", "spread", "boost", "cosmo", "figures", "selfcheck")
    ]
    for line in commands:
        argv = [str(tmp_path) if word == "data/" else word for word in line.split()[1:]]
        assert cli.main(argv) == 0, (line, capsys.readouterr().err)
    assert sorted(os.listdir(tmp_path)) == [f"fig{i}.csv" for i in (1, 2, 3, 4)]
