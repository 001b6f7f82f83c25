"""The README's CLI transcripts, re-run in-process.

Every ``$ symdyn ...`` line in a ``text`` block is run through
``symdyn.cli.main`` in a fresh directory, in the order the block shows
them (a later command may read a file an earlier one wrote), and its
whole stdout is compared with the lines printed under it.
"""

import shlex
from pathlib import Path

import pytest

from symdyn.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def transcripts(text: str) -> list:
    """Per ``text`` block, the ``(argv, expected stdout)`` of each command."""
    blocks, block, lines = [], None, iter(text.splitlines())
    for line in lines:
        if block is None:
            if line.strip() == "```text":
                block = []
            continue
        if line.strip() == "```":
            blocks.append(block)
            block = None
        elif line.startswith("$ symdyn "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines).strip()
            block.append((shlex.split(command)[1:], []))
        elif line.strip() and block:
            block[-1][1].append(line)
    return [
        [(argv, "".join(out + "\n" for out in output)) for argv, output in b]
        for b in blocks
        if b
    ]


BLOCKS = transcripts(README.read_text(encoding="utf-8"))


def test_readme_has_its_cli_examples():
    assert sum(len(b) for b in BLOCKS) == 16


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: b[0][0][0])
def test_readme_transcript_matches(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, expected in block:
        main(argv)
        assert capsys.readouterr().out == expected, shlex.join(argv)
