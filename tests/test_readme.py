"""Every ``$ diffalg ...`` example in README.md prints what the README shows."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from diffalg.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "    $ "


def _examples() -> list[tuple[int, str, str]]:
    """(line number, command, pasted output) for each prompt line.

    The pasted output is the indented lines that follow the prompt, up to
    the next prompt or the end of the indented block.
    """
    lines = README.read_text(encoding="utf-8").splitlines()
    examples = []
    for number, line in enumerate(lines, start=1):
        if not line.startswith(PROMPT):
            continue
        shown = []
        for following in lines[number:]:
            if following.startswith(PROMPT) or not following.startswith("    "):
                break
            shown.append(following[4:] + "\n")
        examples.append((number, line[len(PROMPT):], "".join(shown)))
    return examples


EXAMPLES = _examples()


def _replay(command: str) -> str:
    """Stdout of the last stage plus the stderr of every stage."""
    words = shlex.split(command)
    stages: list[list[str]] = [[]]
    for word in words:
        if word == "|":
            stages.append([])
        else:
            stages[-1].append(word)
    stdin_text, errors = "", ""
    for stage in stages:
        assert stage[0] == "diffalg"
        _, stdin_text, err = run(stage[1:], stdin_text)
        errors += err
    return stdin_text + errors


def test_examples_found():
    assert len(EXAMPLES) >= 15
    assert all(command.startswith("diffalg ") for _, command, _ in EXAMPLES)


@pytest.mark.parametrize(
    "command, shown",
    [(command, shown) for _, command, shown in EXAMPLES],
    ids=[f"README.md:{number}" for number, _, _ in EXAMPLES],
)
def test_example_output(command, shown):
    assert _replay(command) == shown
