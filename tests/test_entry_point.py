"""The CLI entry point, end to end: ``python -m diffalg.cli`` in a
subprocess, with real stdin, stdout, stderr and exit code.

Each row is one invocation on a bad or extreme input and what it must
print.  A row may read its stdin from the stdout of an upstream command,
optionally with one line edited, as a shell pipe would pass it.  Every
run must end within five seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# str() refuses an int of more digits than this; 0 means no limit.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

REDUCE = ["reduce", "--vars", "u,y", "--dividend", "y''", "--divisor", "(y')^2 - 4*y"]
REDUCE_NONCONSTANT_INITIAL = [
    "reduce", "--vars", "u,y", "--dividend", "y''", "--divisor", "(u+1)*(y')^2 - 4*y",
]
# The same division with each flag in the --flag=value form.
REDUCE_FLAG_FORMS = ["reduce", "--vars=u,y", "--dividend=y''", "--divisor=(y')^2 - 4*y"]
TOP = "9223372036854775807"  # 2^63 - 1


def _cli(argv: list[str], stdin_text: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    return subprocess.run(
        [sys.executable, *dev, "-m", "diffalg.cli", *argv],
        input=stdin_text, capture_output=True, text=True, timeout=5, env=env,
    )


def _error(argv: list[str], slug: str):
    """A row whose run must exit 1 with one ``error: <slug>:`` line."""
    return argv, None, None, 1, "", slug


CASES = [
    pytest.param(["verify"], REDUCE, None, 0, "valid\n", None, id="reduce-pipe-verify"),
    pytest.param(
        ["verify"], [*REDUCE_FLAG_FORMS, "--weak"], None, 0, "valid\n", None,
        id="reduce-weak-pipe-verify",
    ),
    pytest.param(*_error(["nosuch"], "usage"), id="unknown-command"),
    pytest.param(*_error(["parse", "--vars", "y", "y +"], "parse-error"), id="parse-error"),
    pytest.param(
        ["verify"], REDUCE_NONCONSTANT_INITIAL, ("m: 1", "m: 100000000"),
        0, "invalid: identity\n", None, id="verify-huge-initial-power",
    ),
    pytest.param(
        *_error(["parse", "--vars", "y", f"(y^{TOP})^2"], "exponent-out-of-range"),
        id="computed-exponent-2^63",
    ),
    pytest.param(
        *_error(["parse", "--vars", "y", f"y^({TOP})"], "exponent-out-of-range"),
        id="derivative-order-2^63",
    ),
    pytest.param(
        *_error(["parse", "--vars", "y", "y^(100000000)"], "exponent-out-of-range"),
        id="derivative-order-10^8",
    ),
    pytest.param(
        *_error(["parse", "--vars", "y", "2^20000"], "exponent-out-of-range"),
        id="coefficient-past-digit-limit",
        marks=pytest.mark.skipif(INT_DIGITS == 0, reason="int-to-str conversion has no limit"),
    ),
    # Before Python 3.13, argparse stored "--flag=--" as an empty list.
    pytest.param(
        *_error(["reduce", "--vars", "u,y", "--dividend=--", "--divisor=y"], "parse-error"),
        id="dividend-double-dash",
    ),
    pytest.param(
        *_error(["witness", "--vars", "u,y", "--target=--"], "parse-error"),
        id="target-double-dash",
    ),
    pytest.param(
        *_error(
            ["resultant", "--vars", "u,y", "--first=--", "--second=y", "--leader=y"],
            "parse-error",
        ),
        id="first-double-dash",
    ),
]


@pytest.mark.parametrize("argv, upstream, edit, code, stdout, slug", CASES)
def test_entry_point(argv, upstream, edit, code, stdout, slug):
    stdin_text = ""
    if upstream is not None:
        piped = _cli(upstream)
        assert (piped.returncode, piped.stderr) == (0, "")
        stdin_text = piped.stdout
        if edit is not None:
            old, new = edit
            assert f"\n{old}\n" in stdin_text
            stdin_text = stdin_text.replace(f"\n{old}\n", f"\n{new}\n")
    done = _cli(argv, stdin_text)
    assert (done.returncode, done.stdout) == (code, stdout)
    if slug is None:
        assert done.stderr == ""
    else:
        assert done.stderr.startswith(f"error: {slug}: ")
        assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")


def test_command_help():
    done = _cli(["reduce", "--help"])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: diffalg reduce")
