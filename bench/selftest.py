"""Self-test of the benchmark harness.

    python3 bench/selftest.py

For each workload it runs a few items at tiny size, requires every one to
pass the correctness gate, and shows that a one-character corruption of an
output makes that item count as failed:

* reduce -> verify: the ``valid`` line, and each polynomial line of the
  certificate (then re-verified through the CLI);
* witness: the first character of every value in the document.

An exception raised inside ``cli.run`` must also count as a failed item
rather than stop the run.

It also checks that the text generator draws the same polynomials as the
test suite's ``random_poly`` (when tests/_corpus.py is present), and that
the tracer reports every per-layer metric and leaves outputs unchanged.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import diffalg.cli as cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_item  # noqa: E402

ITEMS = 4
PAYLOAD_KEYS = ("F", "A", "G")


def corrupt(text: str, position: int) -> str:
    """``text`` with the character at ``position`` replaced by another."""
    ch = text[position]
    if ch.isdigit():
        new = str((int(ch) + 1) % 10)
    elif ch.isalpha():
        new = "b" if ch == "a" else "a"
    else:
        new = "+" if ch == "-" else "-"
    return text[:position] + new + text[position + 1:]


def value_positions(document: str, keys=None) -> list[tuple[str, int]]:
    """(key, offset of the first value character) for each document line."""
    found, offset = [], 0
    for line in document.splitlines(keepends=True):
        key, sep, _ = line.partition(": ")
        if sep and (keys is None or key in keys or key.startswith("cofactor.")):
            found.append((key, offset + len(key) + len(sep)))
        offset += len(line)
    return found


def corruptions(item: dict, calls: list) -> list[tuple[str, list]]:
    """Labelled copies of ``calls`` with one output character changed."""
    if item["kind"] == "call":
        code, out, err = calls[0]
        return [(f"witness {key}", [(code, corrupt(out, pos), err)])
                for key, pos in value_positions(out)]
    (code, document, err), verified = calls
    cases = [("verify output", [calls[0], (verified[0], corrupt(verified[1], 0), verified[2])])]
    for key, pos in value_positions(document, PAYLOAD_KEYS):
        bad = corrupt(document, pos)
        cases.append((f"certificate {key}", [(code, bad, err), cli.run(["verify"], bad)]))
    return cases


def check_generator() -> list[str]:
    tests = ROOT / "tests"
    if not (tests / "_corpus.py").is_file():
        print("generator: tests/_corpus.py not present, skipped")
        return []
    sys.path.insert(0, str(tests))
    import _corpus
    from diffalg import Context, parse_poly

    ctx = Context("u", "y")
    mine, theirs = random.Random(5), random.Random(5)
    for _ in range(200):
        text = workloads.render(workloads.random_terms(mine, ctx.names), ctx.names)
        if parse_poly(text, ctx) != _corpus.random_poly(theirs, ctx):
            return [f"generator: {text!r} differs from random_poly"]
    print("generator: 200 polynomials equal to random_poly")
    return []


def check_exception(items: list[dict]) -> list[str]:
    """Each item fails its check, and the next item still runs, when
    ``cli.run`` raises."""

    def broken(argv, stdin_text=""):
        raise ZeroDivisionError("injected")

    original = cli.run
    cli.run = broken
    try:
        results = [run_item(item) for item in items]
    finally:
        cli.run = original
    problems = [f"exception: item {index} passed"
                for index, (item, calls) in enumerate(zip(items, results))
                if checks.check_item(item, calls) is None
                or "ZeroDivisionError" not in calls[0][2]]
    print(f"exception: {len(items) - len(problems)} of {len(items)} items "
          "with a raised exception fail")
    return problems


def check_tracer(items: list[dict]) -> list[str]:
    expected = [run_item(item) for item in items]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_item(item) for item in items]
    finally:
        tracer.uninstall()
    problems = []
    if traced != expected:
        problems.append("tracer: traced outputs differ")
    if hasattr(cli.run, "__wrapped__"):
        problems.append("tracer: uninstall left a wrapper")
    report = tracer.report()
    if not report["cli.run.calls"] or not report["polynomials.mul.calls"]:
        problems.append("tracer: no spans recorded")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # trace.items_per_s_* and the overhead come from the worker, not the tracer.
    missing = [m["name"] for m in spec if m["name"] not in report
               and not m["name"].startswith(("trace.items_per_s", "trace.overhead"))]
    if missing:
        problems.append(f"tracer: per-layer metrics missing: {', '.join(missing)}")
    return problems


def main() -> int:
    problems = check_generator()
    all_items = []
    for workload in workloads.WORKLOADS:
        items = list(itertools.islice(workloads.GENERATORS[workload](0), ITEMS))
        all_items += items
        detected = 0
        for index, item in enumerate(items):
            calls = run_item(item)
            reason = checks.check_item(item, calls)
            if reason is not None:
                problems.append(f"{workload} item {index}: correct output rejected: {reason}")
                continue
            for label, bad in corruptions(item, calls):
                if checks.check_item(item, bad) is None:
                    problems.append(f"{workload} item {index}: corrupted {label} passed")
                else:
                    detected += 1
        print(f"{workload}: {len(items)} items pass, {detected} one-character corruptions fail")
    problems += check_exception(all_items)
    problems += check_tracer(all_items)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
