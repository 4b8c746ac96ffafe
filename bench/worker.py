"""Benchmark worker: one closed-loop client driving ``diffalg.cli.run``.

Run from the repository root with ``PYTHONPATH=src``; ``bench/run.py``
starts it.  It reads a JSON job from stdin and, in this single process and
thread, sends each generated item only after the previous one finished.
One JSON line per item goes to stdout as soon as it completes (so outputs
do not accumulate in this process's memory); the last line is a summary
with the peak resident memory and, for a traced job, the per-layer report.

Job keys: ``workload``, ``seed``, ``warmup`` (items run first, untimed;
their outputs are fingerprinted), then either ``seconds`` (timed closed
loop) or ``trace_items`` with ``spans_path`` (the same items run untraced,
then traced).

The timed loop also runs ``reference`` between items every
REFERENCE_EVERY_S and reports each call's start and duration, so that
run.py can rescale item times by the machine's speed at that moment.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
import traceback

import diffalg.cli as cli

import workloads
from reference import reference

REFERENCE_EVERY_S = 0.25


def _call(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """``cli.run`` result; an exception that escapes it is recorded as
    exit 1 with the traceback on stderr, which fails the item's check."""
    try:
        return cli.run(argv, stdin)
    except Exception:
        return (1, "", traceback.format_exc())


def run_item(item: dict) -> list[tuple[int, str, str]]:
    """Every ``run()`` result of one item: reduce then verify for a pipe."""
    first = _call(item["argv"])
    if item["kind"] == "pipe" and first[0] == 0:
        return [first, _call(["verify"], first[1])]
    return [first]


def _emit(phase: str, start: float, latency: float, calls) -> None:
    line = {"phase": phase, "start": start, "latency": latency, "calls": calls}
    sys.stdout.write(json.dumps(line) + "\n")


def _pass(items, phase: str, origin: float) -> tuple[float, list]:
    """Run and emit ``items``; returns the elapsed time and the outputs."""
    outputs = []
    begin = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        calls = run_item(item)
        t1 = time.perf_counter()
        _emit(phase, t0 - origin, t1 - t0, calls)
        outputs.append(calls)
    return time.perf_counter() - begin, outputs


def main() -> None:
    job = json.loads(sys.stdin.read())
    stream = workloads.GENERATORS[job["workload"]](job["seed"])
    origin = time.perf_counter()
    _pass(list(itertools.islice(stream, job["warmup"])), "warmup", origin)
    summary: dict = {}

    if "trace_items" in job:
        from tracing import Tracer

        block = list(itertools.islice(stream, job["trace_items"]))
        untraced, expected = _pass(block, "timed", origin)
        tracer = Tracer()
        tracer.install()
        changed = 0
        begin = time.perf_counter()
        for index, item in enumerate(block):
            tracer.item = index
            changed += run_item(item) != expected[index]
        traced = time.perf_counter() - begin
        tracer.uninstall()
        report = tracer.report()
        report.update({
            "trace.items_per_s_untraced": len(block) / untraced,
            "trace.items_per_s_traced": len(block) / traced,
            "trace.overhead": traced / untraced - 1.0,
        })
        tracer.write_spans(job["spans_path"])
        summary["trace"] = report
        summary["changed_outputs"] = changed
    else:
        seconds = job["seconds"]
        references = []
        begin = next_reference = time.perf_counter()
        for item in stream:
            t0 = time.perf_counter()
            if t0 >= next_reference:
                reference()
                next_reference = time.perf_counter()
                references.append((t0 - origin, next_reference - t0))
                t0 = next_reference
                next_reference += REFERENCE_EVERY_S
            calls = run_item(item)
            t1 = time.perf_counter()
            _emit("timed", t0 - origin, t1 - t0, calls)
            if t1 - begin >= seconds:
                break
        summary["reference"] = references

    summary["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps({"summary": summary}) + "\n")


if __name__ == "__main__":
    main()
