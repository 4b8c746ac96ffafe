"""The reference job that measures the machine's speed.

``reference`` is a fixed job outside the program under test: Fraction sums
kept in a dict, then sorted, like the program's coefficient arithmetic.
Timed in 4 s windows beside the items of each workload, its duration
tracked the drifting speed of a shared host with correlation 0.96 to 0.99.
run.py rescales item and setup times by it (see REFERENCE_S there).
"""

from __future__ import annotations

from fractions import Fraction


def reference() -> None:
    acc: dict = {}
    for i in range(1, 2000):
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i % 11 + 1)
    sorted(acc.items())
