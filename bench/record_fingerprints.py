"""Record the output fingerprints of each workload's warm-up prefix.

    python3 bench/record_fingerprints.py

Runs the warm-up items of each input set (seeds 0 to run.SEEDS - 1) in this process, checks every output with
the correctness gate, and rewrites bench/fingerprints.json.  run.py then
fails any run whose warm-up stdout differs from the recorded digest, so
record only at a commit whose canonical output is meant to stay fixed.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import run_item  # noqa: E402


def main() -> int:
    seeds = range(run.SEEDS)
    table: dict[str, dict[str, str]] = {}
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for seed in seeds:
            items = itertools.islice(workloads.GENERATORS[workload](seed), run.WARMUP[workload])
            records = []
            for item in items:
                calls = run_item(item)
                reason = checks.check_item(item, calls)
                if reason is not None:
                    print(f"error: {workload} seed {seed}: {reason}", file=sys.stderr)
                    return 1
                records.append({"calls": calls})
            table[workload][str(seed)] = run.fingerprint(records)
        print(f"{workload}: {len(seeds)} seeds recorded")
    (BENCH / "fingerprints.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
