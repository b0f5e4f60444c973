"""Apply the paired-comparison rule to two sets of benchmark results.

Usage, from the repository root::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the last output line of one benchmark run per line, in
run order; line ``i`` of both files is one pair (run them alternating
which side goes first).  For every end-to-end metric the command prints
each side's median and quartiles and whether the change gains by the
rule in :func:`perfbench.stats.paired_gain`.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import paired_gain  # noqa: E402


def _load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line)["metrics"] for line in handle if line.strip()]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    parent, change = (_load(path) for path in argv)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        before = [run[name]["value"] for run in parent]
        after = [run[name]["value"] for run in change]
        verdict = paired_gain(before, after, metric["better"])
        quartiles = [statistics.quantiles(side, n=4) for side in (before, after)]
        print(
            f"{name}: parent {quartiles[0][1]:.6g} "
            f"[{quartiles[0][0]:.6g}, {quartiles[0][2]:.6g}] "
            f"change {quartiles[1][1]:.6g} "
            f"[{quartiles[1][0]:.6g}, {quartiles[1][2]:.6g}] "
            f"wins {verdict['wins']}/{verdict['pairs']} "
            f"{'GAIN' if verdict['gain'] else 'no gain'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
