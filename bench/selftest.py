"""Self-test of the traced benchmark: counts must repeat exactly.

    python3 bench/selftest.py [--seed N] [--workload NAME ...]

Makes two short traced runs per workload with the same seed and fails
(exit 1) unless both are correct and every `*.calls`, `*.cases` and
`*.kernel_evals` metric is identical between them. Run from a checkout root.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import run

COUNT_SUFFIXES = (".calls", ".cases", ".kernel_evals")


def counts(record: dict) -> dict[str, int]:
    metrics = record["result"]["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args(argv)
    root = Path.cwd()
    ok = True
    for workload in args.workload or run.WORKLOADS:
        first, second = (run.run(workload, args.seed, 1.0, True, root) for _ in range(2))
        a, b = counts(first), counts(second)
        differ = sorted(k for k in a if a[k] != b.get(k))
        correct = first["result"]["correct"] and second["result"]["correct"]
        ok &= correct and not differ and bool(a)
        print(f"{workload}: {len(a)} counts, correct={correct}, "
              f"differ={differ or 'none'}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
