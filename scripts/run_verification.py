#!/usr/bin/env python3
"""Run every verification suite and print one verdict line per suite.

Exit status is 0 when all suites pass, 1 when any fails, and 2 on a usage
error (a malformed CONVOLVIUM_BUDGET_MS, or a --json path that cannot be
written).  With --json the full machine-readable report is also written to
disk, so a CI job can keep the artifact while humans read the console summary.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from convolvium.verify import DEFAULT_SEED, SweepRange, reports_to_json, run_all


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=None)
    parser.add_argument("--m-max", type=int, default=None)
    parser.add_argument("--r-max", type=int, default=None)
    parser.add_argument("--a-max", type=int, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write the aggregate JSON report here")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (report is then not byte-stable)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sweep = SweepRange(
        n_max=args.n_max, m_max=args.m_max, r_max=args.r_max, a_max=args.a_max,
        seed=args.seed,
    )
    try:
        reports = run_all(sweep)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    width = max(len(rep.suite) for rep in reports)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        timing = f"  ({rep.elapsed_ms:8.1f} ms)" if args.timings else ""
        print(f"{rep.suite:<{width}}  {status}  cases={rep.cases_checked}"
              f" violations={len(rep.violations)}{timing}")
        for note in rep.notes:
            print(f"{'':<{width}}  note: {note}")
    total_cases = sum(rep.cases_checked for rep in reports)
    failed = [rep.suite for rep in reports if not rep.passed]
    print(f"\n{len(reports)} suites, {total_cases} cases checked")
    if args.json is not None:
        try:
            args.json.write_text(reports_to_json(reports, include_timings=args.timings))
        except OSError as exc:
            print(f"error: cannot write report to {args.json}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.json}")
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
