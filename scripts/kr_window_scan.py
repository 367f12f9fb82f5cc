#!/usr/bin/env python3
"""Scan how quickly candidate clearing factors below K_r are ruled out.

For each r, K_r = (r/2)*binomial(2r,r) is the least K making
K*binomial(2n,n)/(n+r) an integer for every n.  Any smaller candidate K
must fail at some witness n.  This prints, per r, the latest first-failure
over all candidates: the window a bounded check needs in order to be
conclusive.  The observed worst case stays tiny (n=4 for r<=5), which is
why the verification suite's n<=500 window is comfortable.
"""

from __future__ import annotations

import argparse
import math
import sys

from convolvium.exact import smallest_clearing_factor


def first_witness(candidate: int, r: int, window: int) -> int | None:
    for n in range(window + 1):
        if (candidate * math.comb(2 * n, n)) % (n + r) != 0:
            return n
    return None


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r-max", type=int, default=5)
    parser.add_argument("--window", type=int, default=500)
    args = parser.parse_args(argv)
    if args.r_max < 1:
        parser.error("--r-max must be at least 1")
    if args.window < 0:
        parser.error("--window must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    print(f"{'r':>3} {'K_r':>8} {'worst witness n':>16} {'hardest candidates':>20}")
    unresolved = False
    for r in range(1, args.r_max + 1):
        k_r = smallest_clearing_factor(r)
        witnesses: dict[int, int | None] = {
            k: first_witness(k, r, args.window) for k in range(1, k_r)
        }
        if not witnesses:
            print(f"{r:>3} {k_r:>8} {'-':>16} {'-':>20}")
            continue
        missing = sorted(k for k, n in witnesses.items() if n is None)
        if missing:
            unresolved = True
            print(f"{r:>3} {k_r:>8} {'(none in window)':>16}  candidates {missing}")
            continue
        worst = max(n for n in witnesses.values() if n is not None)
        hardest = sorted(k for k, n in witnesses.items() if n == worst)
        shown = ", ".join(map(str, hardest[:6])) + (", ..." if len(hardest) > 6 else "")
        print(f"{r:>3} {k_r:>8} {worst:>16} {shown:>20}")
    if unresolved:
        print("some candidates never failed inside the window; widen --window",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
