#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/paired_runs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seconds S [--seed N]

Each pair runs `python3 bench/run.py --workload W --seed N --seconds S
--trace 0` once from each checkout root, the parent first in even pairs and
the change first in odd ones, so a drift in the machine's speed falls on
both sides alike. A run that reports `correct: false`, or that does not
finish, stops the script (exit 1).

For each end-to-end metric in CHANGE_DIR/BENCHMARK.json it prints each
side's median [q1, q3], the change of the median in %, the pairs the change
won (its value strictly better, in the metric's declared direction),
whether the change's median is better than the parent's by more than the
parent's quartile distance, and, for a metric with a `bound`, whether the
change's median is worse than the parent's by more than that bound, read as
a fraction of the parent's median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from `checkout`; its result object."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: bench/run.py exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[str]:
    """One line per metric from (parent result, change result) pairs."""
    lines = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pct = (cm - pm) / pm * 100 if pm else float("nan")
        gain = pm - cm if lower else cm - pm
        beyond = "yes" if gain > p3 - p1 else "no"
        line = (
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"{pct:+.1f}%  wins {wins}/{len(pairs)}  better beyond parent IQR: {beyond}"
        )
        if "bound" in metric:
            worse = "yes" if -gain > metric["bound"] * abs(pm) else "no"
            line += f"  worse beyond bound: {worse}"
        lines.append(line)
    return lines


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent commit")
    parser.add_argument("change", type=Path, help="checkout root of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for root in (args.parent, args.change):
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{root} has no bench/run.py")
    if not (args.change / "BENCHMARK.json").is_file():
        parser.error(f"{args.change} has no BENCHMARK.json")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            try:
                result = run_bench(sides[side], args.workload, args.seed, args.seconds)
            except RuntimeError as exc:
                print(f"pair {i + 1}: {exc}")
                return 1
            if not result["correct"]:
                print(f"pair {i + 1}: {side} run is not correct: {json.dumps(result)}")
                return 1
            results[side] = result
        pairs.append((results["parent"], results["change"]))
        walls = ", ".join(f"{s} {results[s]['metrics']['wall_s']['value']:.4g}" for s in order)
        print(f"pair {i + 1}/{args.pairs}: wall_s {walls}", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    print("\n".join(summarize(pairs, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
