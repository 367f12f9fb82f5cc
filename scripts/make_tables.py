#!/usr/bin/env python3
"""Emit reference CSV tables for the core number families.

Writes one file per quantity into --out-dir, each the output of one
`convolvium table` call (Catalan, super Catalan, Gessel, clearing factors,
and the phi/psi grids at every weight up to --m-max).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

from convolvium import cli


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=20)
    parser.add_argument("--r-max", type=int, default=6)
    parser.add_argument("--m-max", type=int, default=3)
    parser.add_argument("--out-dir", type=Path, default=Path("tables"))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    n_max = ["--n-max", str(args.n_max)]
    grid = [*n_max, "--r-max", str(args.r_max)]
    tables = [
        ("catalan.csv", ["catalan", *n_max]),
        ("super_catalan.csv", ["supercatalan", *grid]),
        ("gessel.csv", ["gessel", *grid]),
        ("clearing_factors.csv", ["kr", "--r-max", str(args.r_max)]),
    ]
    for m in range(1, args.m_max + 1):
        tables.append((f"phi_m{m}.csv", ["phi", *grid, "--m", str(m)]))
        tables.append((f"psi_m{m}.csv", ["psi", *grid, "--m", str(m)]))

    # every table is built before any file is written, so a rejected flag
    # leaves the directory untouched
    texts = {}
    for name, table_args in tables:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["table", *table_args])
        if code:
            return code
        texts[name] = buf.getvalue()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        path = args.out_dir / name
        path.write_text(text)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
