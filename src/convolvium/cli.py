"""Command-line frontend.

Four subcommands: compute (one exact value), verify (run claim suites),
paths (the lattice-path oracle), table (CSV sweeps of a quantity). Data goes
to stdout, diagnostics to stderr, nothing is written to disk unless --out is
given. Exit codes: 0 for success or an all-green verification, 1 when any
suite reports violations (or compute hits a failed exact division), 2 for
usage errors, unknown names, over-budget ranges, and an --out file that
cannot be written.

Each compute quantity is declared once, in `_COMPUTE`: the function it
calls and the options it reads, each with its default or marked required.
`_reads` narrows msum's options by kernel and closed-form's by family; the
parser's choices, the refusal of an unread option, the required-option
check and the call all read that table.

All numeric output is exact decimal; there is no floating point anywhere.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path
from typing import Callable, Iterable

from .closed_forms import FAMILY_PARAMS, ClosedFormFamily, closed_form
from .exact import (
    binomial,
    catalan,
    decimal,
    gessel,
    smallest_clearing_factor,
    super_catalan,
)
from .kernels import PARAMETERIZED_FAMILIES, Kernel, KernelFamily
from .paths import count_paths, enumerate_paths, gessel_path_spec, prefix_path_spec
from .sums import gessel_convolution, m_sum, quarter_psi, supercat_convolution
from .verify import (
    DEFAULT_SEED,
    SweepRange,
    reports_to_csv,
    reports_to_json,
    run_all,
    run_suite,
    suite_names,
)


class _UsageError(ValueError):
    """Bad flag combination detected after parsing."""


def _msum(kernel: str, n: int, j: int, t: int, r: int | None = None, a: int = 0) -> int:
    """m_sum of the named kernel, with order r when the kernel is ordered."""
    if r is not None and r < 1:
        raise _UsageError(f"r must be at least 1, got {r}")
    return m_sum(Kernel(KernelFamily(kernel), order=r), n, j, t, a)


_REQUIRED = None

# each compute quantity: the function it calls and the options it reads, each
# with its default or _REQUIRED; _reads narrows msum's by kernel and
# closed-form's by family
_COMPUTE: dict[str, tuple[Callable[..., int], dict[str, int | None]]] = {
    "binomial": (binomial, {"n": _REQUIRED, "k": _REQUIRED}),
    "catalan": (catalan, {"n": _REQUIRED}),
    "supercatalan": (super_catalan, {"n": _REQUIRED, "r": _REQUIRED}),
    "gessel": (gessel, {"n": _REQUIRED, "r": _REQUIRED}),
    # the convolutions take the half index n
    "phi": (gessel_convolution, {"n": _REQUIRED, "m": 1, "r": 1}),
    "psi": (supercat_convolution, {"n": _REQUIRED, "m": 1, "r": 1}),
    "quarter-psi": (quarter_psi, {"n": _REQUIRED, "m": 1, "r": 1}),
    "msum": (_msum, {"kernel": _REQUIRED, "n": _REQUIRED, "j": 0, "t": 0, "r": 1, "a": 0}),
    "closed-form": (closed_form, {"family": _REQUIRED, "n": _REQUIRED, "j": 0, "r": 1, "a": 0}),
}

# the options each table quantity reads
_TABLE_OPTIONS: dict[str, tuple[str, ...]] = {
    "binomial": ("n_max",),
    "catalan": ("n_max",),
    "supercatalan": ("n_max", "r_max"),
    "gessel": ("n_max", "r_max"),
    **dict.fromkeys(("phi", "psi", "quarter-psi"), ("n_max", "r_max", "m")),
    "kr": ("r_max",),
}

# kernel families constructible from the command line (custom needs a table)
_CLI_KERNELS = tuple(f.value for f in KernelFamily if f is not KernelFamily.CUSTOM)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convolvium",
        description="Exact computation and machine verification of Gessel / "
        "super Catalan convolution identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser(
        "compute",
        help="print one exact value",
        description="Evaluate one quantity exactly and print it in decimal. "
        "phi, psi, and quarter-psi take the half index n (the sum runs to "
        "2n) with defaults m=1, r=1; msum takes the full index n with "
        "defaults j=0, t=0, reads --r (default 1) only as an ordered kernel's "
        "order and --a (default 0) only for the rising kernel. An option the "
        "quantity does not read is a usage error.",
    )
    comp.add_argument("quantity", choices=tuple(_COMPUTE))
    comp.add_argument("--n", type=int, help="main index")
    comp.add_argument("--k", type=int, help="binomial lower index")
    comp.add_argument("--m", type=int, help="binomial weight exponent (default 1)")
    comp.add_argument("--r", type=int, help="order: required by supercatalan and gessel, else default 1")
    comp.add_argument("--j", type=int, help="M-sum offset (default 0)")
    comp.add_argument("--t", type=int, help="M-sum weight level (default 0)")
    comp.add_argument("--a", type=int, help="shift of msum's rising kernel and s2 closed forms (default 0)")
    comp.add_argument("--kernel", choices=_CLI_KERNELS, help="kernel for msum")
    comp.add_argument(
        "--family",
        choices=[f.value for f in ClosedFormFamily],
        help="closed-form family for closed-form",
    )

    ver = sub.add_parser(
        "verify",
        help="run one verification suite or all of them",
        description="Sweep a claim over its parameter box and report "
        "violations. Known suites: " + ", ".join(suite_names()) + ", or 'all'.",
    )
    ver.add_argument("suite", help="suite name, or 'all'")
    ver.add_argument("--n-max", dest="n_max", type=int, default=None)
    ver.add_argument("--m-max", dest="m_max", type=int, default=None)
    ver.add_argument("--r-max", dest="r_max", type=int, default=None)
    ver.add_argument("--a-max", dest="a_max", type=int, default=None)
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for the randomized suites")
    ver.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    ver.add_argument("--out", type=Path, default=None, help="write the report to a file instead of stdout")
    ver.add_argument(
        "--timings",
        action="store_true",
        help="add each suite's real elapsed_ms to its plain verdict line or its JSON "
        "record (forfeits byte-identical output); refused with csv, which holds only "
        "violations",
    )

    pat = sub.add_parser(
        "paths",
        help="count (or list) the lattice paths behind the Gessel numbers",
        description="Monotone paths from (0,0) to (n+r, n+r-1) avoiding a "
        "forbidden diagonal set: 'gessel' forbids (x,x) for x >= r, "
        "'prefix' forbids (x,x) for 1 <= x <= n. Both counts equal the "
        "Gessel number P(n,r).",
    )
    pat.add_argument("--n", type=int, required=True)
    pat.add_argument("--r", type=int, required=True)
    pat.add_argument("--interpretation", choices=("gessel", "prefix"), default="gessel")
    pat.add_argument("--list", action="store_true", help="print every path as an R/U string")

    tab = sub.add_parser(
        "table",
        help="emit a CSV sweep of one quantity",
        description="CSV with a header row. Grid quantities sweep n up to "
        "--n-max and r up to --r-max (default 5); phi, psi, and quarter-psi "
        "evaluate at weight --m (default 1); kr reads only --r-max. An option "
        "the quantity does not read is a usage error.",
    )
    tab.add_argument("quantity", choices=tuple(_TABLE_OPTIONS))
    tab.add_argument("--n-max", dest="n_max", type=int, default=None)
    tab.add_argument("--r-max", dest="r_max", type=int, default=None)
    tab.add_argument("--m", type=int, default=None)

    return parser


def _opt(value: int | None, default: int) -> int:
    return default if value is None else value


def _reads(args: argparse.Namespace) -> tuple[str, dict[str, int | None]]:
    """The compute quantity as its messages name it, and the options it reads
    with their defaults: msum reads --r only for an ordered kernel and --a
    only for rising, closed-form the options of its family's FAMILY_PARAMS."""
    what, options = args.quantity, _COMPUTE[args.quantity][1]
    if what == "msum" and args.kernel is not None:
        family = KernelFamily(args.kernel)
        what = f"msum --kernel {args.kernel}"
        reads = {"r": family in PARAMETERIZED_FAMILIES, "a": family is KernelFamily.RISING}
        options = {k: v for k, v in options.items() if reads.get(k, True)}
    elif what == "closed-form" and args.family is not None:
        what = f"closed-form --family {args.family}"
        takes = ("family", *FAMILY_PARAMS[ClosedFormFamily(args.family)])
        options = {k: v for k, v in options.items() if k in takes}
    return what, options


def _refuse_unread(args: argparse.Namespace, what: str, takes: tuple[str, ...]) -> None:
    """Refuse every option given that `what` does not read, naming each."""
    unread = [
        f"--{name.replace('_', '-')}"
        for name, value in vars(args).items()
        if name not in ("command", "quantity", *takes) and value is not None
    ]
    if unread:
        raise _UsageError(f"{args.command} {what} does not take {' or '.join(unread)}")


def _cmd_compute(args: argparse.Namespace) -> int:
    what, options = _reads(args)
    _refuse_unread(args, what, tuple(options))
    values = {}
    for name, default in options.items():
        value = getattr(args, name)
        if value is None and default is _REQUIRED:
            raise _UsageError(f"compute {args.quantity} requires --{name}")
        values[name] = default if value is None else value
    sys.stdout.write(decimal(_COMPUTE[args.quantity][0](**values)) + "\n")
    return 0


def _plain_report_lines(reports, timings: bool) -> Iterable[str]:
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        line = f"{rep.suite} {status} cases={rep.cases_checked} violations={len(rep.violations)}"
        yield f"{line} elapsed_ms={round(rep.elapsed_ms, 3)}" if timings else line
        for note in rep.notes:
            yield f"  note: {note}"
        for violation in rep.violations:
            yield (
                f"  at {violation['parameters']!r}: "
                f"expected {violation['expected']}, got {violation['actual']}"
            )


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.timings and args.format == "csv":
        raise _UsageError("--timings needs --format plain or json: the csv report holds only violations")
    if args.seed < 0:
        raise _UsageError(f"--seed must be non-negative, got {args.seed}")
    sweep = SweepRange(
        n_max=args.n_max,
        m_max=args.m_max,
        r_max=args.r_max,
        a_max=args.a_max,
        seed=args.seed,
    )
    if args.suite == "all":
        reports = run_all(sweep)
    else:
        reports = [run_suite(args.suite, sweep)]

    if args.format == "json":
        text = reports_to_json(reports, include_timings=args.timings)
    elif args.format == "csv":
        text = reports_to_csv(reports)
    else:
        text = "\n".join(_plain_report_lines(reports, args.timings)) + "\n"

    if args.out is not None:
        try:
            args.out.write_text(text)
        except OSError as exc:
            raise _UsageError(f"cannot write report to {args.out}: {exc.strerror or exc}") from exc
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_paths(args: argparse.Namespace) -> int:
    make = gessel_path_spec if args.interpretation == "gessel" else prefix_path_spec
    spec = make(args.n, args.r)
    if args.list:
        for path in enumerate_paths(spec):
            sys.stdout.write(path + "\n")
    else:
        sys.stdout.write(decimal(count_paths(spec)) + "\n")
    return 0


def _table_rows(args: argparse.Namespace) -> tuple[tuple[str, ...], Iterable[tuple[int, ...]]]:
    q = args.quantity
    r_max = _opt(args.r_max, 5)
    if q == "kr":
        return ("r", "value"), ((r, smallest_clearing_factor(r)) for r in range(1, r_max + 1))
    if args.n_max is None:
        raise _UsageError(f"table {q} requires --n-max")
    n_max = args.n_max
    if n_max < 0:
        raise _UsageError("--n-max must be non-negative")
    if q == "binomial":
        return ("n", "k", "value"), (
            (n, k, binomial(n, k)) for n in range(n_max + 1) for k in range(n + 1)
        )
    if q == "catalan":
        return ("n", "value"), ((n, catalan(n)) for n in range(n_max + 1))
    if q == "supercatalan":
        return ("n", "r", "value"), (
            (n, r, super_catalan(n, r)) for n in range(n_max + 1) for r in range(r_max + 1)
        )
    if q == "gessel":
        return ("n", "r", "value"), (
            (n, r, gessel(n, r)) for n in range(n_max + 1) for r in range(1, r_max + 1)
        )
    fn, m = _COMPUTE[q][0], _opt(args.m, 1)
    return ("n", "r", "value"), (
        (n, r, fn(n, m, r)) for n in range(n_max + 1) for r in range(1, r_max + 1)
    )


def _cmd_table(args: argparse.Namespace) -> int:
    _refuse_unread(args, args.quantity, _TABLE_OPTIONS[args.quantity])
    if args.m is not None and args.m < 1:
        raise _UsageError("--m must be at least 1")
    if args.r_max is not None and args.r_max < 1:
        raise _UsageError("--r-max must be at least 1")
    import csv  # imported here so that the other commands never load it

    header, rows = _table_rows(args)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([decimal(x) if isinstance(x, int) else x for x in row])
    sys.stdout.write(buf.getvalue())
    return 0


_COMMANDS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "paths": _cmd_paths,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # usage errors, unknown suites, over-budget ranges and boards
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
