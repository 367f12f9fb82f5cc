"""One fresh-interpreter pass of a workload, run by bench/run.py.

    python3 bench/child.py bigint [--trace]          request list as JSON on stdin
    python3 bench/child.py cli --trace -- ARGV...    one traced `convolvium ARGV`

Prints one JSON object on stdout. `bigint` times each library call and
returns every value in hex; `cli` runs `convolvium.cli.main` with its stdout
captured and returns that text with the exit code. With --trace the tracer is
installed first and its summary is added under "trace".
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from tracer import Tracer


def _calls() -> dict:
    # attributes are read at call time, so installed wrappers are seen
    from convolvium import exact, paths, sums

    return {
        "phi": lambda n, m, r: sums.gessel_convolution(n, m, r),
        "psi": lambda n, m, r: sums.supercat_convolution(n, m, r),
        "quarter-psi": lambda n, m, r: sums.quarter_psi(n, m, r),
        "binomial": lambda n, k: exact.binomial(n, k),
        "central": lambda n: exact.central_binomial(n),
        "clearing": lambda r: exact.smallest_clearing_factor(r),
        "gessel": lambda n, r: exact.gessel(n, r),
        "paths-tail": lambda n, r: paths.count_paths(paths.gessel_path_spec(n, r)),
        "paths-band": lambda n, r: paths.count_paths(paths.prefix_path_spec(n, r)),
    }


def _bigint(tracer: Tracer | None) -> dict:
    requests = json.load(sys.stdin)
    calls = _calls()
    values, latency = [], []
    perf = time.perf_counter
    for kind, *args in requests:
        fn = calls[kind]
        t0 = perf()
        value = tracer.request(kind, fn, *args) if tracer else fn(*args)
        latency.append(perf() - t0)
        values.append(hex(value))
    return {"values": values, "latency": latency}


def _cli(argv: list[str], tracer: Tracer) -> dict:
    from convolvium import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tracer.request("cli", cli.main, argv)
    return {"exit": code, "output": buf.getvalue()}


def main(argv: list[str]) -> int:
    mode, rest = argv[:1], argv[1:]
    trace = rest[:1] == ["--trace"]
    if trace:
        rest = rest[1:]
    bigint = mode == ["bigint"] and not rest
    if not bigint and not (mode == ["cli"] and trace and rest[:1] == ["--"]):
        print(f"usage: child.py bigint [--trace] | child.py cli --trace -- ARGV; got {argv}",
              file=sys.stderr)
        return 2
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    result = _bigint(tracer) if bigint else _cli(rest[1:], tracer)
    if tracer:
        result["trace"] = tracer.summary()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
