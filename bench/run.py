"""The convolvium benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, nothing is installed. Each workload is a closed loop with one client:
the next pass starts when the previous one has finished, and every pass is
a fresh interpreter, so the program's caches start cold as in a real
session. Passes repeat until the next one would overrun --seconds.

Workloads (the seed is the only input; the program receives only what is
generated from it):
  verify-default  cold `convolvium verify all --format json --seed N` calls
  bigint-sweep    a seeded list of 240 library calls on large integers,
                  run in one fresh interpreter per pass (see bigint.py)
  verify-jobs2    verify-default with --jobs 2; run by hand only, it is not
                  in BENCHMARK.json (see README.md)

Every answer is checked: exit code, `passed: true`, byte-identical reports
within a run, a golden sha256 of the report at the seed it was recorded
with, --jobs 2 against the serial report, and bigint answers against
references built from math.comb. The last line of stdout is the result
object; the line before it adds provenance and sample counts, and the same
data, with spans in traced runs, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import bigint

BENCH_DIR = Path(__file__).resolve().parent

# sha256 of `convolvium verify all --format json --seed 24301` (the CLI's
# default seed) as printed by the seed commit; any change to the report
# bytes is a failure
GOLDEN_SEED = 24301
GOLDEN_SHA256 = "e7b24ce45eac6fe3b73e906efcca67e101e514a57d80875130dc5b70a18d9903"

# the registry's suites, fixed here so that the per-layer metric names in
# BENCHMARK.json do not depend on the program under test
SUITES = (
    "theorem1", "psi-div", "phi-m1", "psi-m1", "calkin", "s2-div", "s3-div",
    "closed-forms", "eq7", "eq8", "thm2", "eq2-eq4", "stanley", "eq14", "kr",
    "remark1", "paths",
)

SETUP_SAMPLES = 9  # fresh `import convolvium` timings per run; setup_s is their median
UNTRACED_PASSES = 3  # untraced passes in a traced run, the base of trace.overhead_s
CHILD_TIMEOUT_S = 150.0


# ------------------------------------------------------------------ processes


@dataclass
class Proc:
    seconds: float
    code: int
    out: bytes
    err: bytes


def spawn(argv: list[str], env: dict, stdin: bytes = b"") -> Proc:
    """Run one child to completion; the wall time covers spawn to exit."""
    t0 = time.perf_counter()
    try:
        done = subprocess.run(argv, input=stdin, capture_output=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return Proc(time.perf_counter() - t0, -1, exc.stdout or b"", b"timeout")
    return Proc(time.perf_counter() - t0, done.returncode, done.stdout, done.stderr)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(env: dict, samples: int) -> list[float]:
    """Wall times of fresh interpreters that only `import convolvium`, after
    one untimed import that writes the bytecode cache."""
    argv = [sys.executable, "-c", "import convolvium"]
    times = []
    for i in range(samples + 1):
        proc = spawn(argv, env)
        if proc.code != 0:
            raise RuntimeError(f"import convolvium failed: {proc.err.decode(errors='replace')}")
        if i:
            times.append(proc.seconds)
    return times


# ------------------------------------------------------------------ workloads


@dataclass
class Pass:
    """One fresh-interpreter pass: its wall time and what it answered."""

    wall: float
    latencies: list[float]
    attempted: int
    failed: int
    cases: int
    output: bytes = b""
    trace: dict | None = None
    notes: list[str] = field(default_factory=list)


class VerifyWorkload:
    """Cold `convolvium verify all --format json` calls; one call per pass."""

    def __init__(self, env: dict, seed: int, jobs: int):
        self.env = env
        self.seed = seed
        self.jobs = jobs
        self.expected: bytes | None = None
        self.checks = Pass(0.0, [], 0, 0, 0)

    def _args(self, seed: int, jobs: int) -> list[str]:
        args = ["verify", "all", "--format", "json", "--seed", str(seed)]
        return args + (["--jobs", str(jobs)] if jobs > 1 else [])

    def _check(self, code: int, out: bytes, seed: int) -> tuple[list[str], int]:
        """Problems with one report, and its case count."""
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        try:
            report = json.loads(out)
            cases = int(report["total_cases"])
            if report["passed"] is not True or report["total_violations"] != 0:
                problems.append("report has passed: false")
        except (ValueError, KeyError, TypeError):
            return problems + ["report is not the expected JSON"], 0
        if seed == GOLDEN_SEED and hashlib.sha256(out).hexdigest() != GOLDEN_SHA256:
            problems.append("report differs from the golden sha256")
        if self.expected is not None and out != self.expected:
            problems.append("report differs from the reference report of this run")
        return problems, cases

    def _record_check(self, argv_args: list[str], seed: int) -> bytes:
        proc = spawn([sys.executable, "-m", "convolvium", *argv_args], self.env)
        problems, _ = self._check(proc.code, proc.out, seed)
        self.checks.attempted += 1
        self.checks.failed += bool(problems)
        self.checks.notes += [f"{' '.join(argv_args)}: {p}" for p in problems]
        return proc.out

    def prepare(self) -> Pass:
        """Untimed checks: the golden report at GOLDEN_SEED with this
        workload's --jobs and, under --jobs 2, the serial report at the run's
        seed, which every timed report must equal byte for byte. Serial
        reports must equal the run's first one instead."""
        self._record_check(self._args(GOLDEN_SEED, self.jobs), GOLDEN_SEED)
        if self.jobs > 1:
            self.expected = self._record_check(self._args(self.seed, 1), self.seed)
        return self.checks

    def run_pass(self, traced: bool) -> Pass:
        args = self._args(self.seed, self.jobs)
        if traced:
            proc = spawn([sys.executable, str(BENCH_DIR / "child.py"), "cli", "--trace", "--", *args],
                         self.env)
            try:
                payload = json.loads(proc.out)
                code, out, trace = payload["exit"], payload["output"].encode(), payload["trace"]
            except (ValueError, KeyError):
                code, out, trace = proc.code or -1, b"", None
        else:
            proc = spawn([sys.executable, "-m", "convolvium", *args], self.env)
            code, out, trace = proc.code, proc.out, None
        problems, cases = self._check(code, out, self.seed)
        if proc.code != 0 and code == 0:
            problems.append(f"process exit {proc.code}: {proc.err[-300:].decode(errors='replace')}")
        if self.expected is None and not problems:
            self.expected = out
        return Pass(proc.seconds, [proc.seconds], 1, int(bool(problems)), cases, out, trace, problems)


class BigintWorkload:
    """The seeded bigint-sweep request list, in one fresh interpreter per pass."""

    def __init__(self, env: dict, seed: int):
        self.env = env
        self.requests = bigint.requests(seed)
        self.stdin = json.dumps(self.requests).encode()
        self.refs: list[int] = []

    def prepare(self) -> Pass:
        self.refs = [bigint.reference(*req) for req in self.requests]
        return Pass(0.0, [], 0, 0, 0)

    def run_pass(self, traced: bool) -> Pass:
        argv = [sys.executable, str(BENCH_DIR / "child.py"), "bigint"] + (["--trace"] if traced else [])
        proc = spawn(argv, self.env, self.stdin)
        total = len(self.requests)
        try:
            payload = json.loads(proc.out)
            values = [int(v, 16) for v in payload["values"]]
            latencies = payload["latency"]
            if proc.code != 0 or len(values) != total:
                raise ValueError
        except (ValueError, KeyError, TypeError):
            note = f"pass failed (exit {proc.code}): {proc.err[-300:].decode(errors='replace')}"
            return Pass(proc.seconds, [], total, total, 0, notes=[note])
        bad = bigint.failures(self.requests, self.refs, values)
        notes = [f"wrong answer to {self.requests[i]}" for i in sorted(bad)]
        output = json.dumps(payload["values"]).encode()
        return Pass(proc.seconds, latencies, total, len(bad), total - len(bad), output,
                    payload.get("trace"), notes)


def make_workload(name: str, env: dict, seed: int):
    if name == "verify-default":
        return VerifyWorkload(env, seed, jobs=1)
    if name == "verify-jobs2":
        return VerifyWorkload(env, seed, jobs=2)
    return BigintWorkload(env, seed)


WORKLOADS = ("verify-default", "verify-jobs2", "bigint-sweep")


# -------------------------------------------------------------------- loops


def closed_loop(run_pass, seconds: float, minimum: int = 1) -> list[Pass]:
    """Passes back to back until the next one, at the median pass time so
    far, would end after `seconds`; at least `minimum` passes."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= minimum and time.perf_counter() - start + typical > seconds:
            return passes


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    # a pass that failed before timing its requests leaves no latencies
    latencies = [x for p in passes for x in p.latencies] or [p.wall for p in passes]
    # wall_s and cases_per_s average over the whole window: the machine's
    # speed drifts over tens of seconds, and a mean over the window varies
    # less from run to run than the median pass does
    busy = sum(p.wall for p in passes)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (busy / len(passes), "s"),
        "req_p50_s": (percentile(latencies, 50), "s"),
        "req_p90_s": (percentile(latencies, 90), "s"),
        "cases_per_s": (sum(p.cases for p in passes) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }


# the layers whose calls and self time are reported for every workload
CALL_LAYERS = (
    "exact.binomial", "exact.central_binomial", "exact.numbers", "kernels.eval",
    "kernels.build", "sums.direct_sum", "sums.m_sum", "sums.m_sum_lift",
    "sums.theorem2_transform", "closed_forms.eval", "paths.count", "paths.enumerate",
)


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced pass; a layer a workload never
    reaches reads 0."""
    layers = trace["layers"]
    out: dict[str, tuple[float, str]] = {}
    for layer in CALL_LAYERS:
        calls, self_s = layers.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
    hits, lookups = trace["cache"]
    out["exact.numbers.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    for name in SUITES:
        suite = trace["suites"].get(name, {})
        out[f"verify.suite.{name}.s"] = (suite.get("s", 0.0), "s")
        out[f"verify.suite.{name}.cases"] = (suite.get("cases", 0), "count")
        out[f"verify.suite.{name}.kernel_evals"] = (suite.get("kernel_evals", 0), "count")
    out["verify.report.self_s"] = (layers.get("verify.report", (0, 0.0))[1], "s")
    busy = sum(s["s"] for s in trace["suites"].values())
    pool = sum(c["s"] * c["workers"] for c in trace["run_all"])
    out["verify.pool.busy_ratio"] = (busy / pool if pool else 0.0, "ratio")
    out["cli.self_s"] = (layers.get("cli", (0, 0.0))[1], "s")
    return out


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict:
    per_pass = [layer_metrics(p.trace) for p in traced if p.trace is not None]
    if not per_pass:
        raise RuntimeError("no traced pass produced a trace")
    # counts take the lower median, so they stay whole numbers
    out = {
        name: ((statistics.median_low if unit == "count" else statistics.median)(
            m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    overhead = statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in untraced)
    out["trace.overhead_s"] = (overhead, "s")
    return out


# --------------------------------------------------------------- provenance


def provenance(root: Path, seed: int) -> dict:
    # an exported checkout has no .git; source_sha256 identifies it instead
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "convolvium").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run; returns the full record (result plus detail)."""
    prov = provenance(root, seed)
    env = child_env(root)
    setup = measure_setup(env, SETUP_SAMPLES if not trace else 0)
    wl = make_workload(workload, env, seed)
    checks = wl.prepare()
    start = time.perf_counter()
    if trace:
        untraced = [wl.run_pass(False) for _ in range(UNTRACED_PASSES)]
        remaining = seconds - (time.perf_counter() - start)
        traced = closed_loop(lambda: wl.run_pass(True), remaining, minimum=2)
        for p in traced:
            if p.output != untraced[0].output:
                p.failed = p.attempted
                p.notes.append("traced report differs from the untraced report")
        passes = untraced + traced
        metrics = per_layer(untraced, traced)
        spans = [p.trace["spans"] for p in traced if p.trace]
    else:
        passes = closed_loop(lambda: wl.run_pass(False), seconds)
        metrics = end_to_end(passes, setup)
        spans = []
    attempted = checks.attempted + sum(p.attempted for p in passes)
    failed = checks.failed + sum(p.failed for p in passes)
    notes = checks.notes + [n for p in passes for n in p.notes]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload,
        "trace": int(trace),
        "provenance": prov,
        "samples": {
            "passes": len(passes),
            "requests": sum(len(p.latencies) for p in passes),
            "setup": len(setup),
            "measured_s": time.perf_counter() - start,
        },
        "pass_wall_s": [round(p.wall, 6) for p in passes],
        "fail_ratio": failed / attempted if attempted else 0.0,
        "failures": notes[:20],
    }
    return {"result": result, "detail": detail, "spans": spans}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "convolvium" / "__init__.py").is_file():
        print(f"error: no convolvium sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["detail"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
