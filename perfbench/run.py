"""congaps benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a congaps checkout. With --trace 0 the run times
whole rounds of the workload's invocations (each a fresh
`python -m congaps.cli` process with PYTHONPATH=src) for about --seconds
seconds and reports the end-to-end metrics. With --trace 1 it runs one
round through perfbench/tracing.py, which times the calls into each
module's public functions, then one untraced round for the tracing
overhead, and reports the per-layer metrics. Outputs are checked
against the benchmark's own computations (checks.py) outside the timed
region. The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 2  # fresh interpreters timed for setup_s before the rounds, and again after
RUN_DEADLINE_S = 150.0  # any invocation still running then is killed; checks follow
TIMING_KEYS = ("wall_time_ms",)  # report fields that differ between identical runs
SETUP_CODE = "import congaps.cli as cli; cli.build_parser()"
CACHE_ENV = "CONGAPS_CACHE_DIR"


@dataclass
class Invocation:
    argv: tuple[str, ...]
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    report: dict | None  # the parsed stdout, None if the invocation failed


def spawn(cmd: list[str], env: dict, deadline: float) -> tuple[int, float, float, str, str]:
    """Run cmd to completion: (exit code, wall s, peak RSS MB, stdout, stderr).

    The peak RSS is the child's own ru_maxrss, as wait4 reports it."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                out.read().decode(), err.read().decode())


def child_env(workload: workloads.Workload) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop(CACHE_ENV, None)
    if workload.uses_cache:
        env[CACHE_ENV] = str(WORK / "cache")
    return env


def run_round(workload, env, deadline, trace_dir: Path | None = None):
    """One pass over the workload's invocations: (invocations, wall s)."""
    if workload.uses_cache:
        shutil.rmtree(WORK / "cache", ignore_errors=True)
    done = []
    start = time.perf_counter()
    for k, op in enumerate(workload.ops):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "congaps.cli", *op.argv]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(trace_dir / f"{k}.json"), *op.argv]
        code, wall, rss, out, err = spawn(cmd, env, deadline)
        report = None
        if code == 0:
            try:
                report = checks.strict_json(out)
            except ValueError:
                pass
        done.append(Invocation(op.argv, code, wall, rss, out, err, report))
    return done, time.perf_counter() - start


def setup_samples(env: dict, deadline: float, count: int) -> list[float]:
    """Start-up times of fresh interpreters importing congaps.cli and
    building its parser."""
    samples = []
    for _ in range(count):
        code, wall, *_ = spawn([sys.executable, "-c", SETUP_CODE], env, deadline)
        if code != 0:
            raise RuntimeError("congaps.cli does not import")
        samples.append(wall)
    return samples


def _deterministic(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in TIMING_KEYS}


def check_outputs(workload, rounds, primes: checks.Primes) -> bool:
    """Check the first successful report of every op against the oracle,
    and every later report of it for equality with the first."""
    ok = True
    for k, op in enumerate(workload.ops):
        reports = [r[k].report for r in rounds if r[k].report is not None]
        if not reports:
            continue
        try:
            op.check(reports[0], primes)
            checks.require(all(_deterministic(r) == _deterministic(reports[0])
                               for r in reports[1:]), "reports differ between rounds")
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            print(f"check failed: congaps {' '.join(op.argv)}: {exc!r}", file=sys.stderr)
            ok = False
    return ok


def report_failures(rounds) -> int:
    failed = 0
    for inv in (inv for r in rounds for inv in r):
        if inv.report is None:
            failed += 1
            tail = (inv.stderr.strip().splitlines() or [inv.stdout[-200:]])[-1]
            print(f"failed: congaps {' '.join(inv.argv)} (exit {inv.returncode}): {tail}",
                  file=sys.stderr)
    return failed


def describe(rounds, walls) -> None:
    for n, (invs, wall) in enumerate(zip(rounds, walls), 1):
        per_op = " ".join(f"{i.wall_s:.2f}s/{i.maxrss_mb:.0f}MB" for i in invs)
        print(f"round {n}: wall {wall:.3f} s; per invocation {per_op}")


def timed_run(workload, seconds: float, deadline: float) -> dict:
    env = child_env(workload)
    setup_samples(env, deadline, 1)  # warm-up: compiles the bytecode
    setup = setup_samples(env, deadline, SETUP_SAMPLES)
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        invs, wall = run_round(workload, env, deadline)
        rounds.append(invs)
        walls.append(wall)
        elapsed = time.perf_counter() - start
        if elapsed + max(walls) > seconds or any(i.returncode < 0 for i in invs):
            break
    # the host's speed drifts over tens of seconds: sample start-up at both ends
    setup += setup_samples(env, deadline, SETUP_SAMPLES)
    describe(rounds, walls)
    failed = report_failures(rounds)
    correct = check_outputs(workload, rounds, checks.sieve(workload.oracle_limit))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "slowest_op_s": (statistics.median(max(i.wall_s for i in r) for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(max(i.maxrss_mb for i in r) for r in rounds), "MB"),
    }
    return result(correct, len(rounds) * len(workload.ops), failed, metrics)


def traced_run(workload, deadline: float) -> dict:
    env = child_env(workload)
    trace_dir = WORK / "spans"
    trace_dir.mkdir()
    traced, traced_wall = run_round(workload, env, deadline, trace_dir)
    spans = [json.loads((trace_dir / f"{k}.json").read_text())
             for k in range(len(workload.ops)) if (trace_dir / f"{k}.json").exists()]
    plain, plain_wall = run_round(workload, env, deadline)
    describe([traced, plain], [traced_wall, plain_wall])
    print(f"tracing overhead: traced round {traced_wall:.3f} s, untraced {plain_wall:.3f} s, "
          f"difference {traced_wall - plain_wall:+.3f} s")
    rounds = [traced, plain]
    failed = report_failures(rounds)
    primes = checks.sieve(workload.oracle_limit)
    correct = check_outputs(workload, rounds, primes)
    try:
        checks.sieved_tables(tracing.sieved_tables(spans), primes)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    per_layer = tracing.per_layer_metrics(spans)
    metrics = {name: (per_layer[name], unit) for name, unit in tracing.PER_LAYER.items()}
    return result(correct, len(rounds) * len(workload.ops), failed, metrics)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "congaps" / "cli.py").is_file():
        print(f"perfbench: no congaps source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = workloads.build(args.workload, args.seed)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for op in workload.ops:
        print("  congaps " + " ".join(op.argv))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.trace:
            out = traced_run(workload, deadline)
        else:
            out = timed_run(workload, args.seconds, deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
