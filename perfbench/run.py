#!/usr/bin/env python3
"""Two-clock benchmark of the Escra simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
repetitions of one workload, each in a fresh process, for about S seconds
of host time. Repetition k runs seed N * 256 + k; how many a run makes
depends only on the workload and S, never on host speed, so a run's
simulated-clock metrics are a deterministic function of N.

* --trace 0: untraced repetitions; prints every end-to-end metric.
* --trace 1: an untraced and a traced repetition per seed; prints every
  per-layer metric and writes the last traced repetition's spans to
  <build>/spans/<workload>.csv (overwritten by each traced run).

Every repetition must pass its own checks, and a traced repetition must
match its untraced twin on every simulated-clock metric. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 0 only when correct is true. Build output goes to
stderr.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402

# Host seconds of one untraced repetition, measured once on a 4-vCPU x86
# VM. They fix the repetition count of a run ahead of time.
REP_COST_S = {"microservice": 1.45, "dense_telemetry": 1.4,
              "sharded_fleet": 5.0, "bw_fanout": 1.6}
MIN_REPS = 3          # repetitions per untraced run, at least
MIN_PAIRS = 2         # untraced + traced pairs per traced run, at least
RUN_DEADLINE_S = 170  # a whole run must end within 180 s


def plan(workload, seed, seconds, traced):
    """[(repetition seed, traced)] of one run."""
    reps = max(MIN_REPS, round(seconds / REP_COST_S[workload]))
    if not traced:
        return [(seed * 256 + k, False) for k in range(reps)]
    pairs = max(MIN_PAIRS, reps // 2)
    return [(seed * 256 + k, t) for k in range(pairs) for t in (False, True)]


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    """Configures (once) and builds the benchmark binary; raises
    CalledProcessError on failure with the tool output on stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out_dir), "--target",
                    "escra_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out_dir / "escra_perfbench"


def run_rep(binary, workload, seed, traced, spans, timeout):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, timeout))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise report.BenchmarkError(
            f"repetition exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = report.load_spec(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    spans = out_dir / "spans" / f"{args.workload}.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)

    traced = args.trace == 1
    reps = []
    start = time.monotonic()
    try:
        for seed, rep_traced in plan(args.workload, args.seed, args.seconds,
                                     traced):
            left = RUN_DEADLINE_S - (time.monotonic() - start)
            reps.append(run_rep(binary, args.workload, seed, rep_traced,
                                spans, left))
        metrics = report.aggregate(reps, traced, spec)
        section = "per_layer" if traced else "end_to_end"
        problems = report.validate_declared(metrics,
                                            report.declared(spec, section))
        if problems:
            raise report.BenchmarkError("; ".join(problems))
        correct = True
    except (report.BenchmarkError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: FAILED: {e}", file=sys.stderr)
        if not reps:
            return 1
        metrics, correct = {}, False

    kinds = "traced+untraced" if traced else "untraced"
    print(f"# {args.workload} seed {args.seed}: {len(reps)} {kinds} "
          f"repetitions in {time.monotonic() - start:.1f} s")
    for line in report.table(metrics):
        print(line)
    print(report.result_line(correct, reps, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
