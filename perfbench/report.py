"""Aggregation and validation of benchmark repetitions.

Each repetition of a workload runs in its own process and prints one JSON
object (see src/rig.h). This module merges the repetitions of one run into
the metrics BENCHMARK.json declares, and checks them:

* every simulated-clock metric of a traced repetition must be identical to
  that of the untraced repetition of the same seed (tracing must change
  nothing simulated);
* every check a repetition reports (accounting, invariants, non-vacuity)
  must hold;
* the metric names and units printed must be exactly the declared ones.

A run's repetitions use seeds derived from the run's seed (see run.py), so
its simulated-clock metrics, means over the repetitions, repeat exactly for
one seed; host-clock numbers are medians or pooled percentiles.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


class BenchmarkError(Exception):
    """A correctness check failed; the run must not report success."""


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    return spec


def declared(spec, section):
    """Name -> unit of the metrics a BENCHMARK.json section declares."""
    return {m["name"]: m["unit"] for m in spec[section]}


def validate_declared(metrics, expected):
    """Problems with `metrics` ({name: {"value", "unit"}}) against the
    declared {name: unit}: malformed names or units, missing, extra or
    mismatched entries, and values that are not finite numbers."""
    problems = []
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"malformed metric name {name!r}")
        unit = entry.get("unit", "")
        if not UNIT_RE.match(unit):
            problems.append(f"malformed unit {unit!r} for {name}")
        value = entry.get("value")
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{name} is not a finite number: {value!r}")
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"undeclared metric {name}")
    for name in sorted(set(expected) & set(metrics)):
        if metrics[name]["unit"] != expected[name]:
            problems.append(f"{name} unit {metrics[name]['unit']!r} is not "
                            f"the declared {expected[name]!r}")
    return problems


def percentile(samples, p):
    """(value, n, beyond) of the p-th percentile of `samples`, linear
    interpolation between closest ranks (numpy's default), where `beyond`
    counts the samples above the percentile's rank. Empty -> (0.0, 0, 0)."""
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return 0.0, 0, 0
    rank = p / 100.0 * (n - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    value = values[lo] + (values[hi] - values[lo]) * (rank - lo)
    return value, n, n - 1 - lo


def sim_signature(rep):
    """The simulated-clock metrics of a repetition, which must repeat
    exactly for one seed."""
    return {name: (m["value"], m.get("n"))
            for name, m in rep["metrics"].items() if m["clock"] == "sim"}


def check_reps(reps):
    """Raises BenchmarkError unless every repetition passed its own checks
    and every traced repetition agrees exactly with the untraced one of the
    same seed on every simulated-clock metric and operation count."""
    if not reps:
        raise BenchmarkError("no repetition completed")
    for rep in reps:
        for c in rep["checks"]:
            if not c["ok"]:
                kind = "traced" if rep["traced"] else "untraced"
                raise BenchmarkError(
                    f"{kind} repetition (seed {rep['seed']}) failed check "
                    f"{c['name']}: {c['detail']}")
    untraced = {r["seed"]: r for r in reps if not r["traced"]}
    for rep in reps:
        if not rep["traced"]:
            continue
        twin = untraced.get(rep["seed"])
        if twin is None:
            raise BenchmarkError(f"traced seed {rep['seed']} has no untraced twin")
        ref, got = sim_signature(twin), sim_signature(rep)
        diff = sorted(k for k in set(ref) | set(got) if ref.get(k) != got.get(k))
        if diff:
            raise BenchmarkError(
                "tracing changed simulated-clock metrics of seed %d: %s"
                % (rep["seed"], ", ".join(diff)))
        if (rep["attempted"], rep["failed"]) != (twin["attempted"],
                                                 twin["failed"]):
            raise BenchmarkError("tracing changed the operation counts")


def combine(reps, name, how):
    """{"value", "unit", ...} of metric `name` over `reps`: the median
    ("median") or the mean ("mean") of the per-repetition values. Sample
    counts, where present, become the smallest per-repetition ones."""
    entries = [r["metrics"][name] for r in reps]
    out = dict(entries[0])
    values = [e["value"] for e in entries]
    out["value"] = statistics.median(values) if how == "median" else \
        statistics.fmean(values)
    if "n" in out:
        out["n"] = min(e["n"] for e in entries)
        out["beyond"] = min(e["beyond"] for e in entries)
        out["per_rep"] = len(entries)
        out["how"] = how
    return out


HOST_SLICE_METRICS = {"host_ms_per_sim_s_p50": 50.0,
                      "host_ms_per_sim_s_p90": 90.0}


def slice_percentile(reps, p):
    """Host ms per simulated second at percentile p: each repetition's
    percentile over its own timed slices, then the median over repetitions,
    so one repetition hit by host noise cannot move it. The sample counts
    are per repetition; the run holds per_rep times as many."""
    pcts = [percentile(r["slices_ms_per_s"], p) for r in reps]
    return {"value": statistics.median(v for v, _, _ in pcts), "unit": "ms",
            "clock": "host", "n": min(n for _, n, _ in pcts),
            "beyond": min(b for _, _, b in pcts), "per_rep": len(pcts),
            "how": "median"}


def aggregate(reps, traced, spec):
    """The run's declared metrics from its repetitions.

    Untraced run: host-clock metrics are medians over repetitions (see
    slice_percentile); simulated-clock metrics are means over the
    repetitions, whose seeds are fixed by the run's seed, so they repeat
    exactly.
    Traced run: every per-layer metric as the median over the traced
    repetitions, except memory and the calibration kernel, which come from
    the untraced ones (the observer's buffers would otherwise be charged to
    the layers), and obs.overhead_frac, the traced/untraced host-time ratio
    minus one.
    """
    check_reps(reps)
    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if not untraced or (traced and not traced_reps):
        raise BenchmarkError("too few repetitions for this run")
    metrics = {}
    if not traced:
        for name in declared(spec, "end_to_end"):
            if name in HOST_SLICE_METRICS:
                metrics[name] = slice_percentile(untraced,
                                                 HOST_SLICE_METRICS[name])
            else:
                clock = untraced[0]["metrics"][name]["clock"]
                metrics[name] = combine(untraced, name,
                                        "mean" if clock == "sim" else "median")
    else:
        for name in declared(spec, "per_layer"):
            if name == "obs.overhead_frac":
                ratio = (statistics.median(r["host_s"] for r in traced_reps) /
                         statistics.median(r["host_s"] for r in untraced))
                metrics[name] = {"value": ratio - 1.0, "unit": "ratio",
                                 "clock": "layer"}
            elif name.startswith("mem.") or name == "sim.calib_ns_per_event":
                metrics[name] = combine(untraced, name, "median")
            else:
                metrics[name] = combine(traced_reps, name, "median")
        if metrics.get("check.violations", {}).get("value", 0) != 0:
            raise BenchmarkError("invariant checker reported violations")
    return metrics


def result_line(correct, reps, metrics):
    """The final JSON line: operation counts summed over repetitions."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(sum(r["attempted"] for r in reps)),
        "failed": int(sum(r["failed"] for r in reps)),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    })


def table(metrics):
    """Human-readable lines: name, value, unit, clock, sample counts."""
    lines = []
    for name, m in metrics.items():
        count = ""
        if "per_rep" in m:
            count = (f"  ({m['how']} of {m['per_rep']} repetitions, each "
                     f"n>={m['n']}, >={m['beyond']} beyond)")
        elif "n" in m:
            count = f"  (n={m['n']}, {m['beyond']} beyond)"
        lines.append(f"{name:<40} {m['value']:>16.6g} {m['unit']:<8}"
                     f" {m.get('clock', ''):<6}{count}")
    return lines
