"""Tests of the benchmark's aggregation and output checks (report.py).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import report  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "host_ms_per_sim_s_p50", "unit": "ms"},
        {"name": "req_latency_ms_p999", "unit": "ms"},
    ],
    "per_layer": [
        {"name": "sim.host_ns_per_event", "unit": "ns"},
        {"name": "mem.core_kib_per_container", "unit": "KiB"},
        {"name": "obs.overhead_frac", "unit": "ratio"},
        {"name": "check.violations", "unit": "count"},
    ],
}


def rep(traced, host_ns, latency=12.5, host_s=1.0, checks_ok=True,
        mem=3.0, violations=0, seed=7, slices=(1.0, 2.0)):
    return {
        "seed": seed, "traced": traced, "attempted": 100, "failed": 0,
        "host_s": host_s, "slices_ms_per_s": list(slices),
        "checks": [{"name": "accounting", "ok": checks_ok, "detail": "x"}],
        "metrics": {
            "req_latency_ms_p999": {"value": latency, "unit": "ms",
                                    "clock": "sim", "n": 20000,
                                    "beyond": 20},
            "sim.host_ns_per_event": {"value": host_ns, "unit": "ns",
                                      "clock": "layer"},
            "mem.core_kib_per_container": {"value": mem, "unit": "KiB",
                                           "clock": "layer"},
            "check.violations": {"value": violations, "unit": "count",
                                 "clock": "layer"},
        },
    }


class ValidateDeclaredTest(unittest.TestCase):
    def test_accepts_exactly_the_declared_metrics(self):
        metrics = {"host_ms_per_sim_s_p50": {"value": 1.5, "unit": "ms"},
                   "req_latency_ms_p999": {"value": 2, "unit": "ms"}}
        self.assertEqual(
            report.validate_declared(metrics,
                                     report.declared(SPEC, "end_to_end")), [])

    def test_rejects_bad_names_units_and_values(self):
        metrics = {"_bad name": {"value": 1.0, "unit": "ms"},
                   "ok": {"value": float("nan"), "unit": "ms"},
                   "spaced": {"value": 1.0, "unit": "m s"},
                   "flag": {"value": True, "unit": "count"}}
        problems = report.validate_declared(metrics, {})
        text = "\n".join(problems)
        self.assertIn("malformed metric name '_bad name'", text)
        self.assertIn("ok is not a finite number", text)
        self.assertIn("malformed unit 'm s'", text)
        self.assertIn("flag is not a finite number", text)

    def test_reports_missing_extra_and_unit_mismatch(self):
        metrics = {"host_ms_per_sim_s_p50": {"value": 1.0, "unit": "s"},
                   "extra": {"value": 1.0, "unit": "ms"}}
        problems = report.validate_declared(
            metrics, report.declared(SPEC, "end_to_end"))
        self.assertIn("missing metric req_latency_ms_p999", problems)
        self.assertIn("undeclared metric extra", problems)
        self.assertTrue(any("unit 's' is not the declared 'ms'" in p
                            for p in problems))

    def test_name_and_unit_limits(self):
        self.assertTrue(report.NAME_RE.match("a" * 64))
        self.assertFalse(report.NAME_RE.match("a" * 65))
        self.assertTrue(report.UNIT_RE.match("B/s"))
        self.assertTrue(report.UNIT_RE.match("1/s"))
        self.assertFalse(report.UNIT_RE.match("u" * 17))


class PercentileTest(unittest.TestCase):
    def test_reports_value_with_sample_count(self):
        samples = list(range(100, 0, -1))
        self.assertEqual(report.percentile(samples, 50.0), (50.5, 100, 50))
        value, n, beyond = report.percentile(samples, 90.0)
        self.assertAlmostEqual(value, 90.1)
        self.assertEqual((n, beyond), (100, 10))
        self.assertEqual(report.percentile([], 50.0), (0.0, 0, 0))
        self.assertEqual(report.percentile([4.0], 99.9), (4.0, 1, 0))


class AggregateTest(unittest.TestCase):
    def test_untraced_run_takes_host_medians_and_simulated_means(self):
        reps = [rep(False, 3.0, latency=10.0, seed=1, slices=(1.0, 3.0)),
                rep(False, 1.0, latency=20.0, seed=2, slices=(2.0, 4.0)),
                rep(False, 2.0, latency=15.0, seed=3, slices=(5.0, 6.0))]
        spec = {"end_to_end": SPEC["end_to_end"] + [
            {"name": "host_ms_per_sim_s_p90", "unit": "ms"}]}
        metrics = report.aggregate(reps, False, spec)
        self.assertEqual(set(metrics), {"host_ms_per_sim_s_p50",
                                        "host_ms_per_sim_s_p90",
                                        "req_latency_ms_p999"})
        # Per-repetition p50s 2.0, 3.0, 5.5 -> median 3.0; p90s 2.8, 3.8,
        # 5.9 -> 3.8. Counts are per repetition.
        self.assertEqual(metrics["host_ms_per_sim_s_p50"]["value"], 3.0)
        self.assertEqual(metrics["host_ms_per_sim_s_p50"]["n"], 2)
        self.assertEqual(metrics["host_ms_per_sim_s_p50"]["per_rep"], 3)
        self.assertAlmostEqual(metrics["host_ms_per_sim_s_p90"]["value"], 3.8)
        self.assertEqual(metrics["req_latency_ms_p999"]["value"], 15.0)
        self.assertEqual(metrics["req_latency_ms_p999"]["beyond"], 20)
        self.assertEqual(metrics["req_latency_ms_p999"]["per_rep"], 3)

    def test_traced_run_splits_sources_and_computes_overhead(self):
        reps = [rep(False, 1.0, host_s=2.0, mem=3.0, seed=1),
                rep(True, 5.0, host_s=3.0, mem=99.0, seed=1),
                rep(False, 1.0, host_s=2.0, mem=3.0, seed=2),
                rep(True, 7.0, host_s=3.0, mem=99.0, seed=2)]
        metrics = report.aggregate(reps, True, SPEC)
        self.assertEqual(metrics["sim.host_ns_per_event"]["value"], 6.0)
        self.assertEqual(metrics["mem.core_kib_per_container"]["value"], 3.0)
        self.assertAlmostEqual(metrics["obs.overhead_frac"]["value"], 0.5)

    def test_tracing_must_not_change_simulated_metrics(self):
        reps = [rep(False, 1.0, latency=12.5), rep(True, 1.0, latency=12.6)]
        with self.assertRaisesRegex(report.BenchmarkError,
                                    "req_latency_ms_p999"):
            report.aggregate(reps, True, SPEC)
        # Different seeds may differ; only twins are compared.
        reps = [rep(False, 1.0, latency=12.5, seed=1),
                rep(True, 1.0, latency=12.5, seed=1),
                rep(False, 1.0, latency=99.0, seed=2),
                rep(True, 1.0, latency=99.0, seed=2)]
        report.aggregate(reps, True, SPEC)

    def test_failed_check_or_violation_fails_the_run(self):
        with self.assertRaisesRegex(report.BenchmarkError, "accounting"):
            report.aggregate([rep(False, 1.0, checks_ok=False)], False, SPEC)
        reps = [rep(False, 1.0, violations=1), rep(True, 1.0, violations=1)]
        with self.assertRaisesRegex(report.BenchmarkError, "violations"):
            report.aggregate(reps, True, SPEC)


class ResultLineTest(unittest.TestCase):
    def test_has_exactly_the_result_keys(self):
        reps = [rep(False, 1.0, seed=1), rep(False, 2.0, seed=2)]
        metrics = report.aggregate(reps, False, SPEC)
        line = json.loads(report.result_line(True, reps, metrics))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["attempted"], 200)
        self.assertEqual(line["failed"], 0)
        for entry in line["metrics"].values():
            self.assertEqual(set(entry), {"value", "unit"})

    def test_table_prints_sample_counts_of_percentiles(self):
        metrics = report.aggregate([rep(False, 1.0)], False, SPEC)
        lines = report.table(metrics)
        self.assertTrue(any("req_latency_ms_p999" in l and "n>=20000" in l
                            and ">=20 beyond" in l for l in lines))
        self.assertTrue(any("host_ms_per_sim_s_p50" in l and "median of 1"
                            in l and "n>=2" in l for l in lines))


if __name__ == "__main__":
    unittest.main()
