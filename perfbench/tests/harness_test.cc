// Tests of the benchmark's own measurement helpers (src/harness.h).
#include "harness.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

Span make_span(std::uint32_t id, std::uint32_t parent, const char* name,
               std::int64_t start, std::int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(PercentileTest, ReportsValueWithSampleCount) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const Percentile p50 = percentile(samples, 50.0);
  EXPECT_DOUBLE_EQ(p50.value, 50.5);
  EXPECT_EQ(p50.n, 100u);
  EXPECT_EQ(p50.beyond, 50u);

  const Percentile p90 = percentile(samples, 90.0);
  EXPECT_NEAR(p90.value, 90.1, 1e-12);
  EXPECT_EQ(p90.n, 100u);
  EXPECT_EQ(p90.beyond, 10u) << "p90 of 100 slices keeps 10 samples beyond it";
}

TEST(PercentileTest, TailNeedsEnoughSamples) {
  // p99.9 of 10k samples has exactly 10 beyond it; of 1k only 1.
  EXPECT_EQ(samples_beyond(10'000, 99.9), 10u);
  EXPECT_EQ(samples_beyond(1'000, 99.9), 1u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(PercentileTest, IgnoresInputOrderAndHandlesEdges) {
  const Percentile p = percentile({5.0, 1.0, 3.0}, 50.0);
  EXPECT_DOUBLE_EQ(p.value, 3.0);
  EXPECT_EQ(p.n, 3u);
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0}, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0}, 100.0).value, 5.0);
  EXPECT_EQ(percentile({5.0, 1.0, 3.0}, 100.0).beyond, 0u);
  const Percentile empty = percentile({}, 50.0);
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.value, 0.0);
}

TEST(SpanTotalsTest, SelfTimeIsDurationMinusChildCoverage) {
  const std::vector<Span> spans = {
      make_span(1, 0, "sim.run_until", 0, 100),
      make_span(2, 1, "cluster.submit", 10, 20),
      make_span(3, 1, "cluster.submit", 50, 80),
      make_span(4, 3, "inner", 55, 60),  // grandchild: charged to span 3
  };
  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("sim.run_until").total_ns, 100);
  EXPECT_EQ(totals.at("sim.run_until").self_ns, 60);
  EXPECT_EQ(totals.at("cluster.submit").count, 2u);
  EXPECT_EQ(totals.at("cluster.submit").total_ns, 40);
  EXPECT_EQ(totals.at("cluster.submit").self_ns, 35);
  EXPECT_EQ(totals.at("inner").self_ns, 5);
}

TEST(SpanTotalsTest, OverlappingAndOverhangingChildrenAreNotDoubleCounted) {
  const std::vector<Span> spans = {
      make_span(1, 0, "parent", 100, 200),
      make_span(2, 1, "child", 90, 130),   // starts before the parent
      make_span(3, 1, "child", 120, 150),  // overlaps the previous child
      make_span(4, 1, "child", 190, 250),  // ends after the parent
  };
  const auto totals = totals_by_name(spans);
  // Covered: [100, 150) and [190, 200) = 60 of the parent's 100 ns.
  EXPECT_EQ(totals.at("parent").self_ns, 40);
}

TEST(TracerTest, RecordsNestingAndRequestIds) {
  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "sim.run_until");
    ScopedSpan inner(tracer, "app.submit_request", 42);
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  const Span& outer = tracer.spans()[0];
  const Span& inner = tracer.spans()[1];
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.request, 42u);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
  const auto totals = totals_by_name(tracer.spans());
  EXPECT_EQ(totals.at("sim.run_until").self_ns +
                totals.at("app.submit_request").total_ns,
            totals.at("sim.run_until").total_ns);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { ScopedSpan span(tracer, "sim.run_until"); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(CalibrationTest, DrainsEveryTimer) {
  EXPECT_GT(calibrate_ns_per_event(10'000), 0.0);
}

}  // namespace
}  // namespace perfbench
