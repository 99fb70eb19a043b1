// Measurement helpers of the two-clock benchmark: host-time spans with
// self-time attribution, percentiles that carry their sample count, process
// memory readings and the fixed calibration kernel. Nothing here knows about
// a workload; workloads.cc wires these around its calls into the simulator.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

// Host clock, nanoseconds since an arbitrary epoch.
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed interval. `parent` is the id of the span that was open when
// this one began (0 = root); spans of one request share `request`
// (0 = not request-scoped). Ids start at 1.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";  // string literal owned by the caller's binary
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// In-memory span recorder for a single thread. A disabled tracer records
// nothing, so the untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span nested under the innermost open span; returns its id
  // (0 when disabled).
  std::uint32_t begin(const char* name, std::uint64_t request = 0);
  // Closes the innermost open span, which must be `id`.
  void end(std::uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  // One line per span: id,parent,request,name,start_ns,end_ns.
  void write_csv(std::ostream& out) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(name, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

// Per-name totals over a span set. Self time is each span's duration minus
// the part of its interval covered by its direct children (overlapping or
// out-of-range children are clipped and merged, never double-counted).
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

// A percentile with the evidence behind it: `n` samples, of which `beyond`
// lie strictly above the percentile's rank.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

// Linear interpolation between closest ranks (the "exclusive of nothing"
// definition numpy uses by default). p in [0, 100]; empty input gives an
// all-zero result. Takes its input by value because it sorts it.
Percentile percentile(std::vector<double> samples, double p);

// Number of samples above the p-th percentile's rank among n samples.
std::size_t samples_beyond(std::size_t n, double p);

// Current and peak resident set size of this process, KiB (/proc).
std::int64_t rss_kib();
std::int64_t peak_rss_kib();

// Host ns per event of a fixed synthetic timer drain: `events` one-shot
// timers spread over ~26 simulated seconds, then drained. This is the
// raw-fire kernel of bench/sim_throughput, measured in the calling process
// so host-time results can be read as a ratio to it.
double calibrate_ns_per_event(std::size_t events);

}  // namespace perfbench
