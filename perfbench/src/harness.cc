#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

#include "sim/event_queue.h"

namespace perfbench {

std::uint32_t Tracer::begin(const char* name, std::uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.request = request;
  span.name = name;
  span.start_ns = host_ns();
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void Tracer::end(std::uint32_t id) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: span closed out of order");
  }
  spans_[id - 1].end_ns = host_ns();
  open_.pop_back();
}

void Tracer::write_csv(std::ostream& out) const {
  out << "id,parent,request,name,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  // Children grouped under their parent's index; ids are positions + 1 when
  // the spans come from a Tracer, but look them up to accept any id set.
  std::map<std::uint32_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    const auto it = index_of.find(s.parent);
    if (s.parent == 0 || it == index_of.end()) continue;
    children[it->second].emplace_back(s.start_ns, s.end_ns);
  }

  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t duration =
        std::max<std::int64_t>(0, s.end_ns - s.start_ns);
    // Union of the children's intervals clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const std::int64_t lo = std::max(begin, cursor);
      const std::int64_t hi = std::min(end, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - covered;
  }
  return totals;
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(std::floor(rank));
}

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  p = std::clamp(p, 0.0, 100.0);
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  out.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
  out.beyond = samples_beyond(samples.size(), p);
  return out;
}

namespace {

std::int64_t proc_status_kib(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stoll(line.substr(key.size()));
    }
  }
  return 0;
}

}  // namespace

std::int64_t rss_kib() { return proc_status_kib("VmRSS:"); }
std::int64_t peak_rss_kib() { return proc_status_kib("VmHWM:"); }

double calibrate_ns_per_event(std::size_t events) {
  escra::sim::Simulation sim;
  for (std::size_t i = 0; i < events; ++i) {
    sim.schedule_at(
        static_cast<escra::sim::TimePoint>((i * 401) % 26'000'000), [] {});
  }
  const std::int64_t t0 = host_ns();
  const std::size_t fired = sim.run_all();
  const std::int64_t t1 = host_ns();
  return fired == 0 ? 0.0
                    : static_cast<double>(t1 - t0) / static_cast<double>(fired);
}

}  // namespace perfbench
