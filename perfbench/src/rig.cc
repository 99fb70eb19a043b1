#include "rig.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

const char* clock_name(Clock clock) {
  switch (clock) {
    case Clock::kHost: return "host";
    case Clock::kSim: return "sim";
    case Clock::kLayer: return "layer";
  }
  return "unknown";
}

// The issue-facing channel names (net::channel_name uses dashes).
const char* channel_key(net::Channel c) {
  switch (c) {
    case net::Channel::kCpuTelemetry: return "cpu_telemetry";
    case net::Channel::kMemoryEvent: return "memory_event";
    case net::Channel::kControlRpc: return "control_rpc";
    case net::Channel::kRegistration: return "registration";
    case net::Channel::kHaReplication: return "ha_replication";
    case net::Channel::kBwTelemetry: return "bw_telemetry";
    case net::Channel::kAppData: return "app_data";
    case net::Channel::kShardControl: return "shard_control";
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

// --- Report ----------------------------------------------------------------

void Report::add(const std::string& name, double value, const std::string& unit,
                 Clock clock) {
  put({name, value, unit, clock, false, 0, 0});
}

void Report::add(const std::string& name, const Percentile& p,
                 const std::string& unit, Clock clock) {
  put({name, p.value, unit, clock, true, p.n, p.beyond});
}

void Report::put(Entry entry) {
  for (Entry& e : entries_) {
    if (e.name == entry.name) {
      e = std::move(entry);
      return;
    }
  }
  entries_.push_back(std::move(entry));
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

std::string Report::json(const RepOptions& options) const {
  std::ostringstream out;
  out << "{\"workload\": \"" << json_escape(options.workload)
      << "\", \"seed\": " << options.seed
      << ", \"traced\": " << (options.traced ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"host_s\": " << number(host_s) << ", \"slices_ms_per_s\": [";
  for (std::size_t i = 0; i < slice_ms_per_s.size(); ++i) {
    out << (i ? ", " : "") << number(slice_ms_per_s[i]);
  }
  out << "], \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    out << (i ? ", " : "") << "{\"name\": \"" << json_escape(c.name)
        << "\", \"ok\": " << (c.ok ? "true" : "false") << ", \"detail\": \""
        << json_escape(c.detail) << "\"}";
  }
  out << "], \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out << (i ? ", " : "") << "\"" << json_escape(e.name)
        << "\": {\"value\": " << number(e.value) << ", \"unit\": \""
        << json_escape(e.unit) << "\", \"clock\": \"" << clock_name(e.clock)
        << "\"";
    if (e.has_count) out << ", \"n\": " << e.n << ", \"beyond\": " << e.beyond;
    out << "}";
  }
  out << "}}";
  return out.str();
}

// --- RequestLog --------------------------------------------------------------

void RequestLog::done(sim::TimePoint intended, bool ok) {
  const sim::Duration latency = sim_.now() - intended;
  if (timeout_ > 0 && latency > timeout_) {
    ++failed_;
    ++timed_out_;
    return;
  }
  if (!ok) {
    ++failed_;
    return;
  }
  ++succeeded_;
  if (intended >= from_ && intended < to_) {
    ++window_succeeded_;
    latencies_ms_.push_back(
        sim::to_milliseconds(std::max<sim::Duration>(1, latency)));
  }
}

// --- WorkStream --------------------------------------------------------------

void WorkStream::submit(Source& source) {
  const double cost_ms =
      source.rng.lognormal(std::log(source.cost_ms), 0.8);
  const sim::Duration cost =
      std::max<sim::Duration>(1, static_cast<sim::Duration>(cost_ms * 1000.0));
  const std::uint64_t id = log_.issue();
  const sim::TimePoint intended = sim_.now();
  RequestLog* log = &log_;
  bool accepted = false;
  {
    ScopedSpan span(tracer_, "cluster.submit", id);
    accepted = source.container->submit(
        cost, 2 * memcg::kMiB,
        [log, intended](bool ok) { log->done(intended, ok); });
  }
  if (!accepted) log_.done(intended, false);
}

void WorkStream::arm_next(Source& source, sim::TimePoint now) {
  const auto gap = static_cast<sim::Duration>(
      source.rng.exponential(source.rate) * static_cast<double>(sim::kSecond));
  const sim::TimePoint at = now + std::max<sim::Duration>(1, gap);
  if (at >= source.until) return;
  Source* src = &source;
  source.timer = sim_.schedule_at(at, [this, src] {
    submit(*src);
    arm_next(*src, sim_.now());
  });
}

void WorkStream::poisson(cluster::Container& container, double rate,
                         double cost_ms, sim::Rng rng, sim::TimePoint from,
                         sim::TimePoint until) {
  Source& s = sources_.emplace_back();
  s.container = &container;
  s.rate = rate;
  s.cost_ms = cost_ms;
  s.rng = rng;
  s.until = until;
  arm_next(s, from);
}

void WorkStream::probe(cluster::Container& container, int every,
                       double cost_ms, sim::Rng rng, sim::TimePoint from) {
  Source& s = sources_.emplace_back();
  s.container = &container;
  s.cost_ms = cost_ms;
  s.rng = rng;
  s.every = every;
  Source* src = &s;
  const sim::TimePoint first = from + 1 + s.rng.uniform_int(0, 999);
  s.timer = sim_.schedule_every(first, sim::milliseconds(1), [this, src] {
    if (++src->ticks % static_cast<std::uint32_t>(src->every) == 0) {
      submit(*src);
    }
  });
}

void WorkStream::stop() {
  for (Source& s : sources_) {
    if (s.every > 0) sim_.cancel(s.timer);
  }
}

// --- Rig ---------------------------------------------------------------------

Rig::Rig(const RepOptions& options)
    : options_(options), tracer_(options.traced), root_(options.seed) {}

Rig::~Rig() = default;

cluster::Node& Rig::add_node(const cluster::NodeConfig& config) {
  ScopedSpan span(tracer_, "cluster.add_node");
  return k8s_.add_node(config);
}

cluster::Container& Rig::create_container(const cluster::ContainerSpec& spec,
                                          double cores, memcg::Bytes mem,
                                          cluster::Node* pin) {
  ScopedSpan span(tracer_, "cluster.create_container");
  return k8s_.create_container(spec, cores, mem, pin);
}

obs::Observer* Rig::new_observer() {
  if (!options_.traced) return nullptr;
  obs::Observer::Config config;
  config.trace_capacity = 1 << 18;
  observers_.push_back(std::make_unique<obs::Observer>(config));
  if (observers_.size() == 1) {
    net_.attach_metrics(observers_.front()->metrics());
  }
  return observers_.back().get();
}

check::InvariantChecker* Rig::add_controller(core::EscraSystem& escra,
                                             obs::Observer* observer) {
  controllers_.push_back({&escra, observer});
  if (observer == nullptr) return nullptr;
  checkers_.push_back(
      std::make_unique<check::InvariantChecker>(escra, net_, *observer));
  return checkers_.back().get();
}

void Rig::add_shard_checker(escra::shard::ShardedControlPlane& plane) {
  if (!options_.traced) return;
  shard_checker_ = std::make_unique<check::ShardInvariantChecker>(plane);
}

void Rig::start_slack_sampler(const Timeline& t) {
  // Once per simulated second, like the paper's slack CDFs: per managed
  // container, CPU limit minus cores used over the second, and memory limit
  // minus usage. Seconds ending inside the measured window are sampled.
  prev_consumed_.assign(managed_.size(), 0);
  slack_timer_ = sim_.schedule_every(sim::kSecond, sim::kSecond, [this, t] {
    const sim::TimePoint now = sim_.now();
    const bool measuring = now > t.measure_start && now <= t.measure_end;
    for (std::size_t i = 0; i < managed_.size(); ++i) {
      const cluster::Container& c = *managed_[i];
      const sim::Duration consumed = c.cpu_cgroup().total_consumed();
      const double used = static_cast<double>(consumed - prev_consumed_[i]) /
                          static_cast<double>(sim::kSecond);
      prev_consumed_[i] = consumed;
      if (!measuring) continue;
      cpu_slack_.push_back(std::max(0.0, c.cpu_cgroup().limit_cores() - used));
      mem_slack_mib_.push_back(std::max(
          0.0, static_cast<double>(c.mem_cgroup().slack()) /
                   static_cast<double>(memcg::kMiB)));
    }
  });
}

Rig::Counters Rig::read_all_counters() const {
  Counters c;
  c["sim.events"] = static_cast<double>(sim_.executed_events());
  double ctl_bytes = 0.0;
  for (const net::Channel ch : net::kAllChannels) {
    const net::ChannelStats& s = net_.stats(ch);
    const std::string base = std::string("net.") + channel_key(ch);
    c[base + ".msgs"] = static_cast<double>(s.messages);
    c[base + ".bytes"] = static_cast<double>(s.bytes);
    if (ch != net::Channel::kAppData) ctl_bytes += static_cast<double>(s.bytes);
  }
  c["net.ctl_bytes"] = ctl_bytes;
  c["net.dropped"] = static_cast<double>(net_.dropped_messages());

  double periods = 0, throttled = 0, evictions = 0;
  for (const cluster::Container* k : managed_) {
    periods += static_cast<double>(k->cpu_cgroup().periods_elapsed());
    throttled += static_cast<double>(k->cpu_cgroup().throttle_count());
    evictions += static_cast<double>(k->eviction_count());
  }
  c["cluster.cfs_periods"] = periods;
  c["cluster.cfs_throttled_periods"] = throttled;
  c["cluster.evictions"] = evictions;

  double updates = 0, retransmits = 0;
  for (const Controller& k : controllers_) {
    updates += static_cast<double>(k.escra->controller().limit_updates_sent());
    retransmits += static_cast<double>(k.escra->controller().retransmits());
    if (k.observer == nullptr) continue;
    const obs::Observer::Handles& h = k.observer->h;
    const auto add = [&c](const char* key, const obs::Counter* counter) {
      c[key] += static_cast<double>(counter->value());
    };
    add("core.stats_ingested", h.stats_ingested);
    add("core.telemetry_rejected", h.telemetry_rejected);
    add("core.cpu_decisions", h.cpu_grants);
    add("core.cpu_decisions", h.cpu_shrinks);
    add("core.mem_decisions", h.mem_grants);
    add("core.mem_decisions", h.mem_denies);
    add("core.batched_rpcs", h.batched_rpcs);
    add("core.batch_entries", h.batch_entries);
    add("core.agent_applies", h.agent_limit_applies);
    add("bw.throttle_events", h.bw_throttle_events);
    add("bw.grants", h.bw_grants);
    add("bw.shrinks", h.bw_shrinks);
    const obs::TraceBuffer& trace = k.observer->trace();
    c["obs.trace_events"] += static_cast<double>(trace.recorded());
    c["obs.trace_evicted"] += static_cast<double>(trace.evicted());
  }
  c["core.limit_updates"] = updates;
  c["core.retransmits"] = retransmits;
  double checked = 0;
  for (const auto& k : checkers_) {
    checked += static_cast<double>(k->events_checked());
  }
  c["check.events_checked"] = checked;
  read_counters(c);
  return c;
}

void Rig::report_requests(Report& report, const RequestLog& log,
                          double window_s) {
  report.add("req_latency_ms_p50", percentile(log.latencies_ms(), 50.0), "ms",
             Clock::kSim);
  report.add("req_latency_ms_p999", percentile(log.latencies_ms(), 99.9), "ms",
             Clock::kSim);
  report.add("goodput_rps",
             ratio(static_cast<double>(log.window_succeeded()), window_s),
             "req/s", Clock::kSim);
}

void Rig::report_accounting(Report& report, const RequestLog& log) {
  report.attempted = log.issued();
  report.failed = log.failed();
  report.check("accounting", log.balanced(),
               "issued " + std::to_string(log.issued()) + " succeeded " +
                   std::to_string(log.succeeded()) + " failed " +
                   std::to_string(log.failed()));
}

std::string Rig::run() {
  Report report;
  const Timeline t = timeline();

  rss_before_kib_ = rss_kib();
  const std::int64_t setup_begin = host_ns();
  build();
  if (managed_.empty()) throw std::logic_error("no managed containers");
  start_slack_sampler(t);
  const std::int64_t run_begin = host_ns();
  setup_s_ = static_cast<double>(run_begin - setup_begin) / 1e9;
  rss_run_start_kib_ = rss_kib();

  {
    ScopedSpan span(tracer_, "sim.warmup");
    sim_.run_until(t.measure_start);
  }
  const Counters begin = read_all_counters();
  std::vector<double>& slice_ms_per_s = report.slice_ms_per_s;
  slice_ms_per_s.reserve(static_cast<std::size_t>(t.slices));
  const sim::Duration slice = (t.measure_end - t.measure_start) / t.slices;
  for (int k = 1; k <= t.slices; ++k) {
    const sim::TimePoint until =
        k == t.slices ? t.measure_end : t.measure_start + slice * k;
    const sim::Duration length = until - sim_.now();
    const std::int64_t h0 = host_ns();
    {
      ScopedSpan span(tracer_, "sim.run_until");
      sim_.run_until(until);
    }
    const std::int64_t h1 = host_ns();
    slice_ms_per_s.push_back(static_cast<double>(h1 - h0) / 1e6 /
                             sim::to_seconds(length));
    pending_events_max_ = std::max(pending_events_max_, sim_.pending_events());
    for (const Controller& c : controllers_) {
      pending_updates_max_ = std::max(pending_updates_max_,
                                      c.escra->controller().pending_updates());
    }
    after_slice();
  }
  const Counters end = read_all_counters();
  end_of_load();
  {
    // Drain until every operation has completed, at most kMaxDrain past
    // the nominal drain end; the accounting check reports any still open.
    ScopedSpan span(tracer_, "sim.drain");
    sim_.run_until(t.drain_end);
    while (!drained() && sim_.now() < t.drain_end + kMaxDrain) {
      sim_.run_until(sim_.now() + sim::kSecond);
    }
    report.add("sim.drain_s", sim::to_seconds(sim_.now() - t.measure_end),
               "s", Clock::kSim);
  }
  rss_run_end_kib_ = rss_kib();
  peak_kib_ = peak_rss_kib();
  report.host_s = static_cast<double>(host_ns() - setup_begin) / 1e9;
  sim_.cancel(slack_timer_);

  report_common(report, t, begin, end);
  collect(report);
  report.add("failed_frac",
             ratio(static_cast<double>(report.failed),
                   static_cast<double>(report.attempted)),
             "ratio", Clock::kLayer);
  retire_checkers(report);
  for (const Controller& c : controllers_) c.escra->stop();

  report.add("sim.calib_ns_per_event", calibrate_ns_per_event(500'000), "ns",
             Clock::kLayer);
  if (options_.traced && !options_.spans_path.empty()) {
    std::ofstream out(options_.spans_path);
    tracer_.write_csv(out);
  }
  return report.json(options_);
}

void Rig::retire_checkers(Report& report) {
  // A last sweep on the drained system, then retire the checkers: they
  // reference the observers and the simulation.
  std::uint64_t violations = 0;
  std::string first_violation;
  for (const auto& k : checkers_) {
    k->check_now();
    violations += k->violations().size() + k->dropped_violations();
    if (first_violation.empty() && !k->ok()) first_violation = k->report();
  }
  std::uint64_t sweeps = 0;
  for (const auto& k : checkers_) sweeps += k->sweeps();
  if (shard_checker_) {
    shard_checker_->check_now();
    sweeps += shard_checker_->sweeps();
    violations += shard_checker_->violations().size() +
                  shard_checker_->dropped_violations();
    if (first_violation.empty() && !shard_checker_->ok()) {
      first_violation = shard_checker_->report();
    }
  }
  if (options_.traced) {
    report.check("invariants", violations == 0,
                 violations == 0 ? "" : first_violation.substr(0, 400));
  }
  report.add("check.sweeps", static_cast<double>(sweeps), "count",
             Clock::kLayer);
  report.add("check.violations", static_cast<double>(violations), "count",
             Clock::kLayer);
  shard_checker_.reset();
  checkers_.clear();
}

void Rig::report_common(Report& report, const Timeline& t,
                        const Counters& begin, const Counters& end) {
  const double window_s = sim::to_seconds(t.measure_end - t.measure_start);
  const auto n = static_cast<double>(managed_.size());
  const auto total = [&end](const std::string& key) {
    const auto e = end.find(key);
    return e == end.end() ? 0.0 : e->second;
  };
  const auto delta = [&](const std::string& key) {
    const auto b = begin.find(key);
    return total(key) - (b == begin.end() ? 0.0 : b->second);
  };
  const auto layer = [&report](const std::string& name, double value,
                               const char* unit) {
    report.add(name, value, unit, Clock::kLayer);
  };
  // A counter's rate over the window, reported under the counter's name.
  const auto per_s = [&](const std::string& key) {
    layer(key, delta(key) / window_s, "1/s");
  };

  // --- end to end, host clock (host_ms_per_sim_s_* come from the slices) ---
  report.add("rss_kib_per_container",
             static_cast<double>(peak_kib_ - rss_before_kib_) / n, "KiB",
             Clock::kHost);
  report.add("setup_s", setup_s_, "s", Clock::kHost);

  // --- end to end, simulated clock ---
  report.add("cpu_slack_cores_p50", percentile(cpu_slack_, 50.0), "cores",
             Clock::kSim);
  report.add("cpu_slack_cores_p99", percentile(cpu_slack_, 99.0), "cores",
             Clock::kSim);
  report.add("mem_slack_mib_p50", percentile(mem_slack_mib_, 50.0), "MiB",
             Clock::kSim);
  report.add("throttled_frac",
             ratio(delta("cluster.cfs_throttled_periods"),
                   delta("cluster.cfs_periods")),
             "ratio", Clock::kSim);
  report.add("ctl_bytes_per_container_s", delta("net.ctl_bytes") / n / window_s,
             "B/s", Clock::kSim);
  double ooms = 0;
  for (const cluster::Container* k : managed_) {
    ooms += static_cast<double>(k->oom_kill_count());
  }
  layer("oom_kills", ooms, "count");

  // --- per layer: sim ---
  const auto totals = totals_by_name(tracer_.spans());
  const double events = delta("sim.events");
  const auto run = totals.find("sim.run_until");
  const double run_self_ms =
      run == totals.end() ? 0.0
                          : static_cast<double>(run->second.self_ns) / 1e6;
  layer("sim.events_per_sim_s", events / window_s, "1/s");
  layer("sim.host_ns_per_event",
        ratio(span_total_ms(totals, "sim.run_until") * 1e6, events), "ns");
  layer("sim.pending_events_max", static_cast<double>(pending_events_max_),
        "count");
  layer("sim.run_until_self_ms_per_sim_s", run_self_ms / window_s, "ms");

  // --- per layer: net ---
  for (const net::Channel ch : net::kAllChannels) {
    const std::string base = std::string("net.") + channel_key(ch);
    layer(base + ".msgs_per_s", delta(base + ".msgs") / window_s, "1/s");
    layer(base + ".bytes_per_s", delta(base + ".bytes") / window_s, "B/s");
  }
  per_s("net.dropped");

  // --- per layer: cluster ---
  per_s("cluster.cfs_periods");
  per_s("cluster.cfs_throttled_periods");
  per_s("cluster.evictions");
  layer("cluster.submit_ns", span_mean_ns(totals, "cluster.submit"), "ns");
  layer("cluster.setup_us_per_container",
        (span_total_ms(totals, "cluster.add_node") +
         span_total_ms(totals, "cluster.create_container")) * 1e3 / n,
        "us");

  // --- per layer: app / workload / exp ---
  layer("app.submit_request_ns", span_mean_ns(totals, "app.submit_request"),
        "ns");
  layer("app.setup_ms", span_total_ms(totals, "app.setup"), "ms");
  layer("exp.profile_ms", span_total_ms(totals, "exp.profile"), "ms");
  per_s("workload.issued");
  per_s("workload.timed_out");

  // --- per layer: core ---
  per_s("core.stats_ingested");
  per_s("core.telemetry_rejected");
  per_s("core.cpu_decisions");
  per_s("core.mem_decisions");
  per_s("core.limit_updates");
  layer("core.batch_entries_per_rpc",
        ratio(delta("core.batch_entries"), delta("core.batched_rpcs")),
        "ratio");
  layer("core.retransmit_frac",
        ratio(delta("core.retransmits"), delta("core.limit_updates")), "ratio");
  layer("core.pending_updates_max", static_cast<double>(pending_updates_max_),
        "count");
  per_s("core.agent_applies");
  layer("core.manage_us_per_container",
        span_total_ms(totals, "core.manage") * 1e3 / n, "us");
  sim::Histogram loop;
  for (const auto& o : observers_) {
    loop.merge(o->profiler().histogram(obs::LoopStage::kEndToEnd));
  }
  const auto loop_ms = [&loop](double p) {
    Percentile out;
    out.n = loop.count();
    if (out.n == 0) return out;
    out.value = sim::to_milliseconds(loop.percentile(p));
    out.beyond = samples_beyond(out.n, p);
    return out;
  };
  report.add("core.ctl_loop_ms_p50", loop_ms(50.0), "ms", Clock::kLayer);
  report.add("core.ctl_loop_ms_p99", loop_ms(99.0), "ms", Clock::kLayer);

  // --- per layer: ha / shard / bw (zero where the layer is not deployed) ---
  per_s("ha.wal_appends");
  layer("ha.failovers", total("ha.failovers"), "count");
  layer("ha.enable_ms", span_total_ms(totals, "ha.enable"), "ms");
  layer("ha.takeover_ms", 0.0, "ms");  // sharded_fleet replaces it
  per_s("shard.borrow_requests");
  per_s("shard.borrow_grants");
  per_s("shard.borrow_retransmits");
  per_s("shard.pool_resizes");
  // Over the whole run: a grant can land in a later window than its request.
  layer("shard.grant_ratio",
        ratio(total("shard.borrow_grants"), total("shard.borrow_requests")),
        "ratio");
  per_s("bw.throttle_events");
  per_s("bw.grants");
  per_s("bw.shrinks");

  // --- per layer: obs / check ---
  per_s("obs.trace_events");
  per_s("obs.trace_evicted");
  per_s("check.events_checked");

  // --- per layer: memory, from outside the process ---
  const auto kib_per_container = [&](std::int64_t kib) {
    return static_cast<double>(kib) / n;
  };
  layer("mem.cluster_kib_per_container",
        kib_per_container(mem_kib_[kMemCluster]), "KiB");
  layer("mem.core_kib_per_container", kib_per_container(mem_kib_[kMemCore]),
        "KiB");
  layer("mem.ha_kib_per_container", kib_per_container(mem_kib_[kMemHa]), "KiB");
  layer("mem.run_growth_kib_per_container",
        kib_per_container(rss_run_end_kib_ - rss_run_start_kib_), "KiB");
}

double span_total_ms(const std::map<std::string, SpanTotals>& totals,
                     const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0
                            : static_cast<double>(it->second.total_ns) / 1e6;
}

double span_mean_ns(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.total_ns) /
         static_cast<double>(it->second.count);
}

}  // namespace perfbench
