// The repetition skeleton every workload shares: build (timed as set-up,
// with memory read around each layer's set-up call), a simulated warm-up,
// the measured window cut into equal simulated-time slices that are timed
// on the host clock, a drain, and collection of both clocks' metrics.
//
// A traced repetition additionally attaches one obs::Observer and one
// check::InvariantChecker per controller and records host-time spans
// around every call the benchmark makes into a layer. Nothing it adds may
// change a simulated result; run.py checks that it does not.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant_checker.h"
#include "check/shard_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "harness.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {

namespace sim = escra::sim;
namespace net = escra::net;
namespace cluster = escra::cluster;
namespace core = escra::core;
namespace obs = escra::obs;
namespace check = escra::check;
namespace memcg = escra::memcg;

// Which clock a metric is read from. kLayer marks the traced run's
// per-layer metrics, whatever clock they use.
enum class Clock { kHost, kSim, kLayer };

// Metrics and checks of one repetition, serialized as one JSON object.
// Adding a metric name twice replaces the earlier value.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           Clock clock);
  void add(const std::string& name, const Percentile& p,
           const std::string& unit, Clock clock);
  void check(const std::string& name, bool ok, const std::string& detail);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double host_s = 0.0;  // set-up plus simulated run, host clock
  // Host ms per simulated second of each timed slice, in order. run.py
  // pools them over repetitions for host_ms_per_sim_s_p50/p90.
  std::vector<double> slice_ms_per_s;

  std::string json(const RepOptions& options) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    Clock clock = Clock::kSim;
    bool has_count = false;
    std::size_t n = 0;
    std::size_t beyond = 0;
  };
  void put(Entry entry);

  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Entry> entries_;
  std::vector<Check> checks_;
};

// Open-loop request accounting in simulated time. Latency runs from the
// intended send time; a reply later than `timeout` (0 = none) is a failure.
// Latency and goodput cover requests intended inside the measured window;
// the issued/succeeded/failed accounting covers every request.
class RequestLog {
 public:
  RequestLog(sim::Simulation& sim, sim::Duration timeout)
      : sim_(sim), timeout_(timeout) {}

  void set_window(sim::TimePoint from, sim::TimePoint to) {
    from_ = from;
    to_ = to;
  }
  std::uint64_t issue() { return ++issued_; }
  void done(sim::TimePoint intended, bool ok);

  std::uint64_t issued() const { return issued_; }
  std::uint64_t succeeded() const { return succeeded_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t timed_out() const { return timed_out_; }
  std::uint64_t window_succeeded() const { return window_succeeded_; }
  bool balanced() const { return issued_ == succeeded_ + failed_; }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }

 private:
  sim::Simulation& sim_;
  sim::Duration timeout_;
  sim::TimePoint from_ = 0;
  sim::TimePoint to_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t succeeded_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t window_succeeded_ = 0;
  std::vector<double> latencies_ms_;
};

// Per-container open-loop CPU work: each item is a Container::submit of a
// log-normal CPU cost, timed from its intended submit time. The generator
// never waits on the system, so it is never late in simulated time.
class WorkStream {
 public:
  WorkStream(sim::Simulation& sim, Tracer& tracer, RequestLog& log)
      : sim_(sim), tracer_(tracer), log_(log) {}
  WorkStream(const WorkStream&) = delete;
  WorkStream& operator=(const WorkStream&) = delete;

  // Poisson arrivals at `rate` items/s over [from, until); item cost has
  // median `cost_ms` and log-sigma 0.8.
  void poisson(cluster::Container& container, double rate, double cost_ms,
               sim::Rng rng, sim::TimePoint from, sim::TimePoint until);
  // A 1 ms kernel-event probe starting at a random phase after `from`;
  // every `every`-th tick submits one item of median cost `cost_ms`.
  void probe(cluster::Container& container, int every, double cost_ms,
             sim::Rng rng, sim::TimePoint from);
  // Cancels every probe (Poisson sources stop on their own at `until`).
  void stop();

 private:
  struct Source {
    cluster::Container* container = nullptr;
    double rate = 0.0;
    double cost_ms = 0.0;
    sim::Rng rng{0};
    sim::TimePoint until = 0;
    int every = 0;
    std::uint32_t ticks = 0;
    sim::EventHandle timer;
  };
  void submit(Source& source);
  void arm_next(Source& source, sim::TimePoint now);

  sim::Simulation& sim_;
  Tracer& tracer_;
  RequestLog& log_;
  std::deque<Source> sources_;  // stable addresses for the callbacks
};

class Rig {
 public:
  explicit Rig(const RepOptions& options);
  virtual ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Runs the whole repetition and returns its JSON report.
  std::string run();

 protected:
  struct Timeline {
    sim::TimePoint measure_start = 0;
    sim::TimePoint measure_end = 0;
    sim::TimePoint drain_end = 0;
    int slices = 100;
  };
  static constexpr sim::Duration kMaxDrain = sim::seconds(30);
  enum MemPhase { kMemCluster, kMemCore, kMemHa, kMemPhases };
  using Counters = std::map<std::string, double>;

  virtual Timeline timeline() const = 0;
  // Constructs the workload; everything it does is set-up time.
  virtual void build() = 0;
  // Called once simulated time reaches the end of the measured window.
  virtual void end_of_load() {}
  // Called after each timed slice (outside the slice's host timing).
  virtual void after_slice() {}
  // True once every issued operation has completed or failed.
  virtual bool drained() const = 0;
  // Workload-specific cumulative counters, read at both window edges.
  virtual void read_counters(Counters& out) const { (void)out; }
  // Request metrics, accounting and non-vacuity checks.
  virtual void collect(Report& report) = 0;

  // --- helpers for build() ---
  cluster::Node& add_node(const cluster::NodeConfig& config);
  cluster::Container& create_container(const cluster::ContainerSpec& spec,
                                       double cores, memcg::Bytes mem,
                                       cluster::Node* pin = nullptr);
  // Runs `fn` and charges its RSS growth to `phase`.
  template <class Fn>
  void in_phase(MemPhase phase, Fn&& fn) {
    const std::int64_t before = rss_kib();
    fn();
    mem_kib_[phase] += rss_kib() - before;
  }
  // Traced runs only: a fresh observer owned by the rig (nullptr when
  // untraced). The first one also receives the network's counters.
  obs::Observer* new_observer();
  // Registers a controller whose counters the rig reports. In a traced run
  // `observer` must already be attached to it; an invariant checker is
  // armed on it and returned (nullptr when untraced).
  check::InvariantChecker* add_controller(core::EscraSystem& escra,
                                          obs::Observer* observer);
  // Traced runs only: arms the cross-shard conservation checker.
  void add_shard_checker(escra::shard::ShardedControlPlane& plane);
  // Request latency percentiles and goodput from an open-loop log.
  static void report_requests(Report& report, const RequestLog& log,
                              double window_s);
  // Operation counts and the accounting check, for a log that holds every
  // operation of the repetition.
  static void report_accounting(Report& report, const RequestLog& log);

  const RepOptions options_;
  Tracer tracer_;
  sim::Simulation sim_;
  net::Network net_{sim_};
  cluster::Cluster k8s_{sim_};
  sim::Rng root_;
  std::vector<cluster::Container*> managed_;

 private:
  struct Controller {
    core::EscraSystem* escra = nullptr;
    obs::Observer* observer = nullptr;
  };
  void start_slack_sampler(const Timeline& t);
  Counters read_all_counters() const;
  // Final invariant sweep; reports check.* and retires every checker.
  void retire_checkers(Report& report);
  void report_common(Report& report, const Timeline& t,
                     const Counters& begin, const Counters& end);

  std::vector<std::unique_ptr<obs::Observer>> observers_;
  std::vector<Controller> controllers_;
  std::vector<std::unique_ptr<check::InvariantChecker>> checkers_;
  std::unique_ptr<check::ShardInvariantChecker> shard_checker_;

  std::array<std::int64_t, kMemPhases> mem_kib_{};
  std::int64_t rss_before_kib_ = 0;
  std::int64_t rss_run_start_kib_ = 0;
  std::int64_t rss_run_end_kib_ = 0;
  std::int64_t peak_kib_ = 0;
  double setup_s_ = 0.0;

  // Slack sampler state: per managed container, per simulated second.
  std::vector<sim::Duration> prev_consumed_;
  std::vector<double> cpu_slack_;
  std::vector<double> mem_slack_mib_;
  std::size_t pending_events_max_ = 0;
  std::size_t pending_updates_max_ = 0;
  sim::EventHandle slack_timer_;
};

// Total host ms, and mean host ns per span, of the spans named `name`.
double span_total_ms(const std::map<std::string, SpanTotals>& totals,
                     const std::string& name);
double span_mean_ns(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name);

}  // namespace perfbench
