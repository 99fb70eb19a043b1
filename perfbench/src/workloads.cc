// The four benchmark workloads. Each is assembled here from the simulator's
// public APIs, so that spans and memory readings can wrap every call the
// benchmark makes into a layer. README.md in this directory says why each
// workload exists and which layers it stresses.
#include "workloads.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/benchmarks.h"
#include "bw/shaper.h"
#include "exp/profile.h"
#include "ha/ha_control_plane.h"
#include "rig.h"
#include "shard/sharded_control_plane.h"
#include "workload/arrivals.h"
#include "workload/fanout.h"
#include "workload/load_generator.h"

namespace perfbench {

namespace {

namespace app = escra::app;
namespace bw = escra::bw;
namespace exp = escra::exp;
namespace shard = escra::shard;
namespace workload = escra::workload;

// --- microservice ----------------------------------------------------------
//
// The paper's largest graph (TrainTicket, 68 containers) on 3 x 20-core
// workers under the Burst process, with a 2 s client timeout and Escra at
// its default tunables: the Escra cell of exp::run_microservice.
class Microservice final : public Rig {
 public:
  using Rig::Rig;

 private:
  static constexpr sim::TimePoint kLoadStart = sim::seconds(10);
  static constexpr sim::TimePoint kMeasureStart = sim::seconds(15);
  static constexpr sim::Duration kWindow = sim::seconds(600);

  Timeline timeline() const override {
    // 20 s slices: each holds one whole Burst cycle (10 s burst, 10 s base).
    return {kMeasureStart, kMeasureStart + kWindow,
            kMeasureStart + kWindow + sim::seconds(10), 30};
  }

  void build() override {
    const core::EscraConfig config;
    {
      ScopedSpan span(tracer_, "exp.profile");
      exp::profile_benchmark(app::Benchmark::kTrainTicket);
    }
    in_phase(kMemCluster, [&] {
      for (int i = 0; i < 3; ++i) {
        add_node(cluster::NodeConfig{.cores = 20.0,
                                     .memory_capacity = 192LL * memcg::kGiB,
                                     .scheduler_slice = config.cfs_period / 10,
                                     .cfs_period = config.cfs_period});
      }
      ScopedSpan span(tracer_, "app.setup");
      application_ = std::make_unique<app::Application>(
          k8s_, app::make_train_ticket(), root_.fork(), 2.0,
          512 * memcg::kMiB);
    });
    managed_ = application_->containers();

    observer_ = new_observer();
    in_phase(kMemCore, [&] {
      escra_ = std::make_unique<core::EscraSystem>(
          sim_, net_, k8s_, 60.0, 3LL * 192 * memcg::kGiB, config);
      if (observer_ != nullptr) escra_->attach_observer(*observer_);
      {
        ScopedSpan span(tracer_, "core.manage");
        escra_->manage(managed_);
      }
      ScopedSpan span(tracer_, "core.start");
      escra_->start();
    });
    add_controller(*escra_, observer_);

    const sim::TimePoint load_end = kMeasureStart + kWindow;
    log_.set_window(kMeasureStart, load_end);
    const auto seconds =
        static_cast<std::size_t>(sim::to_seconds(load_end)) + 1;
    loadgen_ = std::make_unique<workload::LoadGenerator>(
        sim_,
        workload::make_workload(workload::WorkloadKind::kBurst, root_.fork(),
                                seconds),
        [this](workload::LoadGenerator::Done done) { launch(std::move(done)); },
        kTimeout);
    loadgen_->run(kLoadStart, load_end);
  }

  void launch(workload::LoadGenerator::Done done) {
    const std::uint64_t id = log_.issue();
    const sim::TimePoint intended = sim_.now();
    ScopedSpan span(tracer_, "app.submit_request", id);
    application_->submit_request(
        [this, intended, done = std::move(done)](bool ok) {
          log_.done(intended, ok);
          done(ok);
        });
  }

  bool drained() const override {
    return loadgen_->issued() == loadgen_->succeeded() + loadgen_->failed();
  }

  void read_counters(Counters& out) const override {
    out["workload.issued"] = static_cast<double>(loadgen_->issued());
    out["workload.timed_out"] = static_cast<double>(loadgen_->timed_out());
  }

  void collect(Report& report) override {
    report_requests(report, log_, sim::to_seconds(kWindow));
    report.attempted = loadgen_->issued();
    report.failed = loadgen_->failed();
    const bool balanced =
        drained() && log_.balanced() && log_.issued() == loadgen_->issued();
    report.check("accounting", balanced,
                 "issued " + std::to_string(loadgen_->issued()) +
                     " succeeded " + std::to_string(loadgen_->succeeded()) +
                     " failed " + std::to_string(loadgen_->failed()));
  }

  static constexpr sim::Duration kTimeout = sim::seconds(2);
  RequestLog log_{sim_, kTimeout};
  obs::Observer* observer_ = nullptr;
  std::unique_ptr<app::Application> application_;
  std::unique_ptr<core::EscraSystem> escra_;
  std::unique_ptr<workload::LoadGenerator> loadgen_;
};

// --- dense_telemetry ------------------------------------------------------
//
// 64 nodes x 64 containers under one controller, batched limit RPCs and 2%
// control-RPC loss; a 1 ms kernel-event probe per container submits work
// every 32nd tick (bench/sim_throughput's e2e_scale scenario, seeded).
class DenseTelemetry final : public Rig {
 public:
  using Rig::Rig;

 private:
  static constexpr int kNodes = 64;
  static constexpr int kPerNode = 64;
  static constexpr sim::TimePoint kMeasureStart = sim::seconds(1);
  static constexpr sim::Duration kWindow = sim::seconds(2);

  Timeline timeline() const override {
    // 100 ms slices: each holds exactly one CFS period of every container.
    return {kMeasureStart, kMeasureStart + kWindow,
            kMeasureStart + kWindow + sim::milliseconds(500), 20};
  }

  void build() override {
    std::vector<cluster::Node*> nodes;
    in_phase(kMemCluster, [&] {
      for (int n = 0; n < kNodes; ++n) {
        nodes.push_back(&add_node(cluster::NodeConfig{.cores = 80.0}));
      }
      for (int c = 0; c < kNodes * kPerNode; ++c) {
        cluster::ContainerSpec spec;
        spec.name = "d" + std::to_string(c);
        spec.max_parallelism = 4.0;
        spec.base_memory = 64 * memcg::kMiB;
        managed_.push_back(&create_container(
            spec, 1.0, 256 * memcg::kMiB,
            nodes[static_cast<std::size_t>(c % kNodes)]));
      }
    });
    net_.set_fault_rng(root_.fork());
    net_.set_drop_rate(net::Channel::kControlRpc, 0.02);

    observer_ = new_observer();
    in_phase(kMemCore, [&] {
      escra_ = std::make_unique<core::EscraSystem>(
          sim_, net_, k8s_, 8192.0, 2048LL * memcg::kGiB);
      if (observer_ != nullptr) escra_->attach_observer(*observer_);
      {
        ScopedSpan span(tracer_, "core.manage");
        escra_->manage(managed_);
      }
      ScopedSpan span(tracer_, "core.start");
      escra_->start();
    });
    add_controller(*escra_, observer_);

    log_.set_window(kMeasureStart, kMeasureStart + kWindow);
    for (cluster::Container* c : managed_) {
      probes_.probe(*c, 32, 4.0, root_.fork(), 0);
    }
  }

  void end_of_load() override { probes_.stop(); }
  bool drained() const override { return log_.balanced(); }

  void read_counters(Counters& out) const override {
    out["workload.issued"] = static_cast<double>(log_.issued());
  }

  void collect(Report& report) override {
    report_requests(report, log_, sim::to_seconds(kWindow));
    report_accounting(report, log_);
  }

  RequestLog log_{sim_, 0};
  WorkStream probes_{sim_, tracer_, log_};
  obs::Observer* observer_ = nullptr;
  std::unique_ptr<core::EscraSystem> escra_;
};

// --- sharded_fleet ----------------------------------------------------------
//
// 2048 sparsely packed nodes x 4 containers under 4 controller shards, each
// with one warm standby. The apps routed to shard 0 include a hot half that
// demands more than the shard's pool slice, so shard 0 borrows from its
// peers; shard 0's leader is killed in the middle of the window.
class ShardedFleet final : public Rig {
 public:
  using Rig::Rig;

 private:
  static constexpr int kNodes = 2048;
  static constexpr int kPerNode = 4;
  static constexpr int kAppSize = 8;
  static constexpr int kShards = 4;
  static constexpr sim::TimePoint kMeasureStart = sim::seconds(2);
  static constexpr sim::Duration kWindow = sim::seconds(4);

  Timeline timeline() const override {
    // 100 ms slices: each holds exactly one CFS period of every container.
    return {kMeasureStart, kMeasureStart + kWindow,
            kMeasureStart + kWindow + sim::seconds(2), 40};
  }

  void build() override {
    const int total = kNodes * kPerNode;
    std::vector<cluster::Node*> nodes;
    in_phase(kMemCluster, [&] {
      for (int n = 0; n < kNodes; ++n) {
        nodes.push_back(&add_node(cluster::NodeConfig{.cores = 8.0}));
      }
      for (int c = 0; c < total; ++c) {
        cluster::ContainerSpec spec;
        spec.name = "f" + std::to_string(c);
        spec.max_parallelism = 2.0;
        spec.base_memory = 32 * memcg::kMiB;
        managed_.push_back(&create_container(
            spec, 0.25, 128 * memcg::kMiB,
            nodes[static_cast<std::size_t>(c % kNodes)]));
      }
    });

    std::vector<obs::Observer*> observers;
    int shard0_apps = 0;
    in_phase(kMemCore, [&] {
      shard::ShardPlaneConfig config;
      config.shards = kShards;
      plane_ = std::make_unique<shard::ShardedControlPlane>(
          sim_, net_, k8s_, 0.5 * total,
          static_cast<memcg::Bytes>(total) * 256 * memcg::kMiB, config);
      for (int s = 0; s < kShards; ++s) {
        observers.push_back(new_observer());
        if (observers.back() != nullptr) {
          plane_->attach_observer(s, *observers.back());
        }
      }
      ScopedSpan span(tracer_, "core.manage");
      for (int a = 0; a * kAppSize < total; ++a) {
        const std::string name = "app" + std::to_string(a);
        const std::vector<cluster::Container*> group(
            managed_.begin() + a * kAppSize,
            managed_.begin() + (a + 1) * kAppSize);
        plane_->manage(name, group);
        // Every other app on shard 0 runs hot.
        bool hot = false;
        if (plane_->shard_of_app(name) == 0) hot = shard0_apps++ % 2 == 0;
        hot_.insert(hot_.end(), group.size(), hot);
      }
    });
    {
      ScopedSpan span(tracer_, "core.start");
      plane_->start();
    }
    for (int s = 0; s < kShards; ++s) {
      add_controller(plane_->shard(s), observers[static_cast<std::size_t>(s)]);
    }
    add_shard_checker(*plane_);
    in_phase(kMemHa, [&] {
      ScopedSpan span(tracer_, "ha.enable");
      plane_->enable_ha(1);
    });
    killed_observer_ = observers[0];

    log_.set_window(kMeasureStart, kMeasureStart + kWindow);
    for (std::size_t i = 0; i < managed_.size(); ++i) {
      // Mean demand: cold 5 items/s of 22 ms (0.11 cores), hot 12/s of
      // 66 ms (0.8 cores). Shard 0 then wants ~0.9x its slice before
      // headroom, so it borrows; the others use about a fifth of theirs.
      const bool hot = hot_[i];
      work_.poisson(*managed_[i], hot ? 12.0 : 5.0, hot ? 48.0 : 16.0,
                    root_.fork(), 0, kMeasureStart + kWindow);
    }
    // The kill lands at a seed-chosen phase of a CFS period mid-window.
    kill_at_ =
        kMeasureStart + kWindow / 2 + root_.fork().uniform_int(0, 99'999);
    sim_.schedule_at(kill_at_, [this] { plane_->ha(0).kill_leader(); });
  }

  void after_slice() override {
    // Takeover time: from the kill to the first limit update applied after
    // the new leader's election, read from shard 0's trace.
    if (killed_observer_ == nullptr || takeover_ms_ >= 0.0 ||
        sim_.now() < kill_at_) {
      return;
    }
    const obs::TraceBuffer& trace = killed_observer_->trace();
    sim::TimePoint elected = -1;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const obs::TraceEvent& e = trace.at(i);
      if (e.time < kill_at_) continue;
      if (e.kind == obs::EventKind::kLeaderElected && elected < 0) {
        elected = e.time;
      } else if (e.kind == obs::EventKind::kRpcApplied && elected >= 0) {
        takeover_ms_ = sim::to_milliseconds(e.time - kill_at_);
        return;
      }
    }
  }

  bool drained() const override { return log_.balanced(); }

  void read_counters(Counters& out) const override {
    out["workload.issued"] = static_cast<double>(log_.issued());
    out["shard.borrow_requests"] =
        static_cast<double>(plane_->borrows_requested());
    out["shard.borrow_grants"] =
        static_cast<double>(plane_->borrows_granted());
    out["shard.borrow_retransmits"] =
        static_cast<double>(plane_->borrow_retransmits());
    out["shard.pool_resizes"] = static_cast<double>(plane_->pool_resizes());
    if (!plane_->ha_enabled()) return;
    double appends = 0, failovers = 0;
    for (int s = 0; s < kShards; ++s) {
      appends += static_cast<double>(plane_->ha(s).wal_appends());
      failovers += static_cast<double>(plane_->ha(s).failovers());
    }
    out["ha.wal_appends"] = appends;
    out["ha.failovers"] = failovers;
  }

  void collect(Report& report) override {
    report_requests(report, log_, sim::to_seconds(kWindow));
    report_accounting(report, log_);
    const std::uint64_t grants = plane_->borrows_granted();
    report.check("borrowing", grants > 0,
                 "borrow grants " + std::to_string(grants));
    std::uint64_t failovers = 0;
    for (int s = 0; s < kShards; ++s) failovers += plane_->ha(s).failovers();
    report.check("one_failover",
                 failovers == 1 && plane_->ha(0).failovers() == 1,
                 "failovers " + std::to_string(failovers));
    if (killed_observer_ != nullptr) {
      report.check("takeover_observed", takeover_ms_ >= 0.0,
                   "no limit update applied after the election");
      report.add("ha.takeover_ms", takeover_ms_, "ms", Clock::kLayer);
    }
  }

  RequestLog log_{sim_, 0};
  WorkStream work_{sim_, tracer_, log_};
  std::vector<bool> hot_;
  obs::Observer* killed_observer_ = nullptr;
  sim::TimePoint kill_at_ = 0;
  double takeover_ms_ = -1.0;
  std::unique_ptr<shard::ShardedControlPlane> plane_;
};

// --- bw_fanout ---------------------------------------------------------------
//
// bench/fig_bw_fanout scaled out: kGroups independent fan-out groups, each a
// frontend on a 1 GbE node fanning every request out to 4 of 8 backends on
// four 100 Mbps worker nodes, with a rotating 8x-hot backend. The bandwidth
// arm is on; every container also runs light open-loop CPU work so the CPU
// arm has something to manage.
class BwFanout final : public Rig {
 public:
  using Rig::Rig;

 private:
  static constexpr int kGroups = 32;
  static constexpr int kWorkers = 4;
  static constexpr int kBackendsPerNode = 2;
  static constexpr double kFrontendNicBps = 125.0e6;
  static constexpr double kWorkerNicBps = 12.5e6;
  static constexpr sim::TimePoint kLoadStart = sim::seconds(1);
  // Four hot rotations of warm-up: the bandwidth arm's first reallocations
  // are several times costlier than its steady state.
  static constexpr sim::TimePoint kMeasureStart = sim::seconds(21);
  static constexpr sim::Duration kWindow = sim::seconds(60);

  Timeline timeline() const override {
    // 5 s slices: each holds exactly one hot-backend rotation.
    return {kMeasureStart, kMeasureStart + kWindow,
            kMeasureStart + kWindow + sim::seconds(8), 12};
  }

  void build() override {
    shaper_ = std::make_unique<bw::ClusterShaper>(sim_);
    net_.set_shaper(shaper_.get());
    in_phase(kMemCluster, [&] {
      const auto spawn = [&](const std::string& name, cluster::Node& pin) {
        cluster::ContainerSpec spec;
        spec.name = name;
        spec.max_parallelism = 2.0;
        spec.base_memory = 32 * memcg::kMiB;
        cluster::Container& c =
            create_container(spec, 1.0, 128 * memcg::kMiB, &pin);
        managed_.push_back(&c);
        return &c;
      };
      for (int g = 0; g < kGroups; ++g) {
        Group& group = groups_.emplace_back();
        cluster::Node& front = add_node(
            cluster::NodeConfig{.cores = 8.0, .nic_bps = kFrontendNicBps});
        shaper_->add_node(front.id(), kFrontendNicBps);
        const std::string prefix = "g" + std::to_string(g);
        group.frontend = spawn(prefix + "-frontend", front);
        group.frontend_endpoint = static_cast<net::EndpointId>(front.id());
        for (int w = 0; w < kWorkers; ++w) {
          cluster::Node& node = add_node(
              cluster::NodeConfig{.cores = 8.0, .nic_bps = kWorkerNicBps});
          shaper_->add_node(node.id(), kWorkerNicBps);
          for (int b = 0; b < kBackendsPerNode; ++b) {
            cluster::Container* c =
                spawn(prefix + "-backend" + std::to_string(w) + "_" +
                          std::to_string(b),
                      node);
            group.backends.push_back(
                {c->id(), static_cast<net::EndpointId>(node.id())});
          }
        }
      }
    });

    observer_ = new_observer();
    in_phase(kMemCore, [&] {
      // A lower reclaim threshold than the datacenter default, as in
      // fig_bw_fanout: a cold backend's idle headroom on a 100 Mbps NIC is
      // a few MB/s, exactly what the hot backend needs back.
      core::EscraConfig config;
      config.bw_gamma = 2.0e6;
      escra_ = std::make_unique<core::EscraSystem>(
          sim_, net_, k8s_, 16.0 * kGroups, 8LL * kGroups * memcg::kGiB,
          config);
      if (observer_ != nullptr) {
        escra_->attach_observer(*observer_);
        shaper_->set_observer(observer_);
      }
      {
        ScopedSpan span(tracer_, "bw.enable");
        escra_->enable_bandwidth(*shaper_, 50.0e6 * kGroups);
      }
      {
        ScopedSpan span(tracer_, "core.manage");
        escra_->manage(managed_);
      }
      ScopedSpan span(tracer_, "core.start");
      escra_->start();
    });
    if (check::InvariantChecker* checker = add_controller(*escra_, observer_)) {
      checker->attach_bw(*shaper_);
    }

    // log_ only accounts the background CPU items (no latency window): the
    // request metrics are the fan-out generators' own.
    const sim::TimePoint load_end = kMeasureStart + kWindow;
    workload::FanoutWorkload::Config fan;
    fan.fanout = 4;
    fan.request_bytes = 1'500;
    fan.response_bytes = 32'000;
    fan.hot_multiplier = 8.0;
    fan.hot_rotate = sim::seconds(5);
    fan.lambda = 30.0;
    // Warm-up and measured requests come from separate generators, so the
    // measured histograms hold only requests sent inside the window.
    for (Group& g : groups_) {
      g.warmup = std::make_unique<workload::FanoutWorkload>(
          sim_, net_, g.frontend->id(), g.frontend_endpoint, g.backends, fan,
          root_.fork());
      g.warmup->run(kLoadStart, kMeasureStart - 1);
      g.load = std::make_unique<workload::FanoutWorkload>(
          sim_, net_, g.frontend->id(), g.frontend_endpoint, g.backends, fan,
          root_.fork());
      g.load->run(kMeasureStart, load_end);
    }
    for (cluster::Container* c : managed_) {
      background_.poisson(*c, 20.0, 4.0, root_.fork(), 0, load_end);
    }
  }

  bool drained() const override {
    for (const Group& g : groups_) {
      if (g.warmup->completed() != g.warmup->issued() ||
          g.load->completed() != g.load->issued()) {
        return false;
      }
    }
    return log_.balanced();
  }

  void read_counters(Counters& out) const override {
    double issued = 0;
    for (const Group& g : groups_) {
      issued += static_cast<double>(g.warmup->issued() + g.load->issued());
    }
    out["workload.issued"] = issued;
  }

  void collect(Report& report) override {
    sim::Histogram latency;
    std::uint64_t issued = 0, completed = 0, window_completed = 0;
    for (const Group& g : groups_) {
      latency.merge(g.load->latency());
      window_completed += g.load->completed();
      issued += g.warmup->issued() + g.load->issued();
      completed += g.warmup->completed() + g.load->completed();
    }
    const auto pct = [&latency](double p) {
      Percentile out;
      out.n = latency.count();
      out.value = sim::to_milliseconds(latency.percentile(p));
      out.beyond = samples_beyond(out.n, p);
      return out;
    };
    report.add("req_latency_ms_p50", pct(50.0), "ms", Clock::kSim);
    report.add("req_latency_ms_p999", pct(99.9), "ms", Clock::kSim);
    report.add("goodput_rps",
               static_cast<double>(window_completed) / sim::to_seconds(kWindow),
               "req/s", Clock::kSim);
    report.attempted = issued + log_.issued();
    report.failed = (issued - completed) + log_.failed();
    report.check("accounting", drained(),
                 "requests " + std::to_string(issued) + " completed " +
                     std::to_string(completed) + "; cpu items " +
                     std::to_string(log_.issued()) + " succeeded " +
                     std::to_string(log_.succeeded()) + " failed " +
                     std::to_string(log_.failed()));
    const std::uint64_t grants = escra_->allocator().bw_scale_ups();
    report.check("bw_grants", grants > 0,
                 "bandwidth grants " + std::to_string(grants));
  }

  struct Group {
    cluster::Container* frontend = nullptr;
    net::EndpointId frontend_endpoint = 0;
    std::vector<workload::FanoutWorkload::Backend> backends;
    std::unique_ptr<workload::FanoutWorkload> warmup;
    std::unique_ptr<workload::FanoutWorkload> load;
  };

  RequestLog log_{sim_, 0};
  WorkStream background_{sim_, tracer_, log_};
  obs::Observer* observer_ = nullptr;
  std::unique_ptr<bw::ClusterShaper> shaper_;
  std::unique_ptr<core::EscraSystem> escra_;
  std::vector<Group> groups_;
};

template <class R>
std::string run_with(const RepOptions& options) {
  R rig(options);
  return rig.run();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "microservice", "dense_telemetry", "sharded_fleet", "bw_fanout"};
  return names;
}

std::string run_rep(const RepOptions& options) {
  const std::string& w = options.workload;
  if (w == "microservice") return run_with<Microservice>(options);
  if (w == "dense_telemetry") return run_with<DenseTelemetry>(options);
  if (w == "sharded_fleet") return run_with<ShardedFleet>(options);
  if (w == "bw_fanout") return run_with<BwFanout>(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
