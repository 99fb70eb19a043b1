// Differential tests.
//
// 1) Against the static baseline: for a workload that never triggers a
//    control event (no throttling, unused runtime below gamma, no OOMs, no
//    reclaimable slack), Escra must behave exactly like static allocation —
//    the Eq. 1-2 initial limits are the final limits, and the allocator
//    makes zero decisions. Any drift here means Escra acts without an
//    event, contradicting the paper's event-driven design.
//
// 2) The canonical decision streams: on the canonical 64-node /
//    256-container scenario (bench/sim_throughput's e2e case) the
//    controller's decisions — a canonicalized trace (events sorted within a
//    timestamp, ids/causal links dropped), the metrics minus the
//    wire-accounting counters (net.*, controller.batched_*), and the final
//    limits — are pinned by committed FNV-1a digests, as are the raw traces
//    of the 2% RPC-loss, leader-failover and 4-shard failover runs (their
//    fault schedules consume the wire's rng draws, so those digests also pin
//    the limit-update wire shape). Under faults each run must additionally
//    be exactly reproducible run-to-run, keep every invariant green, and end
//    converged. One more raw-trace digest pins a run with the bandwidth arm,
//    the credit defense and RT admissions all on, so the shrink, credit and
//    floor paths are covered too, and another pins the same run with a
//    leader kill, so the replicated image and its takeover are covered.
//
// 3) Sharded vs single controller: a ShardedControlPlane at --shards 1 is
//    the same EscraSystem behind a router, so its decision stream must be
//    *byte-identical* to the unsharded controller on the canonical
//    scenario. Multi-shard runs cannot match the single controller decision
//    for decision (each shard allocates from its slice), but must be
//    byte-identical run-to-run and keep cross-shard pool conservation
//    green.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/static_policy.h"
#include "bw/shaper.h"
#include "check/invariant_checker.h"
#include "check/shard_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "ha/ha_control_plane.h"
#include "net/network.h"
#include "obs/observer.h"
#include "shard/sharded_control_plane.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace escra {
namespace {

using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

// 2 containers, Eq. 1 gives 2.0 / 2 = 1.0 core each; Eq. 2 gives
// 640 MiB * (1 - sigma 0.2) / 2 = 256 MiB each.
constexpr double kGlobalCpu = 2.0;
constexpr memcg::Bytes kGlobalMem = 640 * kMiB;
constexpr double kExpectedCores = 1.0;
constexpr memcg::Bytes kExpectedMem = 256 * kMiB;

// Base memory keeps every limit within usage + delta (210 + 50 >= 256 MiB),
// so periodic reclamation has nothing to take.
constexpr memcg::Bytes kBaseMem = 210 * kMiB;

struct Rig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  std::vector<cluster::Container*> containers;

  Rig() {
    k8s.add_node({.cores = 8.0});
    for (int i = 0; i < 2; ++i) {
      cluster::ContainerSpec spec;
      spec.name = "svc" + std::to_string(i);
      spec.base_memory = kBaseMem;
      spec.max_parallelism = 4.0;
      containers.push_back(&k8s.create_container(spec, 1.0, 256 * kMiB));
    }
  }

  // A 9 ms item every 10 ms from t = 1 ms: 90% utilization in every CFS
  // period — never throttled (no scale-up event), unused 0.1 core below the
  // default gamma 0.2 (no scale-down event), zero memory per item.
  void drive_steady() {
    for (cluster::Container* c : containers) {
      sim.schedule_every(milliseconds(1), milliseconds(10), [c] {
        c->submit(milliseconds(9), 0, [](bool) {});
      });
    }
  }
};

TEST(DifferentialTest, EventFreeWorkloadMatchesStaticBaseline) {
  Rig escra_rig;
  core::EscraSystem escra(escra_rig.sim, escra_rig.net, escra_rig.k8s,
                          kGlobalCpu, kGlobalMem);
  obs::Observer observer;
  escra.attach_observer(observer);
  escra.manage(escra_rig.containers);
  escra.start();
  escra_rig.drive_steady();
  escra_rig.sim.run_until(seconds(5));

  Rig static_rig;
  baselines::StaticPolicy policy(
      static_rig.containers,
      {{kExpectedCores, kExpectedMem}, {kExpectedCores, kExpectedMem}},
      /*multiplier=*/1.0);
  policy.start();
  static_rig.drive_steady();
  static_rig.sim.run_until(seconds(5));

  // Final limits agree exactly: Escra never moved off the Eq. 1-2 values.
  for (std::size_t i = 0; i < escra_rig.containers.size(); ++i) {
    EXPECT_DOUBLE_EQ(escra_rig.containers[i]->cpu_cgroup().limit_cores(),
                     static_rig.containers[i]->cpu_cgroup().limit_cores());
    EXPECT_EQ(escra_rig.containers[i]->mem_cgroup().limit(),
              static_rig.containers[i]->mem_cgroup().limit());
    EXPECT_DOUBLE_EQ(escra_rig.containers[i]->cpu_cgroup().limit_cores(),
                     kExpectedCores);
    EXPECT_EQ(escra_rig.containers[i]->mem_cgroup().limit(), kExpectedMem);
  }

  // And the allocator was a strict no-op: no grants, shrinks, OOM rescues,
  // or reclaimed bytes — only the two registrations hit the trace.
  EXPECT_EQ(observer.h.cpu_grants->value(), 0u);
  EXPECT_EQ(observer.h.cpu_shrinks->value(), 0u);
  EXPECT_EQ(observer.h.mem_grants->value(), 0u);
  EXPECT_EQ(observer.h.reclaim_bytes->value(), 0u);
  EXPECT_EQ(observer.h.oom_events->value(), 0u);
  EXPECT_EQ(observer.h.registrations->value(), 2u);

  // The workload itself behaved identically under both policies.
  for (cluster::Container* c : escra_rig.containers) {
    EXPECT_EQ(c->oom_kill_count(), 0u);
  }
  for (cluster::Container* c : static_rig.containers) {
    EXPECT_EQ(c->oom_kill_count(), 0u);
  }
}

// --- canonical decision streams -------------------------------------------

struct CanonicalOptions {
  double rpc_drop = 0.0;
  bool failover = false;  // kill the leader mid-batch at t = 1 s
  int shards = 0;         // 0 = bare EscraSystem, >=1 = ShardedControlPlane
  int apps = 1;           // contiguous app groups (sharded runs only)
  // Bare-controller overlays. `bw` shapes every node (ClusterShaper plus
  // the bandwidth arm) and drives attributed egress from every fourth
  // container; `credit` turns on credit_defense; `rt` admits a few RT
  // reservations at t = 0.5 s, one with a bandwidth reservation when `bw`
  // is on.
  bool bw = false;
  bool credit = false;
  bool rt = false;
  double pool_cores = 512.0;
};

struct CanonicalRun {
  std::vector<std::tuple<sim::TimePoint, int, std::uint32_t, std::uint32_t,
                         double, double, std::int64_t>>
      canonical_trace;  // (time, kind, container, node, before, after, detail)
  std::string filtered_metrics;
  std::string raw_trace;  // for run-to-run byte equality
  std::vector<double> cpu_limits;
  std::vector<memcg::Bytes> mem_limits;
  bool checker_ok = false;
  std::string checker_report;
  std::uint64_t retransmits = 0;
  std::uint64_t batched_rpcs = 0;
  std::uint64_t batch_entries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t borrow_grants = 0;
  std::size_t registered = 0;

  std::size_t count(obs::EventKind kind) const {
    return static_cast<std::size_t>(std::count_if(
        canonical_trace.begin(), canonical_trace.end(), [kind](const auto& e) {
          return std::get<1>(e) == static_cast<int>(kind);
        }));
  }
};

// The canonical 64-node, 256-container cluster from bench/sim_throughput's
// e2e case (shortened to 2 simulated seconds), with observer + invariant
// checker attached.
CanonicalRun run_canonical(const CanonicalOptions& opt) {
  sim::Simulation sim;
  net::Network network(sim);
  cluster::Cluster k8s(sim);
  constexpr int kNodes = 64;
  constexpr int kContainersPerNode = 4;
  for (int n = 0; n < kNodes; ++n) {
    k8s.add_node(cluster::NodeConfig{.cores = 20.0});
  }
  core::EscraConfig cfg;
  cfg.credit_defense = opt.credit;
  // Every shaped container starts at 2 MB/s; idle ones shed toward the
  // floor from their first sample once gamma sits below that share.
  if (opt.bw) cfg.bw_gamma = 0.5e6;
  // Declared before the system that keeps a pointer to it.
  std::optional<bw::ClusterShaper> shaper;
  if (opt.bw) {
    shaper.emplace(sim);
    for (int n = 0; n < kNodes; ++n) {
      shaper->add_node(static_cast<std::uint32_t>(n), 12.5e6);
    }
    network.set_shaper(&*shaper);
  }
  // Either one bare EscraSystem or a ShardedControlPlane over the identical
  // pool — built in the same order so `--shards 1` replays the exact event
  // schedule of the unsharded controller.
  std::optional<core::EscraSystem> bare;
  std::optional<shard::ShardedControlPlane> plane;
  if (opt.shards == 0) {
    bare.emplace(sim, network, k8s, opt.pool_cores, 256LL * memcg::kGiB, cfg);
  } else {
    shard::ShardPlaneConfig pcfg;
    pcfg.shards = opt.shards;
    pcfg.escra = cfg;
    plane.emplace(sim, network, k8s, 512.0, 256LL * memcg::kGiB, pcfg);
  }
  const int observer_count = opt.shards == 0 ? 1 : opt.shards;
  std::vector<std::unique_ptr<obs::Observer>> observers;
  for (int s = 0; s < observer_count; ++s) {
    observers.push_back(std::make_unique<obs::Observer>(
        obs::Observer::Config{.trace_capacity = 1 << 20}));
  }
  obs::Observer& observer = *observers[0];
  if (bare) {
    bare->attach_observer(observer);
    if (shaper) {
      shaper->set_observer(&observer);
      bare->enable_bandwidth(*shaper, 256 * 2.0e6);
    }
  } else {
    for (int s = 0; s < opt.shards; ++s) {
      plane->attach_observer(s, *observers[s]);
    }
  }
  // Net metrics live on observer 0 only; the other shards' checkers skip the
  // net-consistency rules (their registries have no net.* counters).
  network.attach_metrics(observer.metrics());
  std::vector<std::unique_ptr<check::InvariantChecker>> checkers;
  if (bare) {
    checkers.push_back(
        std::make_unique<check::InvariantChecker>(*bare, network, observer));
  } else {
    for (int s = 0; s < opt.shards; ++s) {
      checkers.push_back(std::make_unique<check::InvariantChecker>(
          plane->shard(s), network, *observers[s]));
    }
  }
  if (shaper) checkers.front()->attach_bw(*shaper);
  if (opt.credit) {
    checkers.front()->attach_credits(bare->controller().credits());
  }
  std::optional<check::ShardInvariantChecker> shard_checker;
  if (plane) shard_checker.emplace(*plane);

  if (opt.rpc_drop > 0.0) {
    network.set_fault_rng(sim::Rng(0xbe4cfULL));
    network.set_drop_rate(net::Channel::kControlRpc, opt.rpc_drop);
  }

  sim::Rng root(0xe5c7a64ULL);
  std::vector<cluster::Container*> members;
  for (int c = 0; c < kNodes * kContainersPerNode; ++c) {
    cluster::ContainerSpec spec;
    spec.name = "c" + std::to_string(c);
    spec.max_parallelism = 4.0;
    spec.base_memory = 64 * memcg::kMiB;
    members.push_back(&k8s.create_container(spec, 1.0, 256 * memcg::kMiB));
  }
  if (bare) {
    bare->manage(members);
    bare->start();
  } else {
    // Contiguous app groups; apps == 1 keeps the whole cluster in one app,
    // which at shards == 1 routes everything to shard 0's full-pool slice.
    const int apps = std::max(1, opt.apps);
    const std::size_t per = members.size() / apps;
    for (int a = 0; a < apps; ++a) {
      std::vector<cluster::Container*> group(
          members.begin() + a * per,
          a + 1 == apps ? members.end() : members.begin() + (a + 1) * per);
      plane->manage(apps == 1 ? std::string("canonical")
                              : "app" + std::to_string(a),
                    group);
    }
    plane->start();
  }

  std::optional<ha::HaControlPlane> ha;
  if (opt.failover) {
    if (bare) {
      ha::HaConfig hcfg;
      hcfg.standbys = 1;
      ha.emplace(*bare, network, hcfg);
      ha->start();
    } else {
      plane->enable_ha(1);
    }
    // Land inside the decision tick: at t = 1 s + 80 us the telemetry has
    // been ingested and this period's limit updates are on the wire
    // (issued, flushed, not yet delivered) — the takeover happens
    // mid-batch, with per-entry acks still in flight.
    sim.schedule_at(sim::seconds(1) + sim::microseconds(230), [&] {
      if (ha) {
        ha->kill_leader();
      } else {
        plane->ha(0).kill_leader();
      }
    });
  }

  if (shaper) {
    for (std::size_t c = 0; c < members.size(); c += 4) {
      const cluster::Container* from = members[c];
      const cluster::Container* to = members[(c + 1) % members.size()];
      cluster::Cluster* k8sp = &k8s;
      net::Network* netp = &network;
      // 30 kB every 10 ms: 3 MB/s against a 2 MB/s bootstrap share.
      sim.schedule_every(
          milliseconds(1 + static_cast<sim::Duration>(c % 10)),
          milliseconds(10), [from, to, k8sp, netp] {
            netp->send_flow(
                net::Channel::kAppData,
                static_cast<net::EndpointId>(k8sp->node_of(from->id())->id()),
                static_cast<net::EndpointId>(k8sp->node_of(to->id())->id()),
                from->id(), to->id(), 30'000, [] {});
          });
    }
  }
  if (opt.rt) {
    // Floors of 0.9 cores above a smaller pool's fair share: admission has
    // to shed best-effort members to raise each one.
    cfs::RtSpec spec;
    spec.runtime = milliseconds(90);
    spec.deadline = milliseconds(100);
    spec.period = milliseconds(100);
    sim.schedule_at(milliseconds(500), [&, spec] {
      for (const std::size_t m : {0u, 37u, 101u, 200u}) {
        const double bw = opt.bw && m == 0 ? 3.0e6 : 0.0;
        bare->admit_rt(*members[m], spec, bw);
      }
    });
  }

  struct Stream {
    cluster::Container* container;
    int phase;
    sim::Rng rng;
  };
  std::vector<Stream> streams;
  streams.reserve(members.size());
  int idx = 0;
  for (cluster::Container* c : members) {
    streams.push_back({c, idx++, root.fork()});
  }
  for (Stream& s : streams) {
    sim::Simulation* simp = &sim;
    sim.schedule_every(
        milliseconds(1 + s.rng.uniform_int(0, 19)), milliseconds(20),
        [&s, simp] {
          const bool on =
              ((simp->now() / milliseconds(500)) + s.phase) % 2 == 0;
          const int batch = on ? 3 : 0;
          for (int b = 0; b < batch; ++b) {
            const double cost_ms = s.rng.lognormal(std::log(4.0), 0.8);
            s.container->submit(
                std::max<sim::Duration>(
                    1, static_cast<sim::Duration>(cost_ms * 1000.0)),
                2 * memcg::kMiB, [](bool) {});
          }
        });
  }
  sim.run_until(seconds(2));

  CanonicalRun r;
  for (const auto& obs_ptr : observers) {
    const obs::TraceBuffer& trace = obs_ptr->trace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const obs::TraceEvent& e = trace.at(i);
      r.canonical_trace.emplace_back(e.time, static_cast<int>(e.kind),
                                     e.container, e.node, e.before, e.after,
                                     e.detail);
    }
  }
  // Canonicalize: within one timestamp, order is a scheduling artifact of
  // how deliveries were grouped; across timestamps it is behavior.
  std::stable_sort(r.canonical_trace.begin(), r.canonical_trace.end());
  std::ostringstream raw;
  if (plane && opt.shards > 1) {
    plane->export_merged_trace(raw);
  } else {
    // Shard 0's buffer alone — at shards <= 1 this is the whole story and
    // stays byte-comparable with the unsharded export.
    observer.trace().export_jsonl(raw);
  }
  r.raw_trace = raw.str();
  // The CSV is column-oriented (one header row, one value row). Drop the
  // wire-accounting columns — net.* and the batch coalescing counters
  // describe the transport, not the decisions — and keep everything else.
  std::ostringstream metrics;
  observer.metrics().export_csv(metrics, sim.now());
  std::istringstream lines(metrics.str());
  std::string header, values;
  std::getline(lines, header);
  std::getline(lines, values);
  const auto split = [](const std::string& row) {
    std::vector<std::string> cells;
    std::istringstream ss(row);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    return cells;
  };
  const std::vector<std::string> names = split(header);
  const std::vector<std::string> cells = split(values);
  for (std::size_t i = 0; i < names.size() && i < cells.size(); ++i) {
    if (names[i].rfind("net.", 0) == 0 ||
        names[i] == "controller.batched_rpcs" ||
        names[i] == "controller.batch_entries") {
      continue;
    }
    r.filtered_metrics += names[i] + "=" + cells[i] + "\n";
  }
  for (const cluster::Container* c : members) {
    r.cpu_limits.push_back(c->cpu_cgroup().limit_cores());
    r.mem_limits.push_back(c->mem_cgroup().limit());
  }
  r.checker_ok = true;
  for (const auto& c : checkers) {
    if (!c->ok()) {
      r.checker_ok = false;
      r.checker_report += c->report();
    }
  }
  if (shard_checker && !shard_checker->ok()) {
    r.checker_ok = false;
    r.checker_report += shard_checker->report();
  }
  if (r.checker_ok) r.checker_report = "ok";
  if (bare) {
    r.retransmits = bare->controller().retransmits();
    r.failovers = ha ? ha->failovers() : 0;
    r.registered = bare->controller().registered_count();
  } else {
    for (int s = 0; s < opt.shards; ++s) {
      r.retransmits += plane->shard(s).controller().retransmits();
      r.registered += plane->shard(s).controller().registered_count();
    }
    r.failovers = plane->ha_enabled() ? plane->ha(0).failovers() : 0;
    r.borrow_grants = plane->borrows_granted();
  }
  r.batched_rpcs = observer.h.batched_rpcs->value();

  r.batch_entries = observer.h.batch_entries->value();
  return r;
}

// FNV-1a-64 over the canonical run's observable outputs. Numbers are folded
// as 64-bit little-endian words (doubles by bit pattern), strings byte by
// byte, so a digest pins exact values, not their printed rounding.
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void real(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    word(bits);
  }
  void text(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

std::uint64_t digest_of_trace(const CanonicalRun& r) {
  Fnv64 f;
  for (const auto& [time, kind, container, node, before, after, detail] :
       r.canonical_trace) {
    f.word(static_cast<std::uint64_t>(time));
    f.word(static_cast<std::uint64_t>(kind));
    f.word(container);
    f.word(node);
    f.real(before);
    f.real(after);
    f.word(static_cast<std::uint64_t>(detail));
  }
  return f.h;
}

std::uint64_t digest_of_text(const std::string& s) {
  Fnv64 f;
  f.text(s);
  return f.h;
}

std::uint64_t digest_of_cpu(const CanonicalRun& r) {
  Fnv64 f;
  for (const double c : r.cpu_limits) f.real(c);
  return f.h;
}

std::uint64_t digest_of_mem(const CanonicalRun& r) {
  Fnv64 f;
  for (const memcg::Bytes m : r.mem_limits) {
    f.word(static_cast<std::uint64_t>(m));
  }
  return f.h;
}

// The canonical decision streams, pinned. Any change to what the controller
// decides, when, with which values — or to the bytes it puts on the wire,
// which the fault schedules below consume — moves one of these digests. A
// refactor of the limit-update path must leave all of them untouched.
TEST(DifferentialTest, CanonicalDecisionStreamsMatchCommittedDigests) {
  const CanonicalRun base = run_canonical({});
  EXPECT_TRUE(base.checker_ok) << base.checker_report;
  EXPECT_GT(base.batch_entries, base.batched_rpcs)
      << "coalescing must actually group a node's per-period updates";
  EXPECT_EQ(digest_of_trace(base), 0x35c86739ed48797dULL);
  EXPECT_EQ(digest_of_text(base.filtered_metrics), 0x7f6e92d0e0e74f02ULL);
  EXPECT_EQ(digest_of_cpu(base), 0x7413ae5cad0d6c66ULL);
  EXPECT_EQ(digest_of_mem(base), 0x44b9cea386a44725ULL);

  const CanonicalRun lossy = run_canonical({.rpc_drop = 0.02});
  EXPECT_EQ(digest_of_text(lossy.raw_trace), 0xd226195fa17fd470ULL);
  const CanonicalRun failover = run_canonical({.failover = true});
  EXPECT_EQ(digest_of_text(failover.raw_trace), 0xa71b083f1ce1abf5ULL);
  const CanonicalRun sharded =
      run_canonical({.failover = true, .shards = 4, .apps = 32});
  EXPECT_EQ(digest_of_text(sharded.raw_trace), 0x3314b73a954ba0aeULL);
}

// The bandwidth arm, the credit ledger and RT admissions on one canonical
// run, pinned the same way: the bw grant/shrink path, the credit charge and
// decay paths, and the RT floor raise and best-effort shedding all land in
// this raw trace.
TEST(DifferentialTest, BandwidthCreditRtRunMatchesCommittedDigest) {
  const CanonicalRun r = run_canonical(
      {.bw = true, .credit = true, .rt = true, .pool_cores = 128.0});
  EXPECT_TRUE(r.checker_ok) << r.checker_report;
  EXPECT_GT(r.count(obs::EventKind::kBwShrink), 0u);
  EXPECT_GT(r.count(obs::EventKind::kCreditCharge), 0u);
  EXPECT_GT(r.count(obs::EventKind::kRtAdmitted), 0u);
  EXPECT_EQ(digest_of_text(r.raw_trace), 0x7522ec0de8ceba5cULL);
}

// The same overlays with a leader kill at t = 1 s: the takeover has to carry
// the admitted RT set, the credit balances and the bandwidth book across the
// handoff, so the replicated image and its replay are pinned here.
TEST(DifferentialTest, FailoverWithBandwidthCreditRtMatchesCommittedDigest) {
  const CanonicalRun r = run_canonical({.failover = true,
                                        .bw = true,
                                        .credit = true,
                                        .rt = true,
                                        .pool_cores = 128.0});
  EXPECT_TRUE(r.checker_ok) << r.checker_report;
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_GT(r.count(obs::EventKind::kLeaderElected), 0u);
  EXPECT_GT(r.count(obs::EventKind::kRtAdmitted), 0u);
  EXPECT_GT(r.count(obs::EventKind::kCreditCharge), 0u);
  EXPECT_GT(r.count(obs::EventKind::kBwShrink), 0u);
  EXPECT_EQ(digest_of_text(r.raw_trace), 0xeaa936b5d168e347ULL);
}

TEST(DifferentialTest, BothPathsAreReproducibleAndSoundUnderRpcLoss) {
  const CanonicalRun a = run_canonical({.rpc_drop = 0.02});
  const CanonicalRun b = run_canonical({.rpc_drop = 0.02});
  EXPECT_TRUE(a.checker_ok) << a.checker_report;
  EXPECT_GT(a.retransmits, 0u) << "2% loss must force retransmits";
  // Determinism survives the fault path: byte-identical reruns.
  EXPECT_EQ(a.raw_trace, b.raw_trace);
  EXPECT_EQ(a.cpu_limits, b.cpu_limits);
  EXPECT_EQ(a.mem_limits, b.mem_limits);
  EXPECT_EQ(a.registered, 256u);
}

// --- sharded vs single controller -----------------------------------------

TEST(DifferentialTest, SingleShardPlaneMatchesBareController) {
  const CanonicalRun bare = run_canonical({});
  const CanonicalRun sharded = run_canonical({.shards = 1});

  EXPECT_TRUE(bare.checker_ok) << bare.checker_report;
  EXPECT_TRUE(sharded.checker_ok) << sharded.checker_report;
  EXPECT_EQ(sharded.registered, 256u);
  EXPECT_EQ(sharded.borrow_grants, 0u)
      << "a single shard has nobody to borrow from";

  // Byte-identical, not merely equivalent: same events, same instants, same
  // values, same ids — the shard layer at N = 1 adds nothing.
  EXPECT_EQ(bare.raw_trace, sharded.raw_trace);
  EXPECT_EQ(bare.canonical_trace, sharded.canonical_trace);
  EXPECT_EQ(bare.filtered_metrics, sharded.filtered_metrics);
  EXPECT_EQ(bare.cpu_limits, sharded.cpu_limits);
  EXPECT_EQ(bare.mem_limits, sharded.mem_limits);
}

TEST(DifferentialTest, MultiShardCanonicalRunsAreByteReproducible) {
  const CanonicalOptions opt{.shards = 4, .apps = 32};
  const CanonicalRun a = run_canonical(opt);
  const CanonicalRun b = run_canonical(opt);

  EXPECT_TRUE(a.checker_ok) << a.checker_report;
  EXPECT_TRUE(b.checker_ok) << b.checker_report;
  EXPECT_EQ(a.registered, 256u);
  // The merged trace (all four shards, stable cross-shard order, re-assigned
  // ids) is byte-identical across runs.
  EXPECT_EQ(a.raw_trace, b.raw_trace);
  EXPECT_EQ(a.cpu_limits, b.cpu_limits);
  EXPECT_EQ(a.mem_limits, b.mem_limits);
}

TEST(DifferentialTest, MultiShardSurvivesShardLeaderFailover) {
  const CanonicalOptions opt{.failover = true, .shards = 4, .apps = 32};
  const CanonicalRun a = run_canonical(opt);
  const CanonicalRun b = run_canonical(opt);

  EXPECT_TRUE(a.checker_ok) << a.checker_report;
  EXPECT_EQ(a.failovers, 1u);
  EXPECT_EQ(a.registered, 256u) << "takeover must rebuild shard 0's registry";
  EXPECT_EQ(a.raw_trace, b.raw_trace);
  EXPECT_EQ(a.cpu_limits, b.cpu_limits);
  EXPECT_EQ(a.mem_limits, b.mem_limits);
}

TEST(DifferentialTest, BothPathsSurviveLeaderFailoverMidBatch) {
  const CanonicalRun a = run_canonical({.failover = true});
  const CanonicalRun b = run_canonical({.failover = true});
  EXPECT_TRUE(a.checker_ok) << a.checker_report;
  EXPECT_EQ(a.failovers, 1u);
  EXPECT_EQ(a.registered, 256u) << "takeover must rebuild the registry";
  EXPECT_EQ(a.raw_trace, b.raw_trace) << "failover schedule is deterministic";
  EXPECT_EQ(a.cpu_limits, b.cpu_limits);
  EXPECT_EQ(a.mem_limits, b.mem_limits);
}

}  // namespace
}  // namespace escra
