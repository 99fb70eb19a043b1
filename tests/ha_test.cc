// The warm-standby replicated controller (src/ha): WAL replication keeps
// every standby a faithful mirror of the live seat's image(); a leader
// kill is followed by a staggered election, epoch fencing, and a sub-second
// takeover that replays the WAL tail instead of resyncing the Agents; a
// partitioned (still-alive) leader is deposed and its ghost can never move
// a cgroup again. Plus the satellite contracts: the 48-bit sequence-counter
// wrap guard, exactly-once effect for an OOM grant whose leader died
// mid-flight, and the strict-> lease-boundary determinism shared by the
// Agent watchdog and the standby election timer.
#include "ha/ha_control_plane.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "core/messages.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "obs/observer.h"

namespace escra {
namespace {

using memcg::kGiB;
using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

cluster::Container& make_container(cluster::Cluster& k8s,
                                   const std::string& name,
                                   double parallelism = 4.0) {
  cluster::ContainerSpec s;
  s.name = name;
  s.base_memory = 64 * kMiB;
  s.max_parallelism = parallelism;
  return k8s.create_container(std::move(s), 0.5, 128 * kMiB);
}

struct HaRig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  core::EscraSystem escra{sim, net, k8s, 16.0, 8 * kGiB};
  obs::Observer observer;
  std::vector<cluster::Container*> containers;
  // Declared last: destroyed first, so the replication hook detaches while
  // the Controller is still alive.
  std::optional<ha::HaControlPlane> ha;

  explicit HaRig(int standbys, ha::HaConfig cfg = {}) {
    k8s.add_node({});
    k8s.add_node({});
    for (int i = 0; i < 4; ++i) {
      containers.push_back(&make_container(k8s, "c" + std::to_string(i)));
    }
    escra.attach_observer(observer);
    escra.manage(containers);
    escra.start();
    cfg.standbys = standbys;
    ha.emplace(escra, net, cfg);
    ha->start();
  }
};

void expect_replica_equals(const core::ReplicaState& a,
                           const core::ReplicaState& b) {
  ASSERT_EQ(a.containers.size(), b.containers.size());
  for (const auto& [id, cs] : a.containers) {
    const auto it = b.containers.find(id);
    ASSERT_NE(it, b.containers.end()) << "container " << id;
    EXPECT_DOUBLE_EQ(cs.cores, it->second.cores) << "container " << id;
    EXPECT_EQ(cs.mem, it->second.mem) << "container " << id;
    EXPECT_EQ(cs.node, it->second.node) << "container " << id;
    EXPECT_DOUBLE_EQ(cs.bw_bps, it->second.bw_bps) << "container " << id;
  }
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (const auto& [key, sl] : a.slots) {
    const auto it = b.slots.find(key);
    ASSERT_NE(it, b.slots.end()) << "slot " << key;
    EXPECT_EQ(sl.seq, it->second.seq) << "slot " << key;
  }
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (const auto& [id, ns] : a.nodes) {
    const auto it = b.nodes.find(id);
    ASSERT_NE(it, b.nodes.end()) << "node " << id;
    EXPECT_EQ(ns.agent_incarnation, it->second.agent_incarnation);
    EXPECT_EQ(ns.dead, it->second.dead);
  }
  EXPECT_EQ(a.credits, b.credits);
  EXPECT_EQ(a.credit_minted, b.credit_minted);
  EXPECT_EQ(a.credit_burned, b.credit_burned);
  ASSERT_EQ(a.rt.size(), b.rt.size());
  for (const auto& [id, rs] : a.rt) {
    const auto it = b.rt.find(id);
    ASSERT_NE(it, b.rt.end()) << "rt " << id;
    EXPECT_EQ(rs.spec, it->second.spec) << "rt " << id;
    EXPECT_DOUBLE_EQ(rs.bw_bps, it->second.bw_bps) << "rt " << id;
  }
}

// --- WAL replication ----------------------------------------------------

TEST(HaTest, WalStreamMirrorsLeaderBookOnEveryStandby) {
  HaRig rig(2);
  // Land between decision sweeps: every record appended by the last sweep
  // has had >> one RTT to reach the standbys.
  rig.sim.run_until(seconds(2) + milliseconds(17));

  EXPECT_GT(rig.ha->wal_appends(), 0u);
  const core::ReplicaState image = rig.escra.controller().image();
  for (int rank = 0; rank < 2; ++rank) {
    SCOPED_TRACE("standby rank " + std::to_string(rank));
    expect_replica_equals(image, rig.ha->standby_replica(rank));
  }
}

TEST(HaTest, StandbysEqualImageBeforeTheFirstHeartbeat) {
  // An OOM grant's update is acked long before the node's first heartbeat
  // (100 ms). A node heard only through an ack is not replicated yet, so
  // image() must not list it either.
  HaRig rig(2);
  rig.sim.schedule_at(milliseconds(5), [&] {
    rig.escra.controller().handle_oom(*rig.containers[0], 32 * kMiB,
                                      32 * kMiB);
  });
  rig.sim.run_until(milliseconds(67));
  const core::ReplicaState image = rig.escra.controller().image();
  EXPECT_TRUE(image.nodes.empty());
  EXPECT_TRUE(image.slots.empty()) << "the grant was acked";
  for (int rank = 0; rank < 2; ++rank) {
    SCOPED_TRACE("standby rank " + std::to_string(rank));
    expect_replica_equals(image, rig.ha->standby_replica(rank));
  }
}

TEST(HaTest, DeterministicReplayIsAPureFoldOfTheLog) {
  // Folding any record prefix in index order gives the same state no matter
  // who holds it — replay a synthetic log twice, in one pass and split
  // across two ReplicaStates joined by copy. The log opens with a container
  // the epoch start must forget.
  using Kind = core::ReplicationEvent::Kind;
  constexpr cluster::ContainerId kId = 7;
  constexpr cluster::ContainerId kForgotten = 9;
  const auto event = [](Kind kind) {
    ha::WalRecord r;
    r.epoch = 3;
    r.event.kind = kind;
    r.event.container = kId;
    return r;
  };
  const auto slot = [&](std::uint64_t counter, core::Limit limit) {
    ha::WalRecord r = event(Kind::kSlot);
    r.event.seq = core::pack_update_seq(3, counter);
    r.event.limit = limit;
    return r;
  };
  ha::WalLog log;
  std::vector<ha::WalRecord> records;
  {
    ha::WalRecord r = event(Kind::kRegister);
    r.event.container = kForgotten;
    r.event.node = 1;
    r.event.cores = 1.0;
    records.push_back(r);
    records.push_back(event(Kind::kEpoch));
    r = event(Kind::kRegister);
    r.event.node = 1;
    r.event.cores = 2.0;
    r.event.mem = 256 * kMiB;
    r.event.bw_bps = 1e6;
    records.push_back(r);
    records.push_back(slot(41, {core::Resource::kCpu, 3.0}));
    records.push_back(slot(42, {core::Resource::kMem, 320.0 * kMiB}));
    records.push_back(slot(43, {core::Resource::kBw, 2e6}));
    // The memory ack closes only the memory slot: the CPU and bandwidth
    // slots of the same container stay open under their own keys.
    r = event(Kind::kAckSlot);
    r.event.seq = core::pack_update_seq(3, 42);
    r.event.limit.resource = core::Resource::kMem;
    records.push_back(r);
  }
  for (const auto& r : records) log.append(r);

  core::ReplicaState one_pass;
  for (std::uint64_t i = log.base(); i < log.next_index(); ++i) {
    one_pass.apply(log.at(i).event);
  }
  core::ReplicaState prefix;
  for (std::uint64_t i = 0; i < 4; ++i) prefix.apply(log.at(i).event);
  core::ReplicaState resumed = prefix;  // handoff mid-log
  for (std::uint64_t i = 4; i < log.next_index(); ++i) {
    resumed.apply(log.at(i).event);
  }
  expect_replica_equals(one_pass, resumed);

  EXPECT_EQ(one_pass.containers.count(kForgotten), 0u)
      << "the epoch start reset the state folded before it";
  ASSERT_EQ(one_pass.containers.size(), 1u);
  const core::ReplicaState::ContainerState& shadow = one_pass.containers.at(kId);
  EXPECT_DOUBLE_EQ(shadow.cores, 3.0);
  EXPECT_EQ(shadow.mem, 320 * kMiB);
  EXPECT_DOUBLE_EQ(shadow.bw_bps, 2e6);

  const std::uint64_t cpu_key =
      core::slot_key(kId, core::Resource::kCpu);
  const std::uint64_t mem_key =
      core::slot_key(kId, core::Resource::kMem);
  const std::uint64_t bw_key =
      core::slot_key(kId, core::Resource::kBw);
  EXPECT_NE(cpu_key, mem_key);
  EXPECT_NE(cpu_key, bw_key);
  EXPECT_NE(mem_key, bw_key);
  EXPECT_EQ(one_pass.slots.count(mem_key), 0u) << "ack closed its own slot";
  ASSERT_EQ(one_pass.slots.size(), 2u);
  EXPECT_EQ(one_pass.slots.at(cpu_key).seq, core::pack_update_seq(3, 41));
  EXPECT_EQ(one_pass.slots.at(cpu_key).limit.resource, core::Resource::kCpu);
  EXPECT_DOUBLE_EQ(one_pass.slots.at(cpu_key).limit.value, 3.0);
  EXPECT_EQ(one_pass.slots.at(bw_key).seq, core::pack_update_seq(3, 43));
  EXPECT_EQ(one_pass.slots.at(bw_key).limit.resource, core::Resource::kBw);
  EXPECT_DOUBLE_EQ(one_pass.slots.at(bw_key).limit.value, 2e6);
}

// --- one replicated state across every seat change -----------------------

// However the seat changes hands — a plain crash/restart inside the lease
// (with a desired-state slot open at the crash), a failover, or leader
// churn — the new seat opens its epoch in the WAL, so once the resync has
// settled the live seat's image() and every standby replica are one state
// — no standby still holds a slot that was open at the crash.
TEST(HaTest, ImageAndStandbysAgreeAfterRestartFailoverAndChurn) {
  enum class Change { kRestart, kFailover, kChurn };
  for (const Change change :
       {Change::kRestart, Change::kFailover, Change::kChurn}) {
    SCOPED_TRACE("seat change " + std::to_string(static_cast<int>(change)));
    HaRig rig(2);
    rig.sim.run_until(seconds(1));
    const std::uint64_t epoch_before = rig.escra.controller().epoch();
    switch (change) {
      case Change::kRestart:
        rig.sim.schedule_at(seconds(1) + milliseconds(3), [&] {
          // The grant opens a memory slot; the seat dies in the same
          // instant, long before the Agent's ack can close it.
          rig.escra.controller().handle_oom(*rig.containers[0], 32 * kMiB,
                                            32 * kMiB);
          ASSERT_FALSE(rig.escra.controller().image().slots.empty());
          rig.escra.crash();
        });
        rig.sim.schedule_at(seconds(1) + milliseconds(100),
                            [&] { rig.escra.restart(); });
        break;
      case Change::kFailover:
        rig.sim.schedule_at(seconds(1), [&] { rig.ha->kill_leader(); });
        break;
      case Change::kChurn:
        rig.sim.schedule_at(seconds(1), [&] { rig.ha->kill_leader(); });
        rig.sim.schedule_at(seconds(2), [&] { rig.ha->kill_leader(); });
        break;
    }
    // Land between decision sweeps, well after the resync round trips.
    rig.sim.run_until(seconds(4) + milliseconds(17));

    EXPECT_FALSE(rig.escra.crashed());
    EXPECT_EQ(rig.ha->failovers(), change == Change::kRestart ? 0u
                                   : change == Change::kFailover ? 1u
                                                                 : 2u);
    EXPECT_GT(rig.escra.controller().epoch(), epoch_before);
    EXPECT_EQ(rig.ha->epoch(), rig.escra.controller().epoch());
    EXPECT_EQ(rig.escra.controller().registered_count(), 4u);
    const core::ReplicaState image = rig.escra.controller().image();
    for (int rank = 0; rank < rig.ha->standby_count(); ++rank) {
      SCOPED_TRACE("standby rank " + std::to_string(rank));
      expect_replica_equals(image, rig.ha->standby_replica(rank));
    }
  }
}

// --- clean failover -----------------------------------------------------

TEST(HaTest, LeaderKillElectsStandbySubSecondWithoutResyncOrFailStatic) {
  HaRig rig(2);
  rig.sim.run_until(seconds(1));
  const std::uint64_t epoch_before = rig.escra.controller().epoch();
  const std::uint64_t resyncs_before = rig.escra.controller().resyncs();
  ASSERT_EQ(rig.escra.controller().registered_count(), 4u);

  rig.sim.schedule_at(seconds(1), [&] { rig.ha->kill_leader(); });
  rig.sim.run_until(seconds(2));

  EXPECT_EQ(rig.ha->failovers(), 1u);
  EXPECT_FALSE(rig.escra.crashed()) << "a standby holds the seat";
  EXPECT_GT(rig.escra.controller().epoch(), epoch_before);
  EXPECT_EQ(rig.ha->epoch(), rig.escra.controller().epoch());
  EXPECT_EQ(rig.ha->standby_count(), 2) << "the pool replenished itself";

  // Takeover rebuilt the registry from the replica — zero resync
  // round-trips — and beat the Agents' 500 ms lease watchdog.
  EXPECT_EQ(rig.escra.controller().registered_count(), 4u);
  EXPECT_EQ(rig.escra.controller().resyncs(), resyncs_before);
  for (cluster::NodeId n = 0; n < 2; ++n) {
    core::Agent* agent = rig.escra.controller().agent_at(n);
    ASSERT_NE(agent, nullptr);
    EXPECT_FALSE(agent->fail_static()) << "node " << n;
    EXPECT_EQ(agent->fenced_epoch(), rig.ha->epoch()) << "node " << n;
  }

  // Sub-second takeover, visible in the trace.
  EXPECT_EQ(rig.observer.h.ha_elections->value(), 1u);
  const obs::TraceBuffer& trace = rig.observer.trace();
  sim::TimePoint elected = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.at(i).kind == obs::EventKind::kLeaderElected) {
      elected = trace.at(i).time;
      break;
    }
  }
  ASSERT_GT(elected, seconds(1));
  EXPECT_LT(elected, seconds(1) + seconds(1)) << "takeover within 1 s";
}

TEST(HaTest, FailoverScheduleIsByteIdenticalAcrossRuns) {
  auto run = [] {
    HaRig rig(2);
    rig.sim.schedule_at(seconds(1), [&] { rig.ha->kill_leader(); });
    rig.sim.run_until(seconds(3));
    std::vector<std::uint64_t> fingerprint;
    const obs::TraceBuffer& trace = rig.observer.trace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const obs::TraceEvent& ev = trace.at(i);
      fingerprint.push_back(static_cast<std::uint64_t>(ev.time));
      fingerprint.push_back(static_cast<std::uint64_t>(ev.kind));
      fingerprint.push_back(ev.container);
      fingerprint.push_back(static_cast<std::uint64_t>(ev.detail));
    }
    fingerprint.push_back(rig.ha->epoch());
    fingerprint.push_back(rig.ha->wal_appends());
    return fingerprint;
  };
  EXPECT_EQ(run(), run());
}

// --- epoch fencing / split brain ----------------------------------------

TEST(HaTest, DeposedLeaderIsFencedAndCanNeverMoveACgroup) {
  HaRig rig(1);
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  rig.sim.run_until(seconds(1));
  const std::uint64_t old_epoch = rig.escra.controller().epoch();

  // Partition the leader from its standby only — the Agents still hear
  // both sides. The standby must conclude the leader is dead (it cannot
  // distinguish silence from death), depose it, and fence its epoch.
  rig.net.partition(net::kControllerEndpoint, net::standby_endpoint(0));
  rig.sim.run_until(seconds(1) + milliseconds(400));

  EXPECT_EQ(rig.ha->failovers(), 1u);
  EXPECT_GT(rig.ha->epoch(), old_epoch);
  EXPECT_TRUE(rig.ha->ghost_active())
      << "the old leader was alive: it lives on briefly as a ghost";

  // The fence broadcast reached every Agent; any old-epoch update — even
  // one whose raw sequence would beat the per-resource stale check — is
  // discarded without touching the cgroup.
  for (cluster::NodeId n = 0; n < 2; ++n) {
    core::Agent* agent = rig.escra.controller().agent_at(n);
    ASSERT_NE(agent, nullptr);
    EXPECT_EQ(agent->fenced_epoch(), rig.ha->epoch()) << "node " << n;
  }
  cluster::Container* victim = rig.containers[0];
  const cluster::Node* home = rig.k8s.node_of(victim->id());
  ASSERT_NE(home, nullptr);
  core::Agent* agent = rig.escra.controller().agent_at(home->id());
  const double limit_before = victim->cpu_cgroup().limit_cores();
  EXPECT_EQ(agent->apply_limit(
                victim->id(), {core::Resource::kCpu, 99.0},
                core::pack_update_seq(old_epoch, core::kUpdateSeqMask - 1)),
            core::Agent::Apply::kFenced);
  EXPECT_DOUBLE_EQ(victim->cpu_cgroup().limit_cores(), limit_before);

  // The ghost abdicates within 500 ms and the cluster
  // stays coherent throughout: no split-brain, monotonic epochs.
  rig.sim.run_until(seconds(2) + milliseconds(200));
  EXPECT_FALSE(rig.ha->ghost_active());
  checker.check_now();
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(HaTest, LeaderChurnUnderInjectedFaultsKeepsInvariantsGreen) {
  HaRig rig(2);
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  rig.net.set_fault_rng(sim::Rng(23));
  fault::FaultInjector injector(rig.sim, rig.net, rig.escra);
  injector.inject_rpc_drop(net::Channel::kHaReplication, 0.2, seconds(1),
                           seconds(4));
  rig.sim.schedule_at(seconds(2), [&] { rig.ha->kill_leader(); });
  rig.sim.schedule_at(seconds(4), [&] { rig.ha->kill_leader(); });
  rig.sim.run_until(seconds(6));

  EXPECT_EQ(rig.ha->failovers(), 2u);
  EXPECT_EQ(rig.ha->standby_count(), 2);
  EXPECT_FALSE(rig.escra.crashed());
  checker.check_now();
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// --- satellite: OOM-grant slot replay is exactly-once -------------------

TEST(HaTest, OomGrantSurvivesLeaderDeathWithExactlyOnceEffect) {
  HaRig rig(1);
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  rig.sim.run_until(seconds(1));

  cluster::Container* victim = rig.containers[0];
  bool granted = false;
  memcg::Bytes shadow_after_grant = 0;
  rig.sim.schedule_at(seconds(1) + milliseconds(3), [&] {
    // The grant opens a desired-state memory slot and streams its WAL
    // record; the leader dies in the same instant — before the Agent's
    // apply, long before the ack. The standby's replica holds the open
    // slot, so takeover replays it under the new epoch.
    granted = rig.escra.controller().handle_oom(*victim, 32 * kMiB,
                                                32 * kMiB);
    shadow_after_grant =
        rig.escra.controller().image().containers.at(victim->id()).mem;
    rig.ha->kill_leader();
  });
  rig.sim.run_until(seconds(3));

  EXPECT_TRUE(granted);
  EXPECT_EQ(rig.ha->failovers(), 1u);
  // Exactly-once effect: the kernel limit landed on the granted value (the
  // replayed update is idempotent — same absolute limit, fresh sequence),
  // the new seat's image agrees with the kernel, and the slot is closed.
  const core::ReplicaState image = rig.escra.controller().image();
  EXPECT_EQ(victim->mem_cgroup().limit(), shadow_after_grant);
  EXPECT_EQ(image.containers.at(victim->id()).mem, shadow_after_grant);
  EXPECT_TRUE(image.slots.empty())
      << "the replayed slot was acked under the new epoch";
  checker.check_now();
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// --- satellite: 48-bit sequence-counter wrap guard ----------------------

TEST(HaTest, SeqCounterWrapRollsEpochInsteadOfCorruptingOrder) {
  HaRig rig(1);
  rig.sim.run_until(seconds(1));
  const std::uint64_t epoch_before = rig.escra.controller().epoch();
  // Plant the per-epoch counter at 2^48 - 1; the very next limit update
  // must roll the epoch rather than let the counter overflow into the
  // epoch field (which would make newer updates compare *lower*). Force
  // sequenced updates across the boundary with a pair of OOM grants.
  rig.escra.controller().set_update_seq_for_test(core::kUpdateSeqMask);
  bool granted = false;
  rig.sim.schedule_at(seconds(1) + milliseconds(10), [&] {
    granted = rig.escra.controller().handle_oom(*rig.containers[0],
                                                16 * kMiB, 16 * kMiB);
    rig.escra.controller().handle_oom(*rig.containers[1], 16 * kMiB,
                                      16 * kMiB);
  });
  rig.sim.run_until(seconds(3));

  EXPECT_TRUE(granted);
  const std::uint64_t rolled = rig.escra.controller().epoch();
  EXPECT_GT(rolled, epoch_before);
  // The system keeps functioning across the roll: updates still land.
  EXPECT_EQ(rig.escra.controller().registered_count(), 4u);
  for (cluster::NodeId n = 0; n < 2; ++n) {
    core::Agent* agent = rig.escra.controller().agent_at(n);
    ASSERT_NE(agent, nullptr);
    EXPECT_FALSE(agent->fail_static());
  }
  // The roll wrote no epoch record, and the replicas need none: the same
  // seat kept its state, so past one lease tick every standby still equals
  // the live image.
  rig.sim.run_until(seconds(3) + milliseconds(17));
  EXPECT_EQ(rig.ha->epoch(), rolled);
  const core::ReplicaState image = rig.escra.controller().image();
  for (int rank = 0; rank < rig.ha->standby_count(); ++rank) {
    SCOPED_TRACE("standby rank " + std::to_string(rank));
    expect_replica_equals(image, rig.ha->standby_replica(rank));
  }
  // The standby learned the rolled epoch from the records and leases, so
  // the election claims an epoch above it and fences every Agent there.
  rig.ha->kill_leader();
  rig.sim.run_until(seconds(4));
  EXPECT_EQ(rig.ha->failovers(), 1u);
  EXPECT_GT(rig.ha->epoch(), rolled);
  EXPECT_EQ(rig.escra.controller().epoch(), rig.ha->epoch());
  for (cluster::NodeId n = 0; n < 2; ++n) {
    core::Agent* agent = rig.escra.controller().agent_at(n);
    ASSERT_NE(agent, nullptr);
    EXPECT_EQ(agent->fenced_epoch(), rig.ha->epoch()) << "node " << n;
  }
}

// --- satellite: strict-> lease boundary ---------------------------------

TEST(HaTest, AgentLeaseContactAtExactExpiryInstantHoldsTheLease) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  cluster::Node& node = k8s.add_node({});
  cluster::Container& c = make_container(k8s, "a");
  core::Agent agent(node);
  agent.manage(c);
  agent.connect(sim, net, nullptr);
  // Heartbeat (and piggybacked watchdog) every 50 ms, lease 100 ms. The
  // last contact lands at t=50 ms, so the watchdog tick at t=150 ms sees
  // silence of exactly one lease — the boundary contract is strict >, so
  // the lease HOLDS; only the 200 ms tick (150 ms of silence) trips it.
  agent.start(milliseconds(50), milliseconds(100));
  sim.schedule_at(milliseconds(50), [&] { agent.note_controller_contact(); });

  sim.run_until(milliseconds(160));
  EXPECT_FALSE(agent.fail_static())
      << "contact at exactly lease expiry must hold the lease";
  sim.run_until(milliseconds(210));
  EXPECT_TRUE(agent.fail_static())
      << "strictly longer silence trips fail-static";
}

TEST(HaTest, StandbyElectionInstantIsIdenticalAcrossRuns) {
  // The standby watchdog uses the same strict-> boundary; with identical
  // seeds the election fires at the same simulated microsecond every time.
  auto elected_at = [] {
    HaRig rig(2);
    rig.sim.schedule_at(seconds(1), [&] { rig.ha->kill_leader(); });
    rig.sim.run_until(seconds(2));
    const obs::TraceBuffer& trace = rig.observer.trace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace.at(i).kind == obs::EventKind::kLeaderElected) {
        return trace.at(i).time;
      }
    }
    return sim::TimePoint{0};
  };
  const sim::TimePoint first = elected_at();
  ASSERT_GT(first, seconds(1));
  EXPECT_LE(first, seconds(1) + milliseconds(400))
      << "lease timeout 200 ms + watchdog grid: well under a second";
  EXPECT_EQ(first, elected_at());
}

}  // namespace
}  // namespace escra
