// The Resource Allocator (Figure 3; Section IV-D): the lightweight
// decision-making component. It keeps the Distributed Container's global
// CPU/memory pools, consumes per-period CPU telemetry through two sliding
// windowed statistics per container (throttle occurrences and unused
// runtime), and decides when to scale each container up or down. It also
// decides how to satisfy out-of-memory events from the globally unallocated
// memory, falling back to reclamation when the pool is dry.
//
// The allocator is deliberately passive: it returns decisions; the
// Controller carries them out (Section IV-C: "The Controller is not
// responsible for making those ... decisions").
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "bw/shaper.h"
#include "core/config.h"
#include "core/container_index.h"
#include "core/credit_ledger.h"
#include "core/distributed_container.h"
#include "core/messages.h"
#include "obs/observer.h"
#include "sim/stats.h"

namespace escra::core {

class ResourceAllocator {
 public:
  ResourceAllocator(const EscraConfig& config, DistributedContainer& app);

  // --- membership ---
  void register_container(std::uint32_t id, double cores, memcg::Bytes mem);
  void deregister_container(std::uint32_t id);
  bool knows(std::uint32_t id) const { return index_.contains(id); }
  // Drops every registration (Controller crash: shadow state dies with the
  // process). Pool commitments return to unallocated; windows are cleared.
  void reset();

  // --- CPU (Section IV-D1) ---

  // Consumes one per-period statistic. If a limit change is warranted the
  // new shadow limit (already committed against the global pool) is
  // returned for the Controller to push to the Agent.
  std::optional<double> on_cpu_stats(const CpuStatsMsg& stats);

  // --- memory (Section IV-D2) ---

  enum class MemAction {
    kGrant,             // new_limit committed; apply it and retry the charge
    kReclaimThenRetry,  // pool dry: run reclamation, then call again
    kDeny,              // nothing to give even after reclamation: let it die
  };
  struct MemDecision {
    MemAction action = MemAction::kDeny;
    memcg::Bytes new_limit = 0;
  };

  // Handles a pre-OOM event. `post_reclaim` marks the retry after a
  // reclamation pass, so the allocator denies instead of looping.
  MemDecision on_oom_event(const OomEventMsg& event, bool post_reclaim = false);

  // --- bandwidth (third managed resource; the CPU arm's rule with rates
  //     in bytes/s) ---

  // Consumes one per-period bandwidth sample from the node shapers. If a
  // rate change is warranted the new shadow rate (committed against the
  // global bandwidth pool — the node-NIC clamp is the Controller's job) is
  // returned for the Controller to push to the Agent. Unshaped containers
  // (member bw of 0) are ignored.
  std::optional<double> on_bw_stats(const bw::BwSample& sample);

  // Syncs shadow state after an Agent reclamation pass; ψ flows back into
  // the pool implicitly (allocated sum drops).
  void on_reclaimed(std::uint32_t container, memcg::Bytes new_limit);

  // --- real-time floors (mixed-criticality class) ---
  // An admitted RT container's reservation floor: no allocator decision —
  // κ scale-down, credit decay, anything — may push its shadow CPU limit
  // below `cores` (or its bandwidth rate below `bw_bps`). Set by the
  // Controller at admission, cleared at eviction/deregistration. RT
  // containers also bypass the credit Υ-gate: their priority was paid for
  // at admission, not borrowed from the Karma ledger. The allocator's slot
  // rows are the only store of admitted floors.
  void set_rt_floor(std::uint32_t id, double cores, double bw_bps);
  void clear_rt_floor(std::uint32_t id);
  // The admitted RT floor of `r` (kCpu or kBw); 0 for best-effort or
  // unknown containers.
  double rt_floor(Resource r, std::uint32_t id) const;
  // The never-reclaim floor of `r` (kCpu or kBw): the configured minimum,
  // raised to the RT floor when one is admitted. Every shrink path — κ
  // reclaim, credit decay, best-effort shedding — stops here.
  double floor(Resource r, std::uint32_t id) const;

  // --- credit defense (Karma-style, see credit_ledger.h) ---
  // Read-only Υ-gate on the grant paths: with a ledger attached, a member
  // whose balance is non-positive is never lifted above its static fair
  // share (CPU) and gets shortfall-only OOM grants once above its fair
  // memory share. Null detaches (defense off, the default).
  void set_credit_ledger(const CreditLedger* ledger) { credits_ = ledger; }

  // --- observability ---
  // Mirrors decision counters into the observer's registry and keeps the
  // Distributed Container's pool gauges live. Null detaches. The allocator
  // stays decision-only: trace events for its decisions are recorded by the
  // Controller, which owns the clock and the node topology.
  void set_observer(obs::Observer* observer);

  // --- introspection ---
  DistributedContainer& app() { return app_; }
  const EscraConfig& config() const { return config_; }
  std::uint64_t cpu_scale_ups() const { return ups_[kCpuArm]; }
  std::uint64_t cpu_scale_downs() const { return downs_[kCpuArm]; }
  std::uint64_t mem_grants() const { return mem_grants_; }
  std::uint64_t mem_denies() const { return mem_denies_; }
  std::uint64_t bw_scale_ups() const { return ups_[kBwArm]; }
  std::uint64_t bw_scale_downs() const { return downs_[kBwArm]; }

 private:
  // The elastic arms: CPU in cores, bandwidth in bytes/s. Both run one
  // rule (decide()); only units and tunables differ.
  enum Arm : std::size_t { kCpuArm = 0, kBwArm = 1, kArms = 2 };
  static Arm arm_of(Resource r) {
    return r == Resource::kBw ? kBwArm : kCpuArm;
  }
  // One arm's tunables, from EscraConfig, and its decision counters.
  struct ArmParams {
    double upsilon = 0.0;
    double gamma = 0.0;
    double kappa = 0.0;
    double min = 0.0;
    double epsilon = 0.0;
    obs::Counter* grants = nullptr;
    obs::Counter* shrinks = nullptr;
  };
  // One period of telemetry in the arm's unit.
  struct Sample {
    bool throttled = false;
    double used_last = 0.0;  // consumed last period
    double unused = 0.0;     // limit left unused last period
  };
  // Per-container sliding statistics, in the arm's unit.
  struct Windows {
    sim::SlidingWindow throttles;
    sim::SlidingWindow unused;
    explicit Windows(std::size_t n) : throttles(n), unused(n) {}
  };

  // Section IV-D1 for either arm: a Υ-gated grant from the unallocated pool
  // (never past `ceiling`, an absolute limit) on a throttled period, a
  // κ-damped reclaim above γ otherwise. Returns the committed new limit.
  std::optional<double> decide(Arm arm, std::uint32_t slot, std::uint32_t id,
                               double current, const Sample& sample,
                               double ceiling);
  double floor_at(Arm arm, std::uint32_t slot) const;
  // The credit Υ-gate as a CPU grant ceiling (+∞ when it does not apply).
  double cpu_grant_ceiling(std::uint32_t id, std::uint32_t slot) const;
  double unallocated(Arm arm) const;
  double set_member(Arm arm, std::uint32_t id, double value);

  EscraConfig config_;
  DistributedContainer& app_;
  obs::Observer* obs_ = nullptr;
  const CreditLedger* credits_ = nullptr;
  std::array<ArmParams, kArms> arms_;
  // Registered containers interned to dense slots; the per-arm rows below
  // are indexed by slot, so a container's CPU and bandwidth statistics live
  // at the same slot. Windows reset at registration.
  ContainerIndex index_;
  std::array<std::vector<Windows>, kArms> windows_;
  // Per-slot RT reservation floors (0 = best-effort): the scale-down hot
  // paths read them with no map lookup.
  std::array<std::vector<double>, kArms> rt_floor_;
  std::array<std::uint64_t, kArms> ups_{};
  std::array<std::uint64_t, kArms> downs_{};
  std::uint64_t mem_grants_ = 0;
  std::uint64_t mem_denies_ = 0;
};

}  // namespace escra::core
