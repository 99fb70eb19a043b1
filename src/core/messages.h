// Wire-message shapes and sizes for Escra's control plane.
//
// Sizes model the paper's transports: the per-period CPU statistic is a
// small fixed struct sent over UDP from a kernel thread (cgroup tag, quota,
// unused runtime, throttled flag — Section IV-B); OOM events and container
// registration ride the per-container kernel TCP socket; limit updates and
// reclamation requests are gRPC calls. The byte counts include L2-L4 and
// protocol framing so the network-overhead microbenchmark (Section VI-I)
// can report Mbps on comparable terms.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cfs/cgroup.h"
#include "memcg/mem_cgroup.h"

namespace escra::core {

// The resource a limit-update slot targets. Slot keys, WAL records, and the
// checker all pack this into the low bits of slot_key() below, so the
// numeric values are part of the on-disk/replication format.
enum class Resource : std::uint8_t {
  kCpu = 0,
  kMem = 1,
  kBw = 2,
};

// The external identity of one (container, resource) desired-state slot:
// `container_id * 4 + resource`. It never depends on a process-local index,
// so the WAL, the replicas and the checker agree on it across leaders.
constexpr std::uint64_t slot_key(std::uint32_t container, Resource r) {
  return static_cast<std::uint64_t>(container) * 4 +
         static_cast<std::uint64_t>(r);
}
constexpr std::uint32_t slot_key_container(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 2);
}
constexpr Resource slot_key_resource(std::uint64_t key) {
  return static_cast<Resource>(key & 3);
}

// Smallest limit change worth a limit-update RPC, in the resource's unit:
// a millicore of CPU, 8 KB/s of bandwidth. Memory limits move in whole
// pages and have none.
constexpr double limit_epsilon(Resource r) {
  return r == Resource::kCpu ? 1e-3 : r == Resource::kBw ? 8e3 : 0.0;
}

// One limit update, from allocator decision to cgroup write: the resource it
// targets and the new limit in that resource's unit (cores, bytes, bytes/s).
// Memory limits ride the double exactly — every modelled limit is far below
// 2^53 bytes — and turn back into memcg::Bytes only at the memcg write.
struct Limit {
  Resource resource = Resource::kCpu;
  double value = 0.0;
};

// UDP telemetry datagram: 14B eth + 20B IP + 8B UDP + payload
// (4B cgroup tag, 8B quota, 8B unused runtime, 1B flags, padding).
inline constexpr std::size_t kCpuStatsWireBytes = 14 + 20 + 8 + 24;

// UDP bandwidth telemetry datagram: same transport as the CPU statistic
// (4B container tag, 8B rate, 8B used, 8B queue depth, 1B flags, padding).
inline constexpr std::size_t kBwStatsWireBytes = 14 + 20 + 8 + 32;

// TCP memory event (established kernel socket): headers + 16B payload.
inline constexpr std::size_t kOomEventWireBytes = 14 + 20 + 32 + 16;

// TCP registration message.
inline constexpr std::size_t kRegistrationWireBytes = 14 + 20 + 32 + 24;

// gRPC limit-update call: HTTP/2 + protobuf, empirically a few hundred bytes.
inline constexpr std::size_t kLimitUpdateRpcBytes = 280;
inline constexpr std::size_t kLimitUpdateRespBytes = 120;

// Coalesced per-node limit push: one gRPC call carrying every pending
// desired-state update for a node in the current period. The header covers
// HTTP/2 + protobuf framing once; each entry adds a compact repeated field
// (container id, resource tag, seq, value). The ack response mirrors the
// shape with per-entry (seq, status) pairs so partial application is
// visible to the controller's retransmit machinery.
inline constexpr std::size_t kBatchedLimitUpdateHdrBytes = 220;
inline constexpr std::size_t kBatchedLimitEntryBytes = 28;
inline constexpr std::size_t kBatchedLimitAckHdrBytes = 100;
inline constexpr std::size_t kBatchedLimitAckEntryBytes = 12;

// gRPC reclamation request/response (response carries per-node ψ).
inline constexpr std::size_t kReclaimRpcBytes = 260;
inline constexpr std::size_t kReclaimRespBytes = 160;

// Agent -> Controller heartbeat and its ack: small keepalive frames on the
// gRPC channel (node id + incarnation / bare ack).
inline constexpr std::size_t kHeartbeatWireBytes = 14 + 20 + 32 + 16;
inline constexpr std::size_t kHeartbeatAckWireBytes = 14 + 20 + 32 + 8;

// Resync snapshot exchange on reconnect/restart: the request names the
// node, the response carries the Agent's managed-container inventory with
// last-applied limits (modelled as a fixed mid-size frame).
inline constexpr std::size_t kResyncRpcBytes = 240;
inline constexpr std::size_t kResyncRespBytes = 320;

// Controller HA (src/ha). One WAL record streamed leader -> standby (kind,
// epoch, index, container/node, seq, limits), the standby's cumulative-ack
// frame back, the periodic epoch-lease announcement (which also carries the
// retransmit cursor exchange), and the new leader's epoch-fence broadcast to
// the Agents.
inline constexpr std::size_t kWalRecordWireBytes = 14 + 20 + 32 + 56;
inline constexpr std::size_t kWalAckWireBytes = 14 + 20 + 32 + 16;
inline constexpr std::size_t kLeaseAnnounceWireBytes = 14 + 20 + 32 + 24;
inline constexpr std::size_t kFenceWireBytes = 14 + 20 + 32 + 16;

// Cross-shard pool borrowing (src/shard). The periodic surplus advertisement
// is a small fire-and-forget datagram (per-resource headroom triple); borrow
// requests and return notices are gRPC calls whose responses carry the
// sequenced grant/ack, mirroring the desired-state-slot shapes above.
inline constexpr std::size_t kShardAdvertWireBytes = 14 + 20 + 8 + 40;
inline constexpr std::size_t kBorrowRequestRpcBytes = 180;
inline constexpr std::size_t kBorrowGrantRespBytes = 140;
inline constexpr std::size_t kBorrowReturnRpcBytes = 160;
inline constexpr std::size_t kBorrowReturnAckBytes = 90;

// Limit-update sequence numbers pack the controller epoch (incarnation) in
// the high 16 bits and a per-epoch counter in the low 48, so a higher epoch
// always compares greater and the Agents' monotonic-seq check doubles as
// epoch fencing. Controller::next_seq wraps the counter by bumping the epoch
// before it would overflow 48 bits, keeping packed comparison monotonic.
inline constexpr int kUpdateSeqBits = 48;
inline constexpr std::uint64_t kUpdateSeqMask =
    (std::uint64_t{1} << kUpdateSeqBits) - 1;
constexpr std::uint64_t pack_update_seq(std::uint64_t epoch,
                                        std::uint64_t counter) {
  return (epoch << kUpdateSeqBits) | (counter & kUpdateSeqMask);
}
constexpr std::uint64_t update_seq_epoch(std::uint64_t seq) {
  return seq >> kUpdateSeqBits;
}
constexpr std::uint64_t update_seq_counter(std::uint64_t seq) {
  return seq & kUpdateSeqMask;
}

// The per-period CPU statistic (Section IV-B).
struct CpuStatsMsg {
  cfs::CgroupId cgroup = 0;
  sim::TimePoint period_end = 0;
  sim::Duration quota = 0;
  sim::Duration unused = 0;
  bool throttled = false;
};

// Pre-OOM memory request (Section IV-B / IV-D2).
struct OomEventMsg {
  std::uint32_t container = 0;
  memcg::Bytes attempted_charge = 0;
  memcg::Bytes shortfall = 0;
};

}  // namespace escra::core
