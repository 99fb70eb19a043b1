// Decision/state WAL for the replicated controller (src/ha).
//
// The active leader turns every durable state change the Controller makes —
// container registration/deregistration (pool commitments), desired-state
// slot opens and acks, shadow-limit moves, node-liveness transitions — into
// a sequence-numbered record carrying the Controller's own ReplicationEvent.
// The log index is globally monotonic across epochs; the Controller's
// kEpoch record marks each restart and leadership handoff and resets the
// replica state it governs, so replay is a pure left fold: applying records
// [0..n) in index order always produces the same replica, regardless of
// which leader wrote which prefix (deterministic WAL replay). The fold
// itself is core::ReplicaState::apply. The epoch number rides on each
// record (WalRecord::epoch), not in the replica: a standby learns the
// highest epoch it has seen from the records and lease announcements.
#pragma once

#include <cstdint>
#include <deque>

#include "core/replica.h"

namespace escra::ha {

// One log entry: a replicated Controller state change.
struct WalRecord {
  std::uint64_t epoch = 0;  // leader epoch that wrote the record
  std::uint64_t index = 0;  // position in the log (assigned by append)
  core::ReplicationEvent event{};
};

// The leader's in-memory log. Indices never reset (standby cursors stay
// valid across epochs); the prefix every standby has acked is trimmed.
class WalLog {
 public:
  // Assigns the next index, retains the record, returns its index.
  std::uint64_t append(WalRecord record) {
    record.index = next_index_;
    records_.push_back(record);
    return next_index_++;
  }

  // First retained index / one past the last written index.
  std::uint64_t base() const { return next_index_ - records_.size(); }
  std::uint64_t next_index() const { return next_index_; }
  std::size_t retained() const { return records_.size(); }

  // Record at `index`; must be in [base, next_index).
  const WalRecord& at(std::uint64_t index) const {
    return records_[index - base()];
  }

  // Drops every record below `index` (all-standby-acked prefix).
  void trim_to(std::uint64_t index) {
    while (!records_.empty() && records_.front().index < index) {
      records_.pop_front();
    }
  }

 private:
  std::deque<WalRecord> records_;
  std::uint64_t next_index_ = 0;
};

}  // namespace escra::ha
