#include "core/credit_ledger.h"

#include <algorithm>

namespace escra::core {

void CreditLedger::open(cluster::ContainerId id, std::int64_t init_micro) {
  const auto [it, inserted] = accounts_.try_emplace(id);
  if (!inserted) return;
  it->second.micro = init_micro;
  minted_ += init_micro;
  outstanding_ += init_micro;
}

void CreditLedger::close(cluster::ContainerId id) {
  const auto it = accounts_.find(id);
  if (it == accounts_.end()) return;
  // The remaining balance (or debt) is burned with the account: minted
  // stays the history of everything ever issued, outstanding drops by
  // exactly what the account held, and conservation holds through the sign.
  burned_ += it->second.micro;
  outstanding_ -= it->second.micro;
  accounts_.erase(it);
}

std::int64_t CreditLedger::balance_micro(cluster::ContainerId id) const {
  const auto it = accounts_.find(id);
  return it != accounts_.end() ? it->second.micro : 0;
}

std::int64_t CreditLedger::mint(cluster::ContainerId id, std::int64_t micro,
                                std::int64_t cap_micro) {
  const auto it = accounts_.find(id);
  if (it == accounts_.end() || micro <= 0) return 0;
  const std::int64_t room = cap_micro - it->second.micro;
  const std::int64_t granted = std::clamp<std::int64_t>(micro, 0, std::max<std::int64_t>(0, room));
  it->second.micro += granted;
  minted_ += granted;
  outstanding_ += granted;
  return granted;
}

std::int64_t CreditLedger::burn(cluster::ContainerId id, std::int64_t micro) {
  const auto it = accounts_.find(id);
  if (it == accounts_.end() || micro <= 0) return 0;
  it->second.micro -= micro;
  burned_ += micro;
  outstanding_ -= micro;
  return micro;
}

std::int32_t CreditLedger::bump_streak(cluster::ContainerId id) {
  const auto it = accounts_.find(id);
  if (it == accounts_.end()) return 0;
  return ++it->second.above_streak;
}

void CreditLedger::reset_streak(cluster::ContainerId id) {
  const auto it = accounts_.find(id);
  if (it != accounts_.end()) it->second.above_streak = 0;
}

std::int32_t CreditLedger::streak(cluster::ContainerId id) const {
  const auto it = accounts_.find(id);
  return it != accounts_.end() ? it->second.above_streak : 0;
}

void CreditLedger::clear() {
  accounts_.clear();
  minted_ = 0;
  burned_ = 0;
  outstanding_ = 0;
}

void CreditLedger::install(const std::vector<Snapshot>& accounts,
                           std::int64_t minted, std::int64_t burned) {
  clear();
  for (const Snapshot& s : accounts) {
    Account& a = accounts_[s.id];
    a.micro = s.micro;
    outstanding_ += s.micro;
  }
  minted_ = minted;
  burned_ = burned;
}

}  // namespace escra::core
