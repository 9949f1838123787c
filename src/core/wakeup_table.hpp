// The per-responder wakeup bookkeeping of the recovery mechanism (the green
// shaded table in the paper's Fig 2): every time a request is rejected under
// the WaitWakeup policy, the rejecting side records which core to wake; the
// table is drained when the local transaction commits or aborts.
//
// Storage is a small vector of (line, core) keys kept sorted and free of
// duplicates: a transaction rejects a handful of requesters, so an insertion
// shift is cheaper than hashing. A key packs the line above the core id, so
// integer order is (line, core) order: drains walk lines in ascending order
// and cores in ascending id order, which is exactly the old
// std::map<LineAddr, std::set<CoreId>> order.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/core_mask.hpp"
#include "sim/types.hpp"

namespace lktm::core {

class WakeupTable {
 public:
  struct Entry {
    LineAddr line;
    CoreId core;
  };

  /// Record that `core`'s request for `line` was rejected here.
  void record(LineAddr line, CoreId core);

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }

  /// Remove and return every recorded waiter (commit/abort of the local
  /// transaction releases all lines at once). Deterministic order.
  std::vector<Entry> drainAll();

  /// Remove and return waiters for one line (used by the LLC signatures when
  /// a specific address is released).
  std::vector<Entry> drain(LineAddr line);

  /// Non-draining walk in (ascending line, ascending core) order, for the
  /// model checker's state fingerprints and no-lost-wakeup invariant.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const std::uint64_t k : keys_) fn(lineOfKey(k), coreOfKey(k));
  }

 private:
  static constexpr unsigned kCoreBits = 9;
  static_assert(sim::CoreMask::kMaxCores <= (1u << kCoreBits));

  static std::uint64_t keyOf(LineAddr line, CoreId core);
  static LineAddr lineOfKey(std::uint64_t k) { return k >> kCoreBits; }
  static CoreId coreOfKey(std::uint64_t k) {
    return static_cast<CoreId>(k & ((1u << kCoreBits) - 1));
  }

  std::vector<std::uint64_t> keys_;  // ascending, no duplicates
};

}  // namespace lktm::core
