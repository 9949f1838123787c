#include "core/wakeup_table.hpp"

#include <algorithm>
#include <cassert>

namespace lktm::core {

std::uint64_t WakeupTable::keyOf(LineAddr line, CoreId core) {
  assert(lineOfKey(line << kCoreBits) == line && "line address too wide");
  assert(core >= 0 && static_cast<unsigned>(core) < sim::CoreMask::kMaxCores);
  return line << kCoreBits | static_cast<std::uint64_t>(core);
}

void WakeupTable::record(LineAddr line, CoreId core) {
  const std::uint64_t k = keyOf(line, core);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), k);
  if (it == keys_.end() || *it != k) keys_.insert(it, k);
}

std::vector<WakeupTable::Entry> WakeupTable::drainAll() {
  std::vector<Entry> out;
  out.reserve(keys_.size());
  for (const std::uint64_t k : keys_) out.push_back({lineOfKey(k), coreOfKey(k)});
  keys_.clear();  // keeps the capacity for the next transaction
  return out;
}

std::vector<WakeupTable::Entry> WakeupTable::drain(LineAddr line) {
  const auto first = std::lower_bound(keys_.begin(), keys_.end(), keyOf(line, 0));
  auto last = first;
  std::vector<Entry> out;
  for (; last != keys_.end() && lineOfKey(*last) == line; ++last) {
    out.push_back({line, coreOfKey(*last)});
  }
  keys_.erase(first, last);
  return out;
}

}  // namespace lktm::core
