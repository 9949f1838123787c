// Word-granular backing store for the simulated physical address space.
// Sparse (hash map of lines) so 8 GB of simulated DRAM costs only what is
// touched. Timing (the 100-cycle latency of Table I) is applied by the
// directory controller, not here.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "mem/cache_array.hpp"
#include "sim/types.hpp"
#include "stats/registry.hpp"

namespace lktm::mem {

class MainMemory {
 public:
  /// Opt-in instrumentation: registers "mem.line_reads"/"mem.line_writes" in
  /// `reg`. Workload setup and invariant checks that poke memory directly via
  /// the word accessors are not counted — only line traffic from the
  /// directory. Unattached (unit-test) instances count nothing.
  void attachStats(stats::StatRegistry& reg);

  /// Read a whole line; absent lines read as zero.
  LineData readLine(LineAddr line) const;
  /// readLine without counting: the directory's warm LLC range serves lines
  /// whose DRAM read was already counted when the range was warmed.
  LineData peekLine(LineAddr line) const;
  /// Count `n` line reads that happen as one bulk transfer (LLC warm-up).
  void countLineReads(std::uint64_t n) const;

  void writeLine(LineAddr line, const LineData& data);

  /// Word accessors for workload initialization and final invariant checks.
  std::uint64_t readWord(Addr addr) const;
  void writeWord(Addr addr, std::uint64_t value);

  std::size_t touchedLines() const { return store_.size(); }

 private:
  // lktm-lint: allow(no-unordered-iteration) -- keyed lookup only, never iterated
  std::unordered_map<LineAddr, LineData> store_;
  stats::Counter* lineReads_ = nullptr;
  stats::Counter* lineWrites_ = nullptr;
};

}  // namespace lktm::mem
