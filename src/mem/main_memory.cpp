#include "mem/main_memory.hpp"

namespace lktm::mem {

void MainMemory::attachStats(stats::StatRegistry& reg) {
  lineReads_ = &reg.counter("mem.line_reads", "DRAM line fetches");
  lineWrites_ = &reg.counter("mem.line_writes", "DRAM line writebacks");
}

LineData MainMemory::readLine(LineAddr line) const {
  countLineReads(1);
  return peekLine(line);
}

LineData MainMemory::peekLine(LineAddr line) const {
  auto it = store_.find(line);
  if (it == store_.end()) return LineData{};
  return it->second;
}

void MainMemory::countLineReads(std::uint64_t n) const {
  if (lineReads_ != nullptr) *lineReads_ += n;
}

void MainMemory::writeLine(LineAddr line, const LineData& data) {
  if (lineWrites_ != nullptr) ++*lineWrites_;
  store_[line] = data;
}

std::uint64_t MainMemory::readWord(Addr addr) const {
  auto it = store_.find(lineOf(addr));
  if (it == store_.end()) return 0;
  return it->second[wordOf(addr)];
}

void MainMemory::writeWord(Addr addr, std::uint64_t value) {
  store_[lineOf(addr)][wordOf(addr)] = value;
}

}  // namespace lktm::mem
