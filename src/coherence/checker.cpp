#include "coherence/checker.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <stdexcept>

namespace lktm::coh {

namespace {
struct Copy {
  LineAddr line;
  CoreId core;
  const mem::CacheEntry* entry;
};
}  // namespace

std::vector<std::string> CoherenceChecker::check() const {
  std::vector<std::string> out;
  auto fail = [&](LineAddr line, const std::string& what) {
    std::ostringstream oss;
    oss << "line 0x" << std::hex << line << std::dec << ": " << what;
    out.push_back(oss.str());
  };

  if (dir_->busyLines() != 0) {
    out.push_back("directory not quiescent: " + std::to_string(dir_->busyLines()) +
                  " busy lines");
  }

  std::vector<Copy> copies;
  for (std::size_t i = 0; i < l1s_.size(); ++i) {
    const L1Controller* l1 = l1s_[i];
    const CoreId core = static_cast<CoreId>(i);
    l1->cache().forEachValid([&](const mem::CacheEntry& e) {
      copies.push_back(Copy{e.line, core, &e});
    });
    if (l1->mode() == TxMode::None) {
      const auto txLines = l1->cache().countIf(
          [](const mem::CacheEntry& e) { return e.transactional(); });
      if (txLines != 0) {
        out.push_back("core " + std::to_string(core) + " has " +
                      std::to_string(txLines) + " tx-marked lines outside a tx");
      }
    }
  }
  // A core holds a line at most once, so (line, core) is a total order.
  std::sort(copies.begin(), copies.end(), [](const Copy& a, const Copy& b) {
    return a.line != b.line ? a.line < b.line : a.core < b.core;
  });

  for (auto first = copies.begin(); first != copies.end();) {
    const LineAddr line = first->line;
    const auto last = std::find_if(
        first, copies.end(), [&](const Copy& c) { return c.line != line; });
    const std::span<const Copy> cs(first, last);
    first = last;

    unsigned exclusive = 0;
    unsigned dirtyCount = 0;
    CoreId owner = kNoCore;
    for (const Copy& c : cs) {
      if (c.entry->state == mem::MesiState::E || c.entry->state == mem::MesiState::M) {
        ++exclusive;
        owner = c.core;
      }
      if (c.entry->dirty) ++dirtyCount;
    }
    if (exclusive > 1) fail(line, "multiple E/M copies (SWMR violated)");
    if (exclusive == 1 && cs.size() > 1) fail(line, "E/M copy coexists with sharers");
    if (dirtyCount > 1) fail(line, "multiple dirty copies");

    const auto snap = dir_->snapshot(line);
    if (exclusive == 1 && snap.owner != owner) {
      fail(line, "directory owner=" + std::to_string(snap.owner) +
                     " but E/M copy at core " + std::to_string(owner));
    }
    for (const Copy& c : cs) {
      if (c.entry->state == mem::MesiState::S && snap.owner == kNoCore &&
          snap.sharers.count(c.core) == 0) {
        fail(line, "S copy at core " + std::to_string(c.core) +
                       " missing from the sharer list");
      }
      // Clean copies must agree with the LLC (value coherence). Dirty copies
      // are by definition newer.
      if (!c.entry->dirty && !c.entry->transactional() && dir_->llcHas(line) &&
          c.entry->data != dir_->llcData(line)) {
        fail(line, "clean copy at core " + std::to_string(c.core) +
                       " disagrees with the LLC");
      }
    }
  }
  return out;
}

void CoherenceChecker::expectClean() const {
  const auto violations = check();
  if (violations.empty()) return;
  std::ostringstream oss;
  oss << violations.size() << " coherence violations:";
  for (const auto& v : violations) oss << "\n  " << v;
  throw std::logic_error(oss.str());
}

}  // namespace lktm::coh
