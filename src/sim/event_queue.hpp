// Deterministic discrete-event queue: events ordered by (cycle, insertion seq).
//
// Implementation: a two-level calendar queue. A near ring of one-cycle
// buckets covers [now, now + kHorizon); each bucket is an intrusive FIFO of
// slab-pooled event nodes, so same-cycle events come out in insertion-seq
// order for free. Events beyond the horizon wait in an overflow min-heap
// keyed on (cycle, seq) and migrate into the ring as the clock advances.
// The total order is bit-identical to the classic binary-heap implementation
// (see tests/test_kernel.cpp's replay regression), but schedule/runOne are
// O(1) amortized and allocation-free once the node slabs have warmed up.
//
// Event lifecycle: schedule()/scheduleAt() take the caller's closure as a
// template argument and construct it directly in a free node's SmallFn —
// no intermediate Action is built and relocated on the way in. runOne()
// unlinks the node, invokes the closure where it lies, then destroys it and
// returns the node to the free list; a scope guard does the last two steps
// even when the action throws, so a failed sweep job cannot leak nodes from
// a SimContext that is reused for the next job. Because the running node is
// off the free list until its action returns, the closure's captures stay
// valid for the whole call. The hot path (allocNode, insert, appendToRing,
// runOne) is inline here; slab growth, overflow migration, the oracle path
// and the throw paths stay out of line in event_queue.cpp.
//
// None of this changes which events run or their (cycle, seq) order: seq is
// still assigned once per successful schedule in call order, and the pop
// path is the same ring/overflow walk. That order is the contract behind the
// golden coherence traces, the full-sim fingerprints, the model checker's
// pick-0 oracle equivalence and every committed result digest, so kernel
// changes must keep it bit-exact.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/types.hpp"

namespace lktm::sim {

/// Thrown when the engine watchdog detects lack of forward progress
/// (a protocol livelock/deadlock) or the cycle budget is exhausted.
class SimulationHang : public std::runtime_error {
 public:
  explicit SimulationHang(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a run exhausts an explicit budget — the simulated-cycle
/// ceiling or a host wall-clock deadline — rather than losing forward
/// progress. Subclasses SimulationHang so legacy catch sites keep working,
/// but the sweep orchestrator records it as `timeout`, not `hang`.
class SimulationTimeout : public SimulationHang {
 public:
  explicit SimulationTimeout(const std::string& what) : SimulationHang(what) {}
};

/// Nondeterminism seam for the protocol model checker (src/verify): when an
/// oracle is installed, every cycle whose bucket holds more than one ready
/// event becomes an explicit choice point — the oracle picks which same-cycle
/// event runs next instead of the fixed insertion-seq order. Picking index 0
/// at every choice point reproduces the default (cycle, seq) order bit-exactly
/// (see EventQueue.OracleIndexZeroMatchesDefaultOrder). Oracles can only
/// permute events *within* one cycle; the queue asserts that a chosen event's
/// timestamp equals the current cycle, so no oracle can reorder across cycles.
class ScheduleOracle {
 public:
  virtual ~ScheduleOracle() = default;

  /// Pick one of the `nReady` (>= 2) events runnable at cycle `now`, indexed
  /// in insertion-seq order. Out-of-range picks throw std::logic_error.
  virtual std::size_t pick(Cycle now, std::size_t nReady) = 0;
};

class EventQueue {
 public:
  using Action = sim::Action;

  /// Cycles covered by the near ring; longer delays go to the overflow heap.
  /// 4096 covers every protocol latency (memory = 100 cycles) with headroom
  /// for Compute/DelayReg bursts; only extreme backoffs overflow.
  static constexpr std::size_t kHorizon = 4096;

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` to run `delay` cycles from now. delay==0 runs later in the
  /// current cycle (after currently pending same-cycle events). `fn` is any
  /// callable Action accepts (a closure, or an Action, which is relocated).
  template <class F>
  void schedule(Cycle delay, F&& fn) {
    insert(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule at an absolute cycle. Throws std::logic_error when `when` is in
  /// the past — a protocol component computed a stale timestamp.
  template <class F>
  void scheduleAt(Cycle when, F&& fn) {
    if (when < now_) throwPast(when);
    insert(when, std::forward<F>(fn));
  }

  Cycle now() const { return now_; }
  bool empty() const { return size_ == 0; }
  std::size_t pending() const { return size_; }

  /// Run the next event; returns false if the queue is empty.
  bool runOne() {
    if (size_ == 0) return false;
    Node* n = oracle_ != nullptr ? popWithOracle() : popDefault();
    --size_;
    ++executed_;
    const RecycleOnExit guard{*this, n};
    n->fn();
    return true;
  }

  /// Run until the queue drains or `maxCycles` simulated cycles elapse.
  /// Throws SimulationHang if the budget is exceeded.
  void runUntilDrained(Cycle maxCycles);

  /// Drop all pending events and rewind the clock and sequence counter to
  /// zero. Node slabs are retained, so a reused queue does not re-allocate.
  void reset();

  /// Events executed since construction (not reset by reset()).
  std::uint64_t executed() const { return executed_; }
  /// Node slabs allocated since construction (telemetry).
  std::size_t slabsAllocated() const { return slabs_.size(); }

  /// Install (or remove, with nullptr) the same-cycle choice oracle. Not
  /// owned. With no oracle the queue runs the classic (cycle, seq) order.
  void setOracle(ScheduleOracle* oracle) { oracle_ = oracle; }
  ScheduleOracle* oracle() const { return oracle_; }

  /// Visit every pending event's (cycle, insertion seq), in no particular
  /// order. The verifier folds the relative delays into its state fingerprint.
  template <typename Fn>
  void forEachPending(Fn&& fn) const {
    for (const Bucket& b : ring_) {
      for (const Node* n = b.head; n != nullptr; n = n->next) fn(n->when, n->seq);
    }
    for (const Node* n : overflow_) fn(n->when, n->seq);
  }

 private:
  struct Node {
    Cycle when = 0;
    std::uint64_t seq = 0;
    Node* next = nullptr;
    Action fn;
  };
  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  static constexpr std::size_t kMask = kHorizon - 1;
  static constexpr std::size_t kOccWords = kHorizon / 64;
  static constexpr std::size_t kSlabNodes = 256;
  static constexpr std::size_t kNoBucket = static_cast<std::size_t>(-1);
  static_assert((kHorizon & kMask) == 0, "horizon must be a power of two");

  std::vector<Bucket> ring_;
  std::array<std::uint64_t, kOccWords> occ_{};
  std::vector<Node*> overflow_;  ///< min-heap on (when, seq)
  ScheduleOracle* oracle_ = nullptr;
  Node* free_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> slabs_;

  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
  std::size_t ringSize_ = 0;
  std::uint64_t executed_ = 0;

  static bool laterInHeap(const Node* a, const Node* b) {
    return a->when != b->when ? a->when > b->when : a->seq > b->seq;
  }

  /// Destroys the running node's closure and recycles the node when runOne
  /// leaves, whether the action returned or threw.
  struct RecycleOnExit {
    EventQueue& q;
    Node* n;
    ~RecycleOnExit() { q.recycleNode(n); }
  };

  Node* allocNode() {
    if (free_ == nullptr) growSlabs();
    Node* n = free_;
    free_ = n->next;
    n->next = nullptr;
    return n;
  }

  void recycleNode(Node* n) {
    n->fn = nullptr;  // release captured state eagerly
    n->next = free_;
    free_ = n;
  }

  template <class F>
  void insert(Cycle when, F&& fn) {
    // Guards the `when - now_` horizon test below against u64 wrap: a delay
    // large enough to overflow `now_ + delay` would otherwise alias into a
    // ring bucket of an earlier "day" and run kHorizon cycles early.
    if (when < now_) throwWrapped(when);
    Node* n = allocNode();
    try {
      n->fn = std::forward<F>(fn);
    } catch (...) {
      recycleNode(n);
      throw;
    }
    n->when = when;
    n->seq = seq_++;
    ++size_;
    if (when - now_ < kHorizon) {
      appendToRing(n);
    } else {
      pushOverflow(n);
    }
  }

  void appendToRing(Node* n) {
    // Day-rollover bounds check: the ring covers exactly [now_, now_+kHorizon),
    // so an event outside that window would collide with a bucket belonging
    // to a different cycle (same index mod kHorizon) and fire at the wrong
    // time.
    assert(n->when >= now_ && n->when - now_ < kHorizon &&
           "calendar ring day rollover: event outside the horizon window");
    const std::size_t idx = n->when & kMask;
    Bucket& b = ring_[idx];
    if (b.head == nullptr) {
      b.head = b.tail = n;
      occ_[idx / 64] |= 1ull << (idx % 64);
    } else {
      b.tail->next = n;
      b.tail = n;
    }
    ++ringSize_;
  }

  std::size_t earliestRingIndex() const {
    // Common case: more events are due in the current cycle.
    const std::size_t start = now_ & kMask;
    if (ring_[start].head != nullptr) return start;
    return scanRing(start);
  }

  Node* popDefault() {
    Node* n;
    if (ringSize_ > 0) {
      const std::size_t idx = earliestRingIndex();
      assert(idx != kNoBucket && "occupancy bitmap out of sync");
      Bucket& b = ring_[idx];
      n = b.head;
      b.head = n->next;
      if (b.head == nullptr) {
        b.tail = nullptr;
        occ_[idx / 64] &= ~(1ull << (idx % 64));
      }
      --ringSize_;
    } else {
      n = popOverflow();
    }
    assert(n->when >= now_);
    now_ = n->when;
    // Pull newly-in-horizon events into the ring *before* running the
    // action, so same-cycle ring appends from the action keep their seq
    // order behind any older overflow events for the same bucket.
    if (!overflow_.empty()) migrateOverflow();
    return n;
  }

  [[noreturn]] void throwPast(Cycle when) const;
  [[noreturn]] void throwWrapped(Cycle when) const;
  void growSlabs();
  void pushOverflow(Node* n);
  Node* popOverflow();
  void migrateOverflow();
  std::size_t scanRing(std::size_t start) const;
  Node* popWithOracle();
};

}  // namespace lktm::sim
