#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"

namespace lktm::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] { order.push_back(2); });
  q.schedule(5, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(3); });
  while (q.runOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, SameCycleIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    q.schedule(7, [&order, i] { order.push_back(i); });
  }
  while (q.runOne()) {
  }
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ZeroDelayRunsWithinCurrentCycle) {
  EventQueue q;
  bool ran = false;
  q.schedule(3, [&] {
    q.schedule(0, [&] { ran = true; });
  });
  while (q.runOne()) {
  }
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), 3u);
}

TEST(EventQueue, NestedSchedulingAdvancesTime) {
  EventQueue q;
  Cycle sawAt = 0;
  q.schedule(1, [&] {
    q.schedule(4, [&] { sawAt = q.now(); });
  });
  while (q.runOne()) {
  }
  EXPECT_EQ(sawAt, 5u);
}

TEST(EventQueue, ScheduleAtAbsolute) {
  EventQueue q;
  Cycle at = 0;
  q.scheduleAt(42, [&] { at = q.now(); });
  while (q.runOne()) {
  }
  EXPECT_EQ(at, 42u);
}

TEST(EventQueue, ScheduleAtPastThrowsWithBothCycles) {
  EventQueue q;
  q.schedule(100, [] {});
  while (q.runOne()) {
  }
  ASSERT_EQ(q.now(), 100u);
  try {
    q.scheduleAt(40, [] {});
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    // The diagnostic must name both the stale target cycle and the current
    // cycle so the offending component is identifiable from the message.
    const std::string what = e.what();
    EXPECT_NE(what.find("40"), std::string::npos) << what;
    EXPECT_NE(what.find("100"), std::string::npos) << what;
  }
}

TEST(EventQueue, ScheduleAtNowIsAllowed) {
  EventQueue q;
  q.schedule(7, [] {});
  q.runOne();
  bool ran = false;
  q.scheduleAt(7, [&] { ran = true; });
  q.runOne();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), 7u);
}

TEST(EventQueue, BeyondHorizonDelaysStillOrdered) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(EventQueue::kHorizon * 3, [&] { order.push_back(3); });
  q.schedule(5, [&] { order.push_back(1); });
  q.schedule(EventQueue::kHorizon + 10, [&] { order.push_back(2); });
  while (q.runOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), EventQueue::kHorizon * 3);
}

TEST(EventQueue, OverflowMigrationKeepsSameCycleFifo) {
  EventQueue q;
  std::vector<int> order;
  const Cycle target = EventQueue::kHorizon + 50;
  // Scheduled while `target` is beyond the horizon: goes to the overflow heap.
  q.scheduleAt(target, [&] { order.push_back(1); });
  // An intermediate event brings `target` inside the horizon, then appends a
  // same-cycle event directly to the ring. Seq order must still win.
  q.schedule(100, [&, target] {
    q.scheduleAt(target, [&] { order.push_back(2); });
  });
  while (q.runOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ResetKeepsSlabsDropsEvents) {
  EventQueue q;
  for (int i = 0; i < 1000; ++i) q.schedule(static_cast<Cycle>(i), [] {});
  const std::size_t slabs = q.slabsAllocated();
  EXPECT_GT(slabs, 0u);
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 0u);
  for (int i = 0; i < 1000; ++i) q.schedule(static_cast<Cycle>(i), [] {});
  EXPECT_EQ(q.slabsAllocated(), slabs);  // reuse, no new slabs
  while (q.runOne()) {
  }
}

TEST(EventQueue, ThrowingActionStillRecyclesItsNode) {
  // A sweep worker reuses one queue after a failed job: the throwing event's
  // node must go back to the free list and its closure must be destroyed,
  // or every failure would leak a node (and whatever the closure captured).
  EventQueue q;
  int ran = 0;
  auto token = std::make_shared<int>(0);
  auto load = [&] {
    for (int i = 0; i < 300; ++i) {
      q.schedule(static_cast<Cycle>(i % 7), [&ran] { ++ran; });
    }
    q.schedule(3, [token] { throw std::runtime_error("job failed"); });
  };
  load();
  EXPECT_THROW(
      {
        while (q.runOne()) {
        }
      },
      std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);  // the thrower's closure is gone
  q.reset();
  const std::size_t slabs = q.slabsAllocated();
  // Enough failures that even one lost node per failure would exhaust any
  // slab slack and force a new slab.
  for (int round = 0; round < 1000; ++round) {
    load();
    EXPECT_THROW(
        {
          while (q.runOne()) {
          }
        },
        std::runtime_error);
    q.reset();
    ASSERT_EQ(q.pending(), 0u);
  }
  EXPECT_EQ(q.slabsAllocated(), slabs);
  EXPECT_EQ(token.use_count(), 1);
  // The queue still runs the same schedule to completion once the thrower
  // is gone.
  ran = 0;
  for (int i = 0; i < 300; ++i) q.schedule(static_cast<Cycle>(i % 7), [&ran] { ++ran; });
  while (q.runOne()) {
  }
  EXPECT_EQ(ran, 300);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.slabsAllocated(), slabs);
}

TEST(EventQueue, FailedScheduleLeavesQueueUntouched) {
  // The closure is built inside a queue node; if building it throws, the
  // node must go back and no sequence number may be consumed.
  struct ThrowOnCopy {
    ThrowOnCopy() = default;
    ThrowOnCopy(const ThrowOnCopy&) { throw std::runtime_error("copy failed"); }
    ThrowOnCopy(ThrowOnCopy&&) noexcept = default;
    void operator()() const {}
  };
  EventQueue q;
  std::vector<int> order;
  q.schedule(1, [&order] { order.push_back(1); });
  const std::size_t slabs = q.slabsAllocated();
  const ThrowOnCopy bad;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_THROW(q.schedule(1, bad), std::runtime_error);
  }
  EXPECT_EQ(q.pending(), 1u);
  q.schedule(1, [&order] { order.push_back(2); });
  while (q.runOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.slabsAllocated(), slabs);
}

TEST(EventQueue, RunningActionKeepsItsCapturesWhileScheduling) {
  // Actions run in place inside their node, so the node must stay off the
  // free list for the whole call: scheduling from inside the action (here
  // enough to grow new slabs) must not clobber the running closure.
  EventQueue q;
  std::vector<std::uint64_t> seen;
  const std::uint64_t a = 0x1234, b = 0x5678;
  q.schedule(1, [&q, &seen, a, b] {
    for (int i = 0; i < 2000; ++i) q.schedule(1, [] {});
    seen.push_back(a);
    seen.push_back(b);
  });
  while (q.runOne()) {
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0x1234, 0x5678}));
  EXPECT_EQ(q.executed(), 2001u);
}

TEST(EventQueue, ScheduledActionIsRelocatedNotWrapped) {
  EventQueue q;
  int hits = 0;
  Action fn = [&hits] { ++hits; };
  q.schedule(2, std::move(fn));
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move): moved-from is empty
  while (q.runOne()) {
  }
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, RunUntilDrainedThrowsOnBudget) {
  EventQueue q;
  // Self-perpetuating event chain: must hit the budget.
  std::function<void()> tick = [&] { q.schedule(1, tick); };
  q.schedule(1, tick);
  EXPECT_THROW(q.runUntilDrained(1000), SimulationHang);
}

TEST(EventQueue, PendingCount) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.runOne();
  EXPECT_EQ(q.pending(), 1u);
}

namespace {

/// Always picks the same index (clamped to the ready count).
class FixedOracle final : public ScheduleOracle {
 public:
  explicit FixedOracle(std::size_t idx, bool fromEnd = false)
      : idx_(idx), fromEnd_(fromEnd) {}
  std::size_t pick(Cycle, std::size_t nReady) override {
    ++picks;
    if (fromEnd_) return nReady - 1 - (idx_ < nReady ? idx_ : nReady - 1);
    return idx_ < nReady ? idx_ : nReady - 1;
  }
  unsigned picks = 0;

 private:
  std::size_t idx_;
  bool fromEnd_;
};

}  // namespace

TEST(EventQueue, OracleIndexZeroMatchesDefaultOrder) {
  // Same schedule twice: default order vs a pick-0 oracle. The model
  // checker's soundness rests on choice 0 being bit-exact with the classic
  // (cycle, seq) order, so any divergence here is a real bug.
  auto build = [](EventQueue& q, std::vector<int>& order) {
    for (int i = 0; i < 4; ++i) {
      q.schedule(5, [&order, i] { order.push_back(100 + i); });
      q.schedule(9, [&order, i] { order.push_back(200 + i); });
    }
    q.schedule(7, [&order, &q] {
      order.push_back(300);
      q.schedule(0, [&order] { order.push_back(301); });
      q.schedule(2, [&order] { order.push_back(302); });
    });
  };
  std::vector<int> defaultOrder;
  {
    EventQueue q;
    build(q, defaultOrder);
    while (q.runOne()) {
    }
  }
  std::vector<int> oracleOrder;
  {
    EventQueue q;
    FixedOracle pickZero(0);
    q.setOracle(&pickZero);
    build(q, oracleOrder);
    while (q.runOne()) {
    }
    EXPECT_GT(pickZero.picks, 0u);
  }
  EXPECT_EQ(oracleOrder, defaultOrder);
}

TEST(EventQueue, OraclePermutesWithinCycleOnly) {
  // A pick-last oracle reverses each same-cycle group but can never move an
  // event across cycle boundaries.
  EventQueue q;
  FixedOracle pickLast(0, /*fromEnd=*/true);
  q.setOracle(&pickLast);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) q.schedule(5, [&order, i] { order.push_back(i); });
  for (int i = 0; i < 2; ++i) q.schedule(8, [&order, i] { order.push_back(10 + i); });
  while (q.runOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0, 11, 10}));
}

TEST(EventQueue, OracleConsultedOnlyAtRealChoicePoints) {
  // Singleton buckets are not branches: the oracle must not be consulted
  // when only one event is ready, or the DFS trail would fill with
  // arity-1 entries.
  EventQueue q;
  FixedOracle pickZero(0);
  q.setOracle(&pickZero);
  q.schedule(1, [] {});
  q.schedule(2, [] {});
  q.schedule(2, [] {});
  while (q.runOne()) {
  }
  EXPECT_EQ(pickZero.picks, 1u);
}

TEST(EventQueue, OracleOutOfRangePickThrows) {
  class BadOracle final : public ScheduleOracle {
   public:
    std::size_t pick(Cycle, std::size_t nReady) override { return nReady; }
  };
  EventQueue q;
  BadOracle bad;
  q.setOracle(&bad);
  q.schedule(3, [] {});
  q.schedule(3, [] {});
  EXPECT_THROW(q.runOne(), std::logic_error);
}

TEST(EventQueue, DelayWrappingPastNowThrows) {
  // A u64-wrapping delay would otherwise alias into the ring's horizon
  // window and fire in the past.
  EventQueue q;
  q.schedule(5, [] {});
  while (q.runOne()) {
  }
  ASSERT_EQ(q.now(), 5u);
  EXPECT_THROW(q.schedule(UINT64_MAX, [] {}), std::logic_error);
}

TEST(Engine, WatchdogFiresWithoutProgress) {
  Engine e(/*watchdogWindow=*/100);
  std::function<void()> tick = [&] { e.schedule(10, tick); };
  e.schedule(1, tick);
  EXPECT_THROW(e.run(), SimulationHang);
}

TEST(Engine, ProgressKeepsWatchdogQuiet) {
  Engine e(/*watchdogWindow=*/100);
  int steps = 0;
  std::function<void()> tick = [&] {
    e.noteProgress();
    if (++steps < 50) e.schedule(90, tick);
  };
  e.schedule(1, tick);
  EXPECT_NO_THROW(e.run());
  EXPECT_EQ(steps, 50);
}

TEST(Engine, DiagnosticsAppearInHangMessage) {
  Engine e(/*watchdogWindow=*/50);
  e.addDiagnostic([] { return std::string("component-state-xyz"); });
  std::function<void()> tick = [&] { e.schedule(10, tick); };
  e.schedule(1, tick);
  try {
    e.run();
    FAIL() << "expected hang";
  } catch (const SimulationHang& ex) {
    EXPECT_NE(std::string(ex.what()).find("component-state-xyz"), std::string::npos);
  }
}

TEST(Engine, CycleBudgetEnforced) {
  Engine e(/*watchdogWindow=*/1'000'000);
  std::function<void()> tick = [&] {
    e.noteProgress();
    e.schedule(10, tick);
  };
  e.schedule(1, tick);
  EXPECT_THROW(e.run(/*maxCycles=*/500), SimulationHang);
}

}  // namespace
}  // namespace lktm::sim
